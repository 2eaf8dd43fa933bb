// Schedule-exploration fuzzing: tier-1 bounded matrix + policy units.
//
// The parameterized suite runs a fixed (graph × schedule × core-count)
// matrix — 13 graph seeds × 4 schedule policies × 4 core counts = 208
// configurations, each a FuzzCase run as the coprocessor through the
// conformance oracle (run_fuzz_case → run_conformance_case: structure
// checks, cross-compare against sequential Cheney, re-collection). FIFO
// capacity, latency jitter and the optional collector features vary with
// the graph seed so the matrix also exercises backpressure and sub-object
// copying.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "conformance/conformance.hpp"
#include "core/coprocessor.hpp"
#include "core/schedule_policy.hpp"
#include "core/sync_block.hpp"
#include "sim/config.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

// ---------------------------------------------------------------------------
// Policy unit tests.
// ---------------------------------------------------------------------------

bool is_permutation_of_cores(const std::vector<CoreId>& order,
                             std::uint32_t n) {
  if (order.size() != n) return false;
  std::set<CoreId> seen(order.begin(), order.end());
  if (seen.size() != n) return false;
  return *seen.begin() == 0 && *seen.rbegin() == n - 1;
}

TEST(SchedulePolicy, EveryPolicyEmitsAPermutationEveryCycle) {
  for (const SchedulePolicyKind kind :
       {SchedulePolicyKind::kFixedPriority, SchedulePolicyKind::kRotating,
        SchedulePolicyKind::kRandom, SchedulePolicyKind::kAdversarial}) {
    for (const std::uint32_t n : {1u, 2u, 5u, 16u}) {
      SyncBlock sb(n);
      const auto policy = make_schedule_policy(kind, /*seed=*/7);
      std::vector<CoreId> order;
      for (Cycle now = 0; now < 50; ++now) {
        policy->order(now, sb, order);
        EXPECT_TRUE(is_permutation_of_cores(order, n))
            << to_string(kind) << " n=" << n << " cycle=" << now;
      }
    }
  }
}

TEST(SchedulePolicy, FixedPriorityIsIdentity) {
  SyncBlock sb(4);
  const auto policy =
      make_schedule_policy(SchedulePolicyKind::kFixedPriority, 0);
  std::vector<CoreId> order;
  policy->order(123, sb, order);
  EXPECT_EQ(order, (std::vector<CoreId>{0, 1, 2, 3}));
}

TEST(SchedulePolicy, RotatingShiftsWithTheClock) {
  SyncBlock sb(4);
  const auto policy = make_schedule_policy(SchedulePolicyKind::kRotating, 0);
  std::vector<CoreId> order;
  policy->order(0, sb, order);
  EXPECT_EQ(order, (std::vector<CoreId>{0, 1, 2, 3}));
  policy->order(1, sb, order);
  EXPECT_EQ(order, (std::vector<CoreId>{1, 2, 3, 0}));
  policy->order(6, sb, order);
  EXPECT_EQ(order, (std::vector<CoreId>{2, 3, 0, 1}));
}

TEST(SchedulePolicy, RandomIsSeedDeterministicAndSeedSensitive) {
  SyncBlock sb(8);
  std::vector<CoreId> a, b;
  {
    const auto p1 = make_schedule_policy(SchedulePolicyKind::kRandom, 42);
    const auto p2 = make_schedule_policy(SchedulePolicyKind::kRandom, 42);
    for (Cycle now = 0; now < 100; ++now) {
      p1->order(now, sb, a);
      p2->order(now, sb, b);
      ASSERT_EQ(a, b) << "same seed must replay the same permutations";
    }
  }
  // Different seeds diverge somewhere in the first 100 cycles.
  const auto p1 = make_schedule_policy(SchedulePolicyKind::kRandom, 42);
  const auto p2 = make_schedule_policy(SchedulePolicyKind::kRandom, 43);
  bool diverged = false;
  for (Cycle now = 0; now < 100 && !diverged; ++now) {
    p1->order(now, sb, a);
    p2->order(now, sb, b);
    diverged = a != b;
  }
  EXPECT_TRUE(diverged);
}

TEST(SchedulePolicy, AdversarialStepsLockHoldersLast) {
  SyncBlock sb(4);
  sb.begin_cycle();
  ASSERT_TRUE(sb.try_lock_scan(2));
  ASSERT_TRUE(sb.try_lock_free(0));
  const auto policy =
      make_schedule_policy(SchedulePolicyKind::kAdversarial, 0);
  std::vector<CoreId> order;
  policy->order(5, sb, order);
  // Non-holders (1, 3) first in index order, then holders (0, 2).
  EXPECT_EQ(order, (std::vector<CoreId>{1, 3, 0, 2}));
}

TEST(SchedulePolicy, ParseRoundTripsAllNames) {
  for (const SchedulePolicyKind kind :
       {SchedulePolicyKind::kFixedPriority, SchedulePolicyKind::kRotating,
        SchedulePolicyKind::kRandom, SchedulePolicyKind::kAdversarial}) {
    SchedulePolicyKind parsed{};
    ASSERT_TRUE(parse_schedule_policy(to_string(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  SchedulePolicyKind parsed{};
  EXPECT_FALSE(parse_schedule_policy("bogus", parsed));
}

TEST(ScheduleTrace, RingKeepsOnlyTheTail) {
  ScheduleTrace trace(2);
  trace.record(10, {0, 1});
  trace.record(11, {1, 0});
  trace.record(12, {0, 1});
  EXPECT_EQ(trace.cycles_recorded(), 3u);
  ASSERT_EQ(trace.orders().size(), 2u);
  EXPECT_EQ(trace.orders().front().first, 11u);
  EXPECT_NE(trace.dump().find("elided"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fuzz-case plumbing.
// ---------------------------------------------------------------------------

TEST(FuzzCase, OracleRunIsDeterministic) {
  FuzzCase fc = case_from_seed(17);
  fc.harness.schedule = SchedulePolicyKind::kRandom;
  const ConformanceVerdict a = run_fuzz_case(fc);
  const ConformanceVerdict b = run_fuzz_case(fc);
  ASSERT_TRUE(a.ok) << a.summary();
  ASSERT_TRUE(b.ok) << b.summary();
  EXPECT_EQ(a.report.coproc->total_cycles, b.report.coproc->total_cycles);
  EXPECT_EQ(a.report.coproc->words_copied, b.report.coproc->words_copied);
  EXPECT_EQ(a.report.coproc->mem_requests, b.report.coproc->mem_requests);
  EXPECT_EQ(a.report.schedule_tail, b.report.schedule_tail);
  EXPECT_EQ(a.live_objects, b.live_objects);
}

TEST(FuzzCase, SeedDerivationCoversAllPolicies) {
  std::set<SchedulePolicyKind> seen;
  for (std::uint64_t s = 1; s <= 64; ++s) {
    seen.insert(case_from_seed(s).harness.schedule);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(FuzzCase, JitteredScheduleTraceIsSeedDeterministic) {
  // Seeded latency jitter must be part of the deterministic replay: the
  // same seed and config on two fresh simulator instances (and thus two
  // fresh MemorySystem jitter streams) must produce the identical
  // cycle-by-cycle step order, not just the same end result.
  const GraphPlan plan = make_benchmark_plan(BenchmarkId::kJlisp, 0.05);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  cfg.coprocessor.schedule = SchedulePolicyKind::kRandom;
  cfg.coprocessor.schedule_seed = 21;
  cfg.memory.latency_jitter = 5;
  cfg.memory.jitter_seed = 9;

  Workload w1 = materialize(plan);
  Workload w2 = materialize(plan);
  ScheduleTrace t1(1 << 20), t2(1 << 20);
  Coprocessor c1(cfg, *w1.heap);
  Coprocessor c2(cfg, *w2.heap);
  const GcCycleStats s1 = c1.collect(nullptr, &t1);
  const GcCycleStats s2 = c2.collect(nullptr, &t2);

  EXPECT_EQ(s1.total_cycles, s2.total_cycles);
  EXPECT_EQ(s1.mem_requests, s2.mem_requests);
  EXPECT_EQ(t1.cycles_recorded(), t2.cycles_recorded());
  ASSERT_EQ(t1.orders(), t2.orders());
  EXPECT_EQ(t1.dump(), t2.dump());

  // And a different jitter seed must actually change the execution
  // somewhere — otherwise the jitter knob is dead.
  SimConfig other = cfg;
  other.memory.jitter_seed = 10;
  Workload w3 = materialize(plan);
  Coprocessor c3(other, *w3.heap);
  const GcCycleStats s3 = c3.collect();
  EXPECT_NE(s1.total_cycles, s3.total_cycles);
}

TEST(FuzzGraph, EmptyRootSetIsReachable) {
  FuzzGraphConfig cfg;
  cfg.empty_root_probability = 1.0;
  const GraphPlan plan = make_fuzz_plan(3, cfg);
  EXPECT_TRUE(plan.roots.empty());
}

// ---------------------------------------------------------------------------
// The bounded matrix: 13 seeds × 4 policies × 4 core counts = 208 configs.
// ---------------------------------------------------------------------------

using MatrixParam = std::tuple<std::uint64_t, SchedulePolicyKind,
                               std::uint32_t>;

class ScheduleFuzzMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ScheduleFuzzMatrix, DifferentialOracle) {
  const auto [seed, schedule, cores] = GetParam();

  FuzzCase fc;
  fc.graph_seed = seed * 0x9e3779b97f4a7c15ULL + 1;
  HarnessConfig& h = fc.harness;
  h.schedule = schedule;
  h.schedule_seed = seed ^ 0xfeedULL;
  h.threads = cores;
  // Vary the hardware knobs with the seed so the matrix also covers FIFO
  // backpressure, out-of-order retirement and the optional features.
  h.header_fifo_capacity = (seed % 3 == 0) ? 8u : 32u * 1024u;
  h.latency_jitter = (seed % 2 == 1) ? 3u : 0u;
  h.subobject_copy = seed % 4 == 0;
  h.markbit_early_read = seed % 5 == 0;
  // Keep individual cases small: the matrix gets its power from breadth.
  fc.graph.max_nodes = 96;
  fc.graph.max_delta = 10;

  const ConformanceVerdict v = run_fuzz_case(fc);
  EXPECT_TRUE(v.ok) << v.summary() << "\nrepro: fuzz_gc " << fc.summary();
}

std::string matrix_name(
    const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto [seed, schedule, cores] = info.param;
  return "seed" + std::to_string(seed) + "_" + to_string(schedule) +
         "_cores" + std::to_string(cores);
}

INSTANTIATE_TEST_SUITE_P(
    Bounded, ScheduleFuzzMatrix,
    ::testing::Combine(
        ::testing::Range<std::uint64_t>(1, 14),
        ::testing::Values(SchedulePolicyKind::kFixedPriority,
                          SchedulePolicyKind::kRotating,
                          SchedulePolicyKind::kRandom,
                          SchedulePolicyKind::kAdversarial),
        ::testing::Values(1u, 2u, 4u, 8u)),
    matrix_name);

}  // namespace
}  // namespace hwgc
