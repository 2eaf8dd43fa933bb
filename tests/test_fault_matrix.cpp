// Fault matrix through the conformance oracle: every fault class, swept
// across schedule policies and core counts, must end in a verified heap
// identical to the sequential reference (masked or recovered) with the
// recovery counters accounting for every injected event (checked by
// check_post_structure) — never silent corruption. This is the in-tree
// slice of the fault_lab sweep; the fuzz-smoke label also runs it under
// the sanitizers.
#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "fuzz/oracle.hpp"

namespace hwgc {
namespace {

FuzzCase fault_case(FaultKind kind, std::uint32_t cores,
                    SchedulePolicyKind schedule, std::uint64_t seed) {
  FuzzCase fc;
  fc.graph_seed = 42 + seed;
  fc.graph.min_nodes = 32;
  fc.graph.max_nodes = 64;
  HarnessConfig& h = fc.harness;
  h.threads = cores;
  h.schedule = schedule;
  h.schedule_seed = seed;
  h.fault.seed = seed;
  h.fault.events = 3;
  h.fault.trigger_scale = 48;  // keep trigger points inside short runs
  h.fault.class_mask = 1u << static_cast<std::uint32_t>(kind);
  return fc;
}

TEST(FaultMatrix, EveryClassRecoversAcrossSchedulesAndCores) {
  static constexpr SchedulePolicyKind kSchedules[] = {
      SchedulePolicyKind::kFixedPriority,
      SchedulePolicyKind::kRotating,
      SchedulePolicyKind::kRandom,
      SchedulePolicyKind::kAdversarial,
  };
  std::uint64_t fired = 0;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    const FaultKind kind = static_cast<FaultKind>(k);
    for (std::uint32_t cores : {2u, 4u}) {
      for (std::uint64_t seed : {1u, 2u}) {
        const FuzzCase fc =
            fault_case(kind, cores, kSchedules[(k + seed) % 4], seed);
        const ConformanceVerdict v = run_fuzz_case(fc);
        EXPECT_TRUE(v.ok) << to_string(kind) << " cores=" << cores
                          << " seed=" << seed << "\n"
                          << v.summary() << "\nrepro: fuzz_gc " << fc.summary();
        ASSERT_TRUE(v.report.recovery.has_value()) << v.summary();
        fired += v.report.recovery->faults_fired;
      }
    }
  }
  EXPECT_GT(fired, 0u) << "the matrix must actually exercise fault firings";
}

TEST(FaultMatrix, MixedClassPlansRecover) {
  // All classes enabled at once: several unrelated faults interacting in
  // one collection must still end in a verified or recovered heap.
  for (std::uint64_t seed : {3u, 7u, 13u}) {
    FuzzCase fc = fault_case(FaultKind::kMemDrop, 4,
                             SchedulePolicyKind::kRandom, seed);
    fc.harness.fault.class_mask = 0xffffffffu;
    fc.harness.fault.events = 6;
    const ConformanceVerdict v = run_fuzz_case(fc);
    EXPECT_TRUE(v.ok) << v.summary() << "\nrepro: fuzz_gc " << fc.summary();
  }
}

TEST(FaultMatrix, FaultRunsAreReproducible) {
  // Same case → identical recovery trajectory, attempt for attempt. This
  // is what makes every fault_lab cell a one-line reproducer.
  const FuzzCase fc =
      fault_case(FaultKind::kCoreFailStop, 4, SchedulePolicyKind::kRotating, 5);
  const ConformanceVerdict va = run_fuzz_case(fc);
  const ConformanceVerdict vb = run_fuzz_case(fc);
  ASSERT_TRUE(va.ok) << va.summary();
  ASSERT_TRUE(vb.ok) << vb.summary();
  const RecoveryReport& a = *va.report.recovery;
  const RecoveryReport& b = *vb.report.recovery;
  ASSERT_EQ(a.attempts.size(), b.attempts.size());
  for (std::size_t i = 0; i < a.attempts.size(); ++i) {
    EXPECT_EQ(a.attempts[i].success, b.attempts[i].success);
    EXPECT_EQ(a.attempts[i].cycles, b.attempts[i].cycles);
    EXPECT_EQ(a.attempts[i].faults_fired, b.attempts[i].faults_fired);
  }
  EXPECT_EQ(a.fault_log, b.fault_log);
  EXPECT_EQ(a.deconfigured, b.deconfigured);
}

}  // namespace
}  // namespace hwgc
