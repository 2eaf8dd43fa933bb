// Cross-collector conformance matrix: every collector in the repository,
// over a shared random-graph corpus, through the property oracle of
// src/conformance/conformance.hpp. 216 configurations in total — six
// stop-the-world collectors x 8 graph seeds x 4 thread counts, plus the
// concurrent cycle x 8 seeds x 3 core counts.
#include <gtest/gtest.h>

#include <sstream>

#include "conformance/conformance.hpp"
#include "conformance/harness.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

TEST(Harness, NamesRoundTrip) {
  const auto ids = all_collectors();
  ASSERT_EQ(ids.size(), kCollectorCount);
  ASSERT_EQ(kCollectorCount, 7u);
  for (CollectorId id : ids) {
    const auto parsed = parse_collector(to_string(id));
    ASSERT_TRUE(parsed.has_value()) << to_string(id);
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_FALSE(parse_collector("no-such-collector").has_value());
  EXPECT_FALSE(parse_collector("").has_value());
}

TEST(Harness, TraitsMatchCollectorContracts) {
  EXPECT_TRUE(traits_of(CollectorId::kSequential).cheney_order);
  EXPECT_TRUE(traits_of(CollectorId::kSequential).dense);
  EXPECT_TRUE(traits_of(CollectorId::kCoprocessor).dense);
  EXPECT_TRUE(traits_of(CollectorId::kCoprocessor).deterministic);
  EXPECT_TRUE(traits_of(CollectorId::kNaive).dense);
  EXPECT_TRUE(traits_of(CollectorId::kPackets).dense);
  EXPECT_FALSE(traits_of(CollectorId::kChunked).dense);
  EXPECT_FALSE(traits_of(CollectorId::kStealing).dense);
  EXPECT_FALSE(traits_of(CollectorId::kConcurrent).preserves_image);
  for (CollectorId id : all_collectors()) {
    const CollectorTraits t = traits_of(id);
    // Only single-threaded collectors can promise Cheney order or
    // counter determinism; the threaded ones run real preemptible
    // std::threads.
    if (t.cheney_order) {
      EXPECT_FALSE(t.threaded) << to_string(id);
    }
    if (t.threaded) {
      EXPECT_FALSE(t.deterministic) << to_string(id);
    }
  }
}

TEST(Harness, FactoryBuildsEveryCollector) {
  for (CollectorId id : all_collectors()) {
    const auto h = make_harness(id);
    ASSERT_NE(h, nullptr) << to_string(id);
    EXPECT_EQ(h->id(), id);
    EXPECT_STREQ(h->name(), to_string(id));
  }
}

TEST(Harness, ReportCarriesFamilyPayload) {
  RandomGraphConfig g;
  g.nodes = 40;
  ConformanceCase c;
  c.plan = make_random_plan(3, g);
  Workload w = materialize(c.plan, 2.0);
  const CycleReport r = make_harness(CollectorId::kStealing)->collect(*w.heap);
  ASSERT_TRUE(r.parallel.has_value());
  EXPECT_FALSE(r.coproc || r.sequential || r.concurrent);
  EXPECT_EQ(r.parallel->objects_copied, r.objects_copied);
  EXPECT_GT(r.sync_ops, 0u);
}

struct MatrixParam {
  CollectorId id;
  std::uint64_t seed;
  std::uint32_t threads;
};

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  std::ostringstream os;
  os << to_string(info.param.id) << "_s" << info.param.seed << "_t"
     << info.param.threads;
  return os.str();
}

class ConformanceMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ConformanceMatrix, CollectorPassesOracle) {
  const MatrixParam p = GetParam();
  RandomGraphConfig g;
  g.nodes = 120;
  ConformanceCase c;
  c.plan = make_random_plan(p.seed, g);
  c.harness.threads = p.threads;
  c.harness.schedule_seed = p.seed;
  c.harness.mutator_seed = p.seed;
  const ConformanceVerdict v = run_conformance_case(p.id, c);
  EXPECT_TRUE(v.ok) << v.summary();
  EXPECT_GT(v.live_objects, 0u);
  EXPECT_EQ(v.report.objects_copied, v.report.evacuations);
}

std::vector<MatrixParam> matrix_params() {
  std::vector<MatrixParam> params;
  constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};
  // The six stop-the-world collectors sweep 1..8 threads/cores (the
  // sequential reference ignores the knob but stays in the matrix as the
  // fixed point every width must agree with).
  constexpr std::uint32_t kThreads[] = {1, 2, 4, 8};
  for (CollectorId id : all_collectors()) {
    if (id == CollectorId::kConcurrent) continue;
    for (std::uint64_t seed : kSeeds) {
      for (std::uint32_t t : kThreads) params.push_back({id, seed, t});
    }
  }
  // The concurrent cycle: 1, 2 and 8 GC cores racing the mutator.
  for (std::uint64_t seed : kSeeds) {
    for (std::uint32_t t : {1u, 2u, 8u}) {
      params.push_back({CollectorId::kConcurrent, seed, t});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllCollectors, ConformanceMatrix,
                         ::testing::ValuesIn(matrix_params()), matrix_name);

}  // namespace
}  // namespace hwgc
