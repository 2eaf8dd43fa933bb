// Calibration guards: the qualitative claims EXPERIMENTS.md makes about
// each benchmark's shape must keep holding as the simulator evolves.
// These run at small scale (the shapes are scale-stable, which
// `paper_grid --experiment=heapsize` demonstrates for heap size and the
// paper asserts for workload size).
#include <gtest/gtest.h>

#include "core/coprocessor.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc {
namespace {

double speedup(BenchmarkId id, std::uint32_t cores, double scale = 0.05) {
  Workload base = make_benchmark(id, scale);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 1;
  Coprocessor c1(cfg, *base.heap);
  const double seq = static_cast<double>(c1.collect().total_cycles);

  Workload par = make_benchmark(id, scale);
  cfg.coprocessor.num_cores = cores;
  Coprocessor cn(cfg, *par.heap);
  return seq / static_cast<double>(cn.collect().total_cycles);
}

TEST(Calibration, ParallelRichBenchmarksScaleTo8Cores) {
  // Paper Figure 5: up to 7.4x at 8 cores.
  EXPECT_GT(speedup(BenchmarkId::kDb, 8), 6.5);
  EXPECT_GT(speedup(BenchmarkId::kJavacc, 8), 6.5);
  EXPECT_GT(speedup(BenchmarkId::kJflex, 8), 6.5);
}

TEST(Calibration, ParallelRichBenchmarksScaleTo16Cores) {
  // Paper Figure 5: up to 12.1x at 16 cores.
  EXPECT_GT(speedup(BenchmarkId::kDb, 16), 10.0);
  EXPECT_GT(speedup(BenchmarkId::kJavacc, 16), 10.0);
}

TEST(Calibration, CompressPlateausEarly) {
  const double at4 = speedup(BenchmarkId::kCompress, 4);
  const double at16 = speedup(BenchmarkId::kCompress, 16);
  EXPECT_LT(at16, 4.0) << "compress must not scale (linear graph)";
  EXPECT_LT(at16 - at4, 0.5) << "compress must be flat beyond 4 cores";
}

TEST(Calibration, SearchBarelyScales) {
  EXPECT_LT(speedup(BenchmarkId::kSearch, 16), 2.2);
}

TEST(Calibration, JavacScalesWorstAmongParallelRich) {
  // Header-lock contention must cost javac visibly against db.
  const double javac = speedup(BenchmarkId::kJavac, 16);
  const double db = speedup(BenchmarkId::kDb, 16);
  EXPECT_GT(javac, 7.0) << "javac still scales reasonably (paper)";
  EXPECT_LT(javac, db - 1.0) << "but pays for its hot hubs";
}

TEST(Calibration, Figure6LatencyImprovesEveryParallelBenchmark) {
  for (BenchmarkId id : {BenchmarkId::kDb, BenchmarkId::kJavacc}) {
    Workload b1 = make_benchmark(id, 0.05);
    Workload b16 = make_benchmark(id, 0.05);
    SimConfig cfg;
    cfg.memory.latency += 20;
    cfg.memory.header_latency += 20;
    cfg.coprocessor.num_cores = 1;
    Coprocessor c1(cfg, *b1.heap);
    const double seq = static_cast<double>(c1.collect().total_cycles);
    cfg.coprocessor.num_cores = 16;
    Coprocessor cn(cfg, *b16.heap);
    const double sp = seq / static_cast<double>(cn.collect().total_cycles);
    EXPECT_GT(sp, speedup(id, 16) + 1.0) << benchmark_name(id);
  }
}

TEST(Calibration, TotalsOrderingMatchesPaper) {
  // Paper Table II "Total" @16 cores orders the workloads (searchA ≈
  // compress at the top ... jlisp tiny at the bottom). Check the robust
  // parts of that ordering.
  auto total = [&](BenchmarkId id) {
    Workload w = make_benchmark(id, 0.05);
    SimConfig cfg;
    cfg.coprocessor.num_cores = 16;
    Coprocessor c(cfg, *w.heap);
    return c.collect().total_cycles;
  };
  const Cycle search = total(BenchmarkId::kSearch);
  const Cycle compress = total(BenchmarkId::kCompress);
  const Cycle javac = total(BenchmarkId::kJavac);
  const Cycle javacc = total(BenchmarkId::kJavacc);
  const Cycle jlisp = total(BenchmarkId::kJlisp);
  EXPECT_GT(search, javac);
  EXPECT_GT(compress, javacc);
  EXPECT_GT(javac, javacc);
  EXPECT_LT(jlisp, javacc / 4);
}

}  // namespace
}  // namespace hwgc
