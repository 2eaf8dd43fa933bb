// Concurrent collection (Section V-B's "next step", combined with the
// hardware read barrier of the authors' prior real-time work).
//
// Compares, per benchmark at 8 cores:
//   * stop-the-world: the main processor is paused for the whole cycle
//     (the paper's measured configuration) — pause = cycle length;
//   * concurrent: the main processor keeps executing through the read
//     barrier — pause = its longest barrier wait.
// Also reports the mutator's throughput and barrier activity during the
// concurrent cycle.
#include <cstdio>

#include "bench_util.hpp"
#include "core/concurrent_cycle.hpp"

int main(int argc, char** argv) {
  using namespace hwgc;
  using namespace hwgc::bench;
  Options opt = parse_options(argc, argv);
  print_header("Concurrent vs stop-the-world collection (8 cores)", opt);

  std::printf("%-10s %12s %12s %12s | %9s %10s %10s\n", "benchmark",
              "stw pause", "conc cycle", "conc pause", "mut ops",
              "gray reads", "mut evacs");
  for (BenchmarkId id : opt.benchmarks) {
    SimConfig stw;
    stw.coprocessor.num_cores = 8;
    const GcCycleStats stop_world =
        run_collection(make_benchmark(id, opt.scale, opt.seed), stw);

    Workload w = make_benchmark(id, opt.scale, opt.seed);
    ConcurrentCycle::Config cfg;
    cfg.sim = stw;
    cfg.op_spacing = 2;
    ConcurrentCycle cycle(cfg, *w.heap);
    const ConcurrentStats s = cycle.run();
    if (s.validation_mismatches != 0) {
      std::fprintf(stderr, "VALIDATION FAILED for %s\n",
                   std::string(benchmark_name(id)).c_str());
      return 1;
    }
    std::printf("%-10s %12llu %12llu %12llu | %9llu %10llu %10llu\n",
                std::string(benchmark_name(id)).c_str(),
                static_cast<unsigned long long>(stop_world.total_cycles),
                static_cast<unsigned long long>(s.gc.total_cycles),
                static_cast<unsigned long long>(s.longest_pause),
                static_cast<unsigned long long>(s.mutator_ops),
                static_cast<unsigned long long>(s.barrier_gray_reads),
                static_cast<unsigned long long>(s.barrier_evacuations));
    std::fflush(stdout);
  }
  std::printf("\n(the concurrent mutator's worst pause is the cost of one "
              "barrier operation — orders of magnitude below the cycle "
              "length the stop-the-world configuration pays)\n");
  return 0;
}
