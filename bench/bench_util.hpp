// Shared helpers for the benchmark harness binaries.
//
// paper_grid, bench_baselines_software and bench_concurrent share the flag
// table in add_options (`--help`). --scale=1.0 is paper-sized; the paper
// notes heap size has little influence on the relative results, which
// `paper_grid --experiment=heapsize` checks.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "core/coprocessor.hpp"
#include "profile/cycle_profiler.hpp"
#include "sim/config.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc::bench {

struct Options {
  double scale = 0.25;
  std::uint64_t seed = 42;
  std::vector<BenchmarkId> benchmarks = all_benchmarks();
  bool bench_given = false;  ///< --bench appeared
};

/// Declares the shared flags on `p`, writing into `opt`.
inline void add_options(cli::Parser& p, Options& opt) {
  p.value("--scale F", opt.scale,
          "live-set scale factor (default 0.25; 1 = paper size)")
      .value("--seed N", opt.seed, "workload seed (default 42)")
      .option("--bench a,b,..", "subset of benchmarks to run (default all)",
              [&opt](const std::string& what, const std::string& token) {
                opt.bench_given = true;
                return cli::parse_list(
                    what, token, opt.benchmarks,
                    cli::one_of(all_benchmarks(), benchmark_name));
              });
}

inline Options parse_options(int argc, char** argv) {
  Options opt;
  const std::string prog = argv[0];
  cli::Parser p(prog.substr(prog.find_last_of('/') + 1), "[options]");
  add_options(p, opt);
  p.parse(argc, argv);
  return opt;
}

/// Runs one collection cycle of `w` under `cfg`. With `profile` non-null
/// the cycle runs under the stall-attribution profiler and leaves its
/// CycleProfile there (simulated cycle counts are identical either way).
inline GcCycleStats run_collection(const Workload& w, SimConfig cfg,
                                   CycleProfile* profile = nullptr) {
  cfg.heap.semispace_words = w.heap->layout().semispace_words();
  Coprocessor coproc(cfg, *w.heap);
  if (profile == nullptr) return coproc.collect();
  CycleProfiler profiler;
  const GcCycleStats stats =
      coproc.collect(nullptr, nullptr, nullptr, nullptr, &profiler);
  *profile = profiler.take_profile();
  return stats;
}

inline void print_header(std::string_view title, const Options& opt) {
  std::printf("## %.*s\n", static_cast<int>(title.size()), title.data());
  std::printf("## scale=%.3g seed=%llu (paper-sized heaps: --scale=1)\n\n",
              opt.scale, static_cast<unsigned long long>(opt.seed));
}

}  // namespace hwgc::bench
