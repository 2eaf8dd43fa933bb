// Shared helpers for the benchmark harness binaries.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (Section VI) and prints it in a comparable layout. All of
// them share the flag table in parse_options (`--help`). --scale=1.0 is
// paper-sized; the paper notes heap size has little influence on the
// relative results, which bench_heapsize_ablation checks.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "core/coprocessor.hpp"
#include "profile/cycle_profiler.hpp"
#include "sim/config.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc::bench {

struct Options {
  double scale = 0.25;
  std::uint64_t seed = 42;
  std::vector<BenchmarkId> benchmarks = all_benchmarks();
  bool json = false;
  std::string json_path;  ///< empty: BENCH_<suite>.json
  bool profile_json = false;
  std::string profile_json_path;  ///< empty: BENCH_<suite>_profile.json
};

inline Options parse_options(int argc, char** argv) {
  Options opt;
  const std::string prog = argv[0];
  cli::Parser p(prog.substr(prog.find_last_of('/') + 1), "[options]");
  p.value("--scale F", opt.scale,
          "live-set scale factor (default 0.25; 1 = paper size)")
      .value("--seed N", opt.seed, "workload seed (default 42)")
      .list("--bench a,b,..", opt.benchmarks,
            "subset of benchmarks to run (default all)",
            cli::one_of(all_benchmarks(), benchmark_name))
      .optional("--json[=PATH]", opt.json, opt.json_path,
                "also write the metrics as hwgc-bench-v1 JSONL\n"
                "(default path BENCH_<suite>.json)")
      .optional("--profile-json[=PATH]", opt.profile_json,
                opt.profile_json_path,
                "write per-configuration stall attribution as\n"
                "hwgc-profile-v1 JSONL (default path\n"
                "BENCH_<suite>_profile.json)");
  p.parse(argc, argv);
  return opt;
}

/// Builds the workload fresh and runs one collection cycle under `cfg`.
/// With `profile` non-null the cycle runs under the stall-attribution
/// profiler and leaves its CycleProfile there (simulated cycle counts are
/// identical either way).
inline GcCycleStats run_collection(BenchmarkId id, const Options& opt,
                                   SimConfig cfg,
                                   CycleProfile* profile = nullptr) {
  Workload w = make_benchmark(id, opt.scale, opt.seed);
  cfg.heap.semispace_words = w.heap->layout().semispace_words();
  Coprocessor coproc(cfg, *w.heap);
  if (profile == nullptr) return coproc.collect();
  CycleProfiler profiler;
  const GcCycleStats stats =
      coproc.collect(nullptr, nullptr, nullptr, nullptr, &profiler);
  *profile = profiler.take_profile();
  return stats;
}

inline void print_header(const char* title, const Options& opt) {
  std::printf("## %s\n", title);
  std::printf("## scale=%.3g seed=%llu (paper-sized heaps: --scale=1)\n\n",
              opt.scale, static_cast<unsigned long long>(opt.seed));
}

/// Registry key for one measured configuration of this run.
inline MetricsRegistry::Key metrics_key(BenchmarkId id, std::uint32_t cores,
                                        const Options& opt) {
  MetricsRegistry::Key key;
  key.benchmark = std::string(benchmark_name(id));
  key.cores = cores;
  key.scale = opt.scale;
  key.seed = opt.seed;
  return key;
}

/// Writes the registry as BENCH_<suite>.json (or --json=path) when --json
/// was requested. Returns false after printing a diagnostic on I/O failure,
/// so callers can turn it into a nonzero exit code.
inline bool maybe_write_jsonl(const MetricsRegistry& reg, const Options& opt,
                              const std::string& suite) {
  if (!opt.json) return true;
  const std::string path =
      opt.json_path.empty() ? "BENCH_" + suite + ".json" : opt.json_path;
  if (!reg.write_jsonl(path, suite)) {
    std::fprintf(stderr, "error: failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %zu metric record(s) to %s\n", reg.size(), path.c_str());
  return true;
}

/// Writes pre-rendered hwgc-profile-v1 JSONL when --profile-json was
/// requested (default path BENCH_<suite>_profile.json). Same error
/// contract as maybe_write_jsonl.
inline bool maybe_write_profile_jsonl(const std::string& jsonl,
                                      const Options& opt,
                                      const std::string& suite) {
  if (!opt.profile_json) return true;
  const std::string path = opt.profile_json_path.empty()
                               ? "BENCH_" + suite + "_profile.json"
                               : opt.profile_json_path;
  std::ofstream f(path, std::ios::binary);
  if (f) f.write(jsonl.data(), static_cast<std::streamsize>(jsonl.size()));
  if (!f || !f.flush().good()) {
    std::fprintf(stderr, "error: failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote profile attribution to %s\n", path.c_str());
  return true;
}

}  // namespace hwgc::bench
