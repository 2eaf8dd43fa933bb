// gcsim — the command-line front end to the coprocessor simulator.
//
// Runs one collection cycle of any workload under any configuration and
// prints the full measurement report (all counters behind the paper's
// Tables I/II), optionally as CSV for scripting.
//
// Flags and defaults: `gcsim --help`. --profile prints the critical-path
// summary (binding resource, knee run) and the per-class cycle shares;
// with --trace-json the binding stream is merged into the timeline as
// "crit:" notes (ignored by --concurrent). --trace-json exports phases,
// per-core activity/stall spans, lock holds, FIFO/memory counters and the
// merged signal samples as Chrome-trace JSON (load in ui.perfetto.dev).
#include <cstdio>
#include <optional>
#include <string>

#include "cli/flags.hpp"
#include "core/concurrent_cycle.hpp"
#include "core/coprocessor.hpp"
#include "heap/verifier.hpp"
#include "profile/critical_path.hpp"
#include "profile/profile_metrics.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_export.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_graph.hpp"

using namespace hwgc;

namespace {

struct CliOptions {
  std::string workload = "db";
  std::optional<BenchmarkId> benchmark = BenchmarkId::kDb;  ///< else random
  std::uint64_t random_seed = 0;  ///< the <seed> of --workload=random:<seed>
  double scale = 0.25;
  std::uint64_t seed = 42;
  SimConfig sim;
  bool concurrent = false;
  bool csv = false;
  bool profile = false;
  bool verify = false;
  std::string trace_json;  ///< empty: no timeline export
  std::string bench_json;  ///< empty: no metrics export
};

/// --workload: a benchmark name, or random:<seed>.
std::string parse_workload(const std::string& what, const std::string& token,
                           CliOptions& o) {
  o.workload = token;
  o.benchmark.reset();
  if (token.rfind("random:", 0) == 0) {
    return cli::parse_u64(what + " random:<seed>", token.substr(7),
                          o.random_seed, 0, UINT64_MAX);
  }
  for (BenchmarkId id : all_benchmarks()) {
    if (benchmark_name(id) == token) o.benchmark = id;
  }
  if (o.benchmark) return "";
  return "unknown value \"" + token + "\" for " + what +
         " (need a benchmark name or random:<seed>)";
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  o.sim.coprocessor.num_cores = 8;
  cli::Parser p("gcsim", "[options]");
  p.option("--workload NAME", "compress|cup|db|javac|javacc|jflex|jlisp|"
           "search\nor random:<seed> (default db)",
           [&o](const std::string& what, const std::string& token) {
             return parse_workload(what, token, o);
           })
      .value("--scale F", o.scale, "live-set scale (default 0.25)")
      .value("--seed N", o.seed, "workload seed (default 42)")
      .value("--cores N", o.sim.coprocessor.num_cores,
             "GC cores, 1..16+ (default 8)", cli::cores())
      .value("--latency N", o.sim.memory.latency,
             "body memory latency in cycles (default 4)")
      .value("--header-latency N", o.sim.memory.header_latency,
             "header transaction latency (default 10)")
      .value("--bandwidth N", o.sim.memory.bandwidth_per_cycle,
             "accepted requests/cycle (default 4)")
      .value("--fifo N", o.sim.coprocessor.header_fifo_capacity,
             "header FIFO capacity (default 32768)")
      .value("--header-cache N", o.sim.memory.header_cache_entries,
             "header cache entries (default 0 = off)")
      .flag("--early-read", o.sim.coprocessor.markbit_early_read,
            "enable the mark-bit early-read optimization")
      .flag("--subobject", o.sim.coprocessor.subobject_copy,
            "enable cache-line-granularity copying")
      .flag("--concurrent", o.concurrent,
            "run the mutator concurrently (read barrier)")
      .flag("--csv", o.csv, "one CSV row instead of the report")
      .flag("--profile", o.profile, "per-cycle stall attribution")
      .flag("--verify", o.verify,
            "check the heap against a pre-cycle snapshot")
      .value("--trace-json PATH", o.trace_json,
             "export the cycle's timeline as Chrome-trace JSON")
      .value("--bench-json PATH", o.bench_json,
             "emit the run's metrics as hwgc-bench-v2 JSONL");
  p.parse(argc, argv);
  return o;
}

Workload build(const CliOptions& o) {
  if (o.benchmark) return make_benchmark(*o.benchmark, o.scale, o.seed);
  RandomGraphConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(2000 * o.scale * 4);
  return materialize(make_random_plan(o.random_seed, cfg));
}

void print_report(const CliOptions& o, const GcCycleStats& s) {
  if (o.csv) {
    std::printf("workload,cores,cycles,objects,words,empty_frac,scan_stall,"
                "free_stall,hdrlock_stall,bodyload_stall,bodystore_stall,"
                "hdrload_stall,hdrstore_stall,fifo_hits,fifo_misses,"
                "fifo_overflows,mem_requests\n");
    std::printf("%s,%u,%llu,%llu,%llu,%.6f", o.workload.c_str(),
                o.sim.coprocessor.num_cores,
                static_cast<unsigned long long>(s.total_cycles),
                static_cast<unsigned long long>(s.objects_copied),
                static_cast<unsigned long long>(s.words_copied),
                s.worklist_empty_fraction());
    for (const StallReason r :
         {StallReason::kScanLock, StallReason::kFreeLock,
          StallReason::kHeaderLock, StallReason::kBodyLoad,
          StallReason::kBodyStore, StallReason::kHeaderLoad,
          StallReason::kHeaderStore}) {
      std::printf(",%.0f", s.mean_stall(r));
    }
    std::printf(",%llu,%llu,%llu,%llu\n",
                static_cast<unsigned long long>(s.fifo_hits),
                static_cast<unsigned long long>(s.fifo_misses),
                static_cast<unsigned long long>(s.fifo_overflows),
                static_cast<unsigned long long>(s.mem_requests));
    return;
  }
  std::printf("collection cycle: %llu clock cycles (%s, %s)\n",
              static_cast<unsigned long long>(s.total_cycles),
              o.workload.c_str(), o.sim.summary().c_str());
  std::printf("  objects copied     : %llu (%llu words)\n",
              static_cast<unsigned long long>(s.objects_copied),
              static_cast<unsigned long long>(s.words_copied));
  std::printf("  pointers forwarded : %llu\n",
              static_cast<unsigned long long>(s.pointers_forwarded));
  std::printf("  worklist empty     : %.2f%% of cycles\n",
              100.0 * s.worklist_empty_fraction());
  std::printf("  header FIFO        : %llu hits, %llu misses, %llu overflows\n",
              static_cast<unsigned long long>(s.fifo_hits),
              static_cast<unsigned long long>(s.fifo_misses),
              static_cast<unsigned long long>(s.fifo_overflows));
  std::printf("  memory requests    : %llu\n",
              static_cast<unsigned long long>(s.mem_requests));
  std::printf("  mean stalls/core (%% of cycle):\n");
  for (const StallReason r :
       {StallReason::kScanLock, StallReason::kFreeLock,
        StallReason::kHeaderLock, StallReason::kBodyLoad,
        StallReason::kBodyStore, StallReason::kHeaderLoad,
        StallReason::kHeaderStore}) {
    std::printf("    %-12s %10.0f (%5.2f%%)\n",
                std::string(to_string(r)).c_str(), s.mean_stall(r),
                100.0 * s.mean_stall(r) /
                    static_cast<double>(s.total_cycles));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);
  Workload w = build(o);
  std::printf("workload %s: %llu live objects, %llu live words, semispace "
              "%u words\n",
              o.workload.c_str(),
              static_cast<unsigned long long>(w.live_objects),
              static_cast<unsigned long long>(w.live_words),
              w.heap->layout().semispace_words());

  if (o.concurrent) {
    ConcurrentCycle::Config cfg;
    cfg.sim = o.sim;
    ConcurrentCycle cycle(cfg, *w.heap);
    const ConcurrentStats s = cycle.run();
    print_report(o, s.gc);
    std::printf("  --- concurrent mutator ---\n");
    std::printf("  ops executed       : %llu (%llu allocations)\n",
                static_cast<unsigned long long>(s.mutator_ops),
                static_cast<unsigned long long>(s.mutator_allocations));
    std::printf("  barrier activity   : %llu gray reads, %llu evacuations\n",
                static_cast<unsigned long long>(s.barrier_gray_reads),
                static_cast<unsigned long long>(s.barrier_evacuations));
    std::printf("  longest pause      : %llu cycles\n",
                static_cast<unsigned long long>(s.longest_pause));
    std::printf("  shadow validation  : %zu mismatches\n",
                s.validation_mismatches);
    return s.validation_mismatches == 0 ? 0 : 1;
  }

  const HeapSnapshot pre =
      o.verify ? HeapSnapshot::capture(*w.heap) : HeapSnapshot{};
  Coprocessor coproc(o.sim, *w.heap);
  TelemetryBus bus;
  SignalTrace signals;
  CycleProfiler profiler;
  const bool tracing = !o.trace_json.empty();
  const GcCycleStats s =
      coproc.collect(tracing ? &signals : nullptr, nullptr, nullptr,
                     tracing ? &bus : nullptr, o.profile ? &profiler : nullptr);
  print_report(o, s);
  if (o.profile) {
    const CycleProfile p = profiler.take_profile();
    std::printf("  critical path      : %s\n",
                critical_path(p).summary().c_str());
    ProfileAttribution attr;
    attr.source = o.workload;
    attr.add(p);
    std::printf("  cycle attribution (%% of core cycles):\n");
    for (std::size_t k = 0; k < kStallClassCount; ++k) {
      const StallClass cls = static_cast<StallClass>(k);
      if (attr.cls[k] == 0) continue;
      std::printf("    %-19s %12llu (%5.2f%%)\n",
                  std::string(to_string(cls)).c_str(),
                  static_cast<unsigned long long>(attr.cls[k]),
                  100.0 * attr.share(cls));
    }
    if (tracing) annotate_critical_path(signals, p);
  }
  if (o.verify) {
    const VerifyResult res = verify_collection(pre, *w.heap);
    std::printf("verifier: %s\n", res.summary().c_str());
    if (!res.ok) return 1;
  }
  if (tracing) {
    ChromeTraceOptions topt;
    topt.signals = &signals;
    if (!write_chrome_trace(bus, o.trace_json, topt)) {
      std::fprintf(stderr, "error: failed to write %s\n", o.trace_json.c_str());
      return 1;
    }
    std::printf("wrote timeline (%zu spans, %zu instants, %zu counter "
                "samples) to %s\n",
                bus.spans().size(), bus.instants().size(),
                bus.counters().size(), o.trace_json.c_str());
  }
  if (!o.bench_json.empty()) {
    MetricsRegistry reg;
    MetricsRegistry::Key key;
    key.benchmark = o.workload;
    key.cores = o.sim.coprocessor.num_cores;
    key.scale = o.scale;
    key.seed = o.seed;
    reg.record(key, o.sim, s);
    if (!reg.write_jsonl(o.bench_json, "gcsim")) {
      std::fprintf(stderr, "error: failed to write %s\n", o.bench_json.c_str());
      return 1;
    }
    std::printf("wrote metrics record to %s\n", o.bench_json.c_str());
  }
  return 0;
}
