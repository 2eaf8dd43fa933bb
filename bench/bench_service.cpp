// Benchmarks for the multi-tenant heap service — two modes in one binary.
//
// Default (no --json): google-benchmark microbenches of the dispatch path,
// as before. These keep the SERVICE layer honest the same way
// bench_simulator_microbench keeps the cycle loop honest.
//
// --json[=path] [--requests=N] [--shards=N] [--min-speedup=F]: the CI
// perf-baseline harness. Runs an 8-shard closed-loop sweep twice on a
// memory-latency-bound configuration — the reference engine (one host
// thread, fast-forward off) and the tuned engine (fast-forward on) — and
// reports host-side throughput: simulated-cycles/second and
// requests/second. Both runs must produce identical simulated results
// (the fast-forward and parallel-conductor equivalence the test suite
// enforces); the harness exits nonzero if they diverge, and, with
// --min-speedup, if the tuned engine's simulated-cycles/sec gain falls
// short. Records land as hwgc-bench-v2 JSONL (schema fields from
// MetricsRegistry plus appended host_* / *_per_sec throughput fields —
// the schema is append-only, so bench_validate accepts them).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "service/heap_service.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace hwgc;

ServiceConfig service_config(std::size_t shards, GcSchedulerKind sched) {
  ServiceConfig cfg;
  cfg.shards = shards;
  cfg.semispace_words = 4096;
  cfg.sim.coprocessor.num_cores = 4;
  cfg.oracle = false;  // measure the dispatch path, not snapshotting
  cfg.scheduler = sched;
  return cfg;
}

void report(benchmark::State& state, const HeapService& service,
            std::uint64_t requests) {
  const SloStats fleet = service.fleet_stats();
  state.counters["req/s"] = benchmark::Counter(
      static_cast<double>(requests) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["sim_p99_clk"] =
      static_cast<double>(fleet.latency.percentile(0.99));
  state.counters["collections"] = static_cast<double>(fleet.collections);
}

/// Full dispatch path, reactive policy, scaling in shard count.
void BM_ServeReactive(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kRequests = 2000;
  std::uint64_t total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    HeapService service(service_config(shards, GcSchedulerKind::kReactive));
    state.ResumeTiming();
    service.serve(kRequests);
    total += kRequests;
    benchmark::DoNotOptimize(service.fleet_stats().completed);
    state.PauseTiming();
    report(state, service, kRequests);
    state.ResumeTiming();
  }
  (void)total;
}
BENCHMARK(BM_ServeReactive)->Arg(1)->Arg(4)->Arg(8);

/// Scheduler-policy comparison at a fixed fleet size.
void BM_ServeScheduler(benchmark::State& state) {
  const auto kind = static_cast<GcSchedulerKind>(state.range(0));
  constexpr std::uint64_t kRequests = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    HeapService service(service_config(4, kind));
    state.ResumeTiming();
    service.serve(kRequests);
    benchmark::DoNotOptimize(service.fleet_stats().completed);
    state.PauseTiming();
    report(state, service, kRequests);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ServeScheduler)
    ->Arg(static_cast<int>(GcSchedulerKind::kReactive))
    ->Arg(static_cast<int>(GcSchedulerKind::kProactive))
    ->Arg(static_cast<int>(GcSchedulerKind::kRoundRobin));

/// The oracle's cost: same run with per-cycle snapshot + post-structure
/// verification switched on.
void BM_ServeWithOracle(benchmark::State& state) {
  constexpr std::uint64_t kRequests = 1000;
  for (auto _ : state) {
    state.PauseTiming();
    ServiceConfig cfg = service_config(4, GcSchedulerKind::kProactive);
    cfg.oracle = true;
    HeapService service(cfg);
    state.ResumeTiming();
    service.serve(kRequests);
    benchmark::DoNotOptimize(service.fleet_stats().oracle_failures);
  }
}
BENCHMARK(BM_ServeWithOracle);

/// The resilience layer's cost on the dispatch path: supervision joins the
/// home lane and runs the health state machine on every request; arg 1
/// adds a quarter-fleet fault storm with failover routing on top. Compare
/// against BM_ServeReactive/4 for the supervision-off baseline.
void BM_ServeResilient(benchmark::State& state) {
  const bool stormed = state.range(0) != 0;
  constexpr std::uint64_t kRequests = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    ServiceConfig cfg = service_config(4, GcSchedulerKind::kReactive);
    cfg.resilience.supervise = true;
    cfg.resilience.deadline_cycles = 1u << 16;
    if (stormed) {
      cfg.storm.shard_fraction = 0.25;
      cfg.storm.events_per_collection = 2;
    }
    HeapService service(cfg);
    state.ResumeTiming();
    service.serve(kRequests);
    benchmark::DoNotOptimize(service.fleet_stats().completed);
    state.PauseTiming();
    report(state, service, kRequests);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ServeResilient)->Arg(0)->Arg(1);

// --- CI perf-baseline harness (--json mode) --------------------------------

struct SweepOptions {
  std::size_t shards = 8;
  std::uint64_t requests = 6000;
  double min_speedup = 0.0;  ///< 0 = report only, no gate
  std::string json_path = "BENCH_service.json";
};

/// The measured configuration: closed-loop sessions driving every shard,
/// few cores and Figure-6 memory latency so collections are dominated by
/// quiescent memory-wait windows — the regime fast-forward targets (and
/// the regime a small heap per shard keeps collections frequent in).
ServiceConfig sweep_config(const SweepOptions& opt, std::size_t host_threads,
                           bool fast_forward) {
  ServiceConfig cfg;
  cfg.shards = opt.shards;
  cfg.semispace_words = 4096;
  cfg.oracle = false;
  cfg.scheduler = GcSchedulerKind::kReactive;
  cfg.traffic.open_loop = false;
  cfg.traffic.sessions = static_cast<std::uint32_t>(4 * opt.shards);
  cfg.sim.coprocessor.num_cores = 2;
  cfg.sim.memory.latency = 200;
  cfg.sim.memory.header_latency = 500;
  cfg.host_threads = host_threads;
  cfg.sim.coprocessor.fast_forward = fast_forward;
  return cfg;
}

struct SweepResult {
  double elapsed_sec = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t collections = 0;
  Cycle sim_gc_cycles = 0;    ///< simulated cycles spent collecting
  Cycle virtual_cycles = 0;   ///< end-to-end simulated latency volume
  std::vector<GcCycleStats> samples;  ///< one per collection, every shard

  double requests_per_sec() const {
    return elapsed_sec > 0.0 ? static_cast<double>(completed) / elapsed_sec
                             : 0.0;
  }
  double sim_cycles_per_sec() const {
    return elapsed_sec > 0.0
               ? static_cast<double>(sim_gc_cycles) / elapsed_sec
               : 0.0;
  }
};

SweepResult run_sweep(const ServiceConfig& cfg, std::uint64_t requests) {
  HeapService service(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  service.serve(requests);
  const auto t1 = std::chrono::steady_clock::now();
  SweepResult r;
  r.elapsed_sec = std::chrono::duration<double>(t1 - t0).count();
  const SloStats fleet = service.fleet_stats();
  r.completed = fleet.completed;
  r.collections = fleet.collections;
  r.sim_gc_cycles = fleet.gc_cycle_total;
  r.virtual_cycles = fleet.latency.sum();
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const auto& history = service.runtime(s).gc_history();
    r.samples.insert(r.samples.end(), history.begin(), history.end());
  }
  return r;
}

/// Inserts extra fields into each JSONL line just before its closing '}',
/// keyed by the line's "benchmark" value. The hwgc-bench-v2 schema is
/// append-only, so the validator accepts the result.
std::string append_fields(
    const std::string& jsonl,
    const std::map<std::string, std::string>& extras_by_benchmark) {
  std::string out;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t eol = jsonl.find('\n', pos);
    if (eol == std::string::npos) eol = jsonl.size();
    std::string line = jsonl.substr(pos, eol - pos);
    for (const auto& [bench, extra] : extras_by_benchmark) {
      if (line.find("\"benchmark\":\"" + bench + "\"") != std::string::npos &&
          !line.empty() && line.back() == '}') {
        line.pop_back();
        line += extra + "}";
        break;
      }
    }
    out += line + "\n";
    pos = eol + 1;
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string throughput_fields(const SweepResult& r, std::size_t host_threads,
                              bool fast_forward) {
  std::string extra;
  extra += ",\"host_elapsed_sec\":" + fmt(r.elapsed_sec);
  extra += ",\"host_threads\":" + std::to_string(host_threads);
  extra += ",\"fast_forward\":" + std::to_string(fast_forward ? 1 : 0);
  extra += ",\"requests_completed\":" + std::to_string(r.completed);
  extra += ",\"requests_per_sec\":" + fmt(r.requests_per_sec());
  extra += ",\"sim_gc_cycles\":" + std::to_string(r.sim_gc_cycles);
  extra += ",\"sim_cycles_per_sec\":" + fmt(r.sim_cycles_per_sec());
  return extra;
}

int run_perf_baseline(const SweepOptions& opt) {
  std::printf("## hwgc perf baseline: %zu-shard closed-loop sweep, %llu"
              " requests\n",
              opt.shards, static_cast<unsigned long long>(opt.requests));

  const ServiceConfig base_cfg = sweep_config(opt, 1, false);
  const ServiceConfig tuned_cfg = sweep_config(opt, 1, true);
  const SweepResult base = run_sweep(base_cfg, opt.requests);
  const SweepResult tuned = run_sweep(tuned_cfg, opt.requests);

  // The tuned engine must be an optimization, not a different simulation:
  // identical simulated outcome or the numbers mean nothing.
  if (base.completed != tuned.completed ||
      base.collections != tuned.collections ||
      base.sim_gc_cycles != tuned.sim_gc_cycles ||
      base.virtual_cycles != tuned.virtual_cycles) {
    std::fprintf(stderr,
                 "error: tuned run diverged from baseline "
                 "(completed %llu vs %llu, collections %llu vs %llu, "
                 "gc cycles %llu vs %llu)\n",
                 static_cast<unsigned long long>(base.completed),
                 static_cast<unsigned long long>(tuned.completed),
                 static_cast<unsigned long long>(base.collections),
                 static_cast<unsigned long long>(tuned.collections),
                 static_cast<unsigned long long>(base.sim_gc_cycles),
                 static_cast<unsigned long long>(tuned.sim_gc_cycles));
    return 1;
  }

  const double speedup = base.elapsed_sec > 0.0 && tuned.elapsed_sec > 0.0
                             ? base.elapsed_sec / tuned.elapsed_sec
                             : 0.0;
  std::printf("  baseline (ticked):       %8.3f s  %12.0f sim-cycles/s"
              "  %9.0f req/s\n",
              base.elapsed_sec, base.sim_cycles_per_sec(),
              base.requests_per_sec());
  std::printf("  tuned (fast-forward):    %8.3f s  %12.0f sim-cycles/s"
              "  %9.0f req/s\n",
              tuned.elapsed_sec, tuned.sim_cycles_per_sec(),
              tuned.requests_per_sec());
  std::printf("  speedup: %.2fx (simulated results bit-identical; %llu"
              " collections, %llu simulated GC cycles)\n",
              speedup, static_cast<unsigned long long>(base.collections),
              static_cast<unsigned long long>(base.sim_gc_cycles));

  // hwgc-bench-v2 records: one per engine, aggregated over every
  // collection on every shard, with appended throughput fields.
  MetricsRegistry reg;
  const auto record_all = [&reg](const char* name, const ServiceConfig& cfg,
                                 const SweepResult& r) {
    MetricsRegistry::Key key;
    key.benchmark = name;
    key.cores = cfg.sim.coprocessor.num_cores;
    key.scale = static_cast<double>(cfg.shards);
    key.seed = cfg.traffic.seed;
    for (const GcCycleStats& s : r.samples) reg.record(key, cfg.sim, s);
  };
  record_all("service-closed-loop-baseline", base_cfg, base);
  record_all("service-closed-loop-tuned", tuned_cfg, tuned);

  std::map<std::string, std::string> extras;
  extras["service-closed-loop-baseline"] =
      throughput_fields(base, base_cfg.host_threads, false);
  extras["service-closed-loop-tuned"] =
      throughput_fields(tuned, tuned_cfg.host_threads, true) +
      ",\"speedup_vs_ticked\":" + fmt(speedup);
  const std::string jsonl = append_fields(reg.to_jsonl("service"), extras);

  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", opt.json_path.c_str());
    return 1;
  }
  std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  std::fclose(f);
  std::printf("wrote %zu metric record(s) to %s\n", reg.size(),
              opt.json_path.c_str());

  if (opt.min_speedup > 0.0 && speedup < opt.min_speedup) {
    std::fprintf(stderr,
                 "error: fast-forward speedup %.2fx below required %.2fx\n",
                 speedup, opt.min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark takes its --benchmark_* flags first and the sweep
  // flags are what it leaves. --help waits until both have parsed.
  char** const end = std::remove_if(argv + 1, argv + argc, [](const char* a) {
    return std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0;
  });
  const bool help = end != argv + argc;
  argc = static_cast<int>(end - argv);
  benchmark::Initialize(&argc, argv);
  SweepOptions opt;
  bool json_mode = false;
  cli::Parser p("bench_service", "[--json[=PATH] [options]]");
  p.optional("--json[=PATH]", json_mode, opt.json_path,
             "run the perf-baseline sweep instead of the\n"
             "microbenches and write its records (default path\n"
             "BENCH_service.json)")
      .value("--shards N", opt.shards, "sweep fleet size (default 8)")
      .value("--requests N", opt.requests, "sweep requests (default 6000)")
      .value("--min-speedup F", opt.min_speedup,
             "fail below this fast-forward speedup (default 0 =\n"
             "no gate)");
  p.parse(argc, argv);
  if (help) {
    std::printf("%smicrobench mode takes google-benchmark's flags:\n",
                p.usage().c_str());
    benchmark::PrintDefaultHelp();
    return 0;
  }
  if (json_mode) return run_perf_baseline(opt);

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
