// hwgc_bench — the repository's benchmark: one workload per process,
// measured on both clocks (simulated cycles and host time).
//
//   hwgc_bench --workload=fig5|fig6-observed|heapd-churn|heapd-replay
//              [--seed=N] [--seconds=S] [--quick] [--traces=DIR]
//              [--trace-spans=DIR]
//
// A run discards one warm-up rep, then repeats a fixed amount of work (one
// "rep") until --seconds of measurement have elapsed. End-to-end host times
// take each unit of work at its fastest rep (see minima()), scaled to a
// reference host speed (see HostClock). Every layer is timed from outside,
// around calls to public functions; inside HeapService::serve() a
// forwarding proxy around each shard's CollectionObserver splits every
// collection into snapshot, collect and oracle time without touching src/.
//
// Output: one "e2e <workload> <metric> <value> <unit> n=<samples>" line per
// end-to-end metric, in a traced run also one "layer ..." line per
// per-layer metric, then, as the last line, one JSON object holding the
// same metrics plus the attempted/failed operation counts. Exit status 0
// when every output checked correct, 1 otherwise, 2 on a usage error.
//
// --trace-spans=DIR makes the run a traced run: measured reps alternate
// between traced and untraced (trace_overhead compares the two), spans are
// kept in memory and written to DIR/<workload>.spans.json in Chrome-trace
// format when the run ends, and every fig config (or the heapd fleet) is
// timed once more with fast-forward off for core.ff_speedup.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/coprocessor.hpp"
#include "heap/verifier.hpp"
#include "profile/critical_path.hpp"
#include "profile/cycle_profiler.hpp"
#include "profile/profile_metrics.hpp"
#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"
#include "sim/trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry_bus.hpp"
#include "telemetry/trace_export.hpp"
#include "trace/trace_format.hpp"
#include "workloads/benchmarks.hpp"

namespace {

using namespace hwgc;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Host clock. A shared host's speed drifts with what its other tenants run:
// over 5 minutes on a 4-vCPU Xeon VM the fastest javac collection of each
// 15 s window moved by 15% (interquartile range over windows), while its
// ratio to the fastest run of the loop below moved by 2%. So every host
// time is reported at a reference speed: measured seconds x
// kReferenceLoopS / (fastest loop run this process saw). The loop runs
// between units of work, and it is the benchmark's own code, so a change
// to the simulator cannot move it.

/// Fastest calibration_loop_s() on the reference host (the VM above).
constexpr double kReferenceLoopS = 0.002;

/// Dependent loads over 128 KiB (past L1, inside L2) interleaved with an
/// xorshift chain and a data-dependent branch, roughly the simulator's mix.
double calibration_loop_s() {
  constexpr std::uint32_t kSlots = 1u << 15;
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) v[i] = i;
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(v[i], v[static_cast<std::uint32_t>(s >> 33) % i]);
    }
    return v;
  }();
  const Clock::time_point b = Clock::now();
  std::uint32_t p = 0;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 400000; ++i) {
    p = next[p];
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += (x & 3) == 0 ? x >> 3 : p;
  }
  const double s = secs(b, Clock::now());
  asm volatile("" : : "r"(acc));  // keep the loop
  return s;
}

struct HostClock {
  double fastest_loop_s = 1e9;
  std::size_t samples = 0;

  void sample() {
    fastest_loop_s = std::min(fastest_loop_s, calibration_loop_s());
    ++samples;
  }
  /// Multiplies measured host seconds into reference seconds.
  double factor() const { return kReferenceLoopS / fastest_loop_s; }
};

// ---------------------------------------------------------------------------
// Options

enum class Kind { kFig5, kFig6Observed, kHeapdChurn, kHeapdReplay };

struct Options {
  Kind kind = Kind::kFig5;
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool quick = false;
  std::string traces_dir = "gcbench/traces";
  std::string spans_dir;  ///< non-empty: traced run
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "hwgc_bench: %s\nusage: hwgc_bench --workload=fig5|"
               "fig6-observed|heapd-churn|heapd-replay [--seed=N] "
               "[--seconds=S] [--quick] [--traces=DIR] [--trace-spans=DIR]\n",
               msg.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* key) -> const char* {
      const std::size_t n = std::char_traits<char>::length(key);
      return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v2 = value("--seed=")) {
      o.seed = std::strtoull(v2, &end, 10);
      if (*v2 == '\0' || *end != '\0') usage_error("malformed --seed");
    } else if (const char* v3 = value("--seconds=")) {
      o.seconds = std::strtod(v3, &end);
      if (*v3 == '\0' || *end != '\0' || !(o.seconds > 0)) {
        usage_error("malformed --seconds");
      }
    } else if (const char* v4 = value("--traces=")) {
      o.traces_dir = v4;
    } else if (const char* v5 = value("--trace-spans=")) {
      o.spans_dir = v5;
      if (o.spans_dir.empty()) usage_error("empty --trace-spans directory");
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      usage_error("unknown option " + a);
    }
  }
  if (o.workload == "fig5") {
    o.kind = Kind::kFig5;
  } else if (o.workload == "fig6-observed") {
    o.kind = Kind::kFig6Observed;
  } else if (o.workload == "heapd-churn") {
    o.kind = Kind::kHeapdChurn;
  } else if (o.workload == "heapd-replay") {
    o.kind = Kind::kHeapdReplay;
  } else {
    usage_error("unknown --workload \"" + o.workload + "\"");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, id, parent id and rep id, kept in memory and
// written once at the end. Ids are 1-based indices into the log; 0 is "no
// span" (the parent of the root, and every id while tracing is off).

struct Span {
  const char* name = "";
  Clock::time_point begin;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t rep = 0;
  std::uint32_t tid = 0;  ///< 0 = main thread, 1 + shard = shard lane
};

class SpanLog {
 public:
  bool on = false;
  std::uint64_t rep = 0;

  std::uint64_t add(const char* name, Clock::time_point b, Clock::time_point e,
                    std::uint64_t parent, std::uint32_t tid = 0) {
    if (!on) return 0;
    spans_.push_back({name, b, e, spans_.size() + 1, parent, rep, tid});
    return spans_.size();
  }
  std::uint64_t open(const char* name, std::uint64_t parent) {
    const Clock::time_point now = Clock::now();
    return add(name, now, now, parent);
  }
  void close(std::uint64_t id) {
    if (id != 0) spans_[id - 1].end = Clock::now();
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Runs `fn`, records it as span `name` under `parent` when tracing, and
/// returns its host seconds (timed whether or not tracing is on).
template <class Fn>
double timed(SpanLog& log, const char* name, std::uint64_t parent, Fn&& fn) {
  const Clock::time_point b = Clock::now();
  fn();
  const Clock::time_point e = Clock::now();
  log.add(name, b, e, parent);
  return secs(b, e);
}

/// Per-layer self time of one rep: each span's duration minus the union of
/// its children's intervals, summed per layer. Layers group span names by
/// role, so every workload reports every layer.
const char* layer_of(const std::string& span) {
  static const std::map<std::string, const char*> kLayer = {
      {"make_benchmark", "setup.self_s"},
      {"load_trace", "setup.self_s"},
      {"HeapService", "setup.self_s"},
      {"collect", "core.collect_s"},
      {"snapshot", "heap.snapshot_s"},
      {"verify_collection", "conformance.oracle_s"},
      {"oracle", "conformance.oracle_s"},
      {"validate_all_shards", "conformance.oracle_s"},
      {"chrome_trace_json", "telemetry.export_s"},
      {"critical_path", "telemetry.export_s"},
      {"profile_attribution_jsonl", "telemetry.export_s"},
      {"registry_jsonl", "telemetry.export_s"},
      {"service_report_jsonl", "telemetry.export_s"},
      {"calibrate", "host_clock.self_s"},
  };
  const auto it = kLayer.find(span);
  return it == kLayer.end() ? "dispatch.self_s" : it->second;
}

struct SelfTimes {
  std::map<std::string, double> by_span;   ///< span name -> self seconds
  std::map<std::string, double> by_layer;  ///< layer metric -> self seconds
};

SelfTimes self_times(const std::vector<Span>& spans, std::uint64_t rep) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.rep == rep && s.parent != 0) children[s.parent].push_back(&s);
  }
  SelfTimes out;
  for (const Span& s : spans) {
    if (s.rep != rep) continue;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (const Span* c : children[s.id]) {
      iv.emplace_back(std::max(c->begin, s.begin), std::min(c->end, s.end));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    Clock::time_point cur = s.begin;
    for (const auto& [b, e] : iv) {
      const Clock::time_point from = std::max(b, cur);
      if (e > from) {
        covered += secs(from, e);
        cur = e;
      }
    }
    const double self = std::max(0.0, secs(s.begin, s.end) - covered);
    out.by_span[s.name] += self;
    out.by_layer[layer_of(s.name)] += self;
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point origin) {
  std::string out = "{\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"rep\":%llu}}%s\n",
                  s.name, s.tid, 1e6 * secs(origin, s.begin),
                  1e6 * secs(s.begin, s.end),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.rep),
                  i + 1 < spans.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  std::ofstream f(path, std::ios::binary);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  return f.flush().good();
}

// ---------------------------------------------------------------------------
// Simulated counters, summed over every collection of a rep.

struct SimTotals {
  std::uint64_t collections = 0;
  Cycle total_cycles = 0;
  Cycle core_cycles = 0;  ///< sum of cores x cycles (share denominator)
  Cycle busy = 0;
  Cycle idle = 0;
  std::array<Cycle, kStallReasonCount> stalls{};
  std::uint64_t objects = 0;
  std::uint64_t words = 0;
  std::uint64_t mem_requests = 0;
  std::uint64_t fifo_hits = 0;
  std::uint64_t fifo_misses = 0;
  std::uint64_t fifo_overflows = 0;
  Cycle drain_cycles = 0;

  void add(const GcCycleStats& s) {
    ++collections;
    total_cycles += s.total_cycles;
    core_cycles += s.total_cycles * s.per_core.size();
    for (const CoreCounters& c : s.per_core) {
      busy += c.busy_cycles;
      idle += c.idle_cycles;
      for (std::size_t r = 0; r < kStallReasonCount; ++r) {
        stalls[r] += c.stalls[r];
      }
    }
    objects += s.objects_copied;
    words += s.words_copied;
    mem_requests += s.mem_requests;
    fifo_hits += s.fifo_hits;
    fifo_misses += s.fifo_misses;
    fifo_overflows += s.fifo_overflows;
    drain_cycles += s.drain_cycles;
  }
  double share(Cycle v) const {
    return core_cycles == 0 ? 0.0
                            : static_cast<double>(v) /
                                  static_cast<double>(core_cycles);
  }
  double stall_share(StallReason r) const {
    return share(stalls[static_cast<std::size_t>(r)]);
  }
};

/// FNV-1a over the simulated results of a rep: reps must agree bit for bit.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const GcCycleStats& s) {
    add(s.total_cycles);
    add(s.worklist_empty_cycles);
    add(s.objects_copied);
    add(s.words_copied);
    add(s.mem_requests);
    add(s.fifo_hits);
    add(s.fifo_overflows);
    add(s.drain_cycles);
    for (const CoreCounters& c : s.per_core) {
      add(c.busy_cycles);
      for (Cycle v : c.stalls) add(v);
    }
  }
};

// ---------------------------------------------------------------------------
// One rep's results. Every rep repeats bit-identical work, so entry i of a
// per-unit vector is the same computation in every rep; the host-time
// metrics take each entry's fastest rep (see minima()).

struct Rep {
  bool traced = false;
  double wall_s = 0;
  /// Host seconds of each unit of work, in rep order: a fig config, or a
  /// heapd set-up, serve() chunk or closing check. They tile the rep.
  std::vector<double> unit_s;
  std::vector<double> setup_s;      ///< each make_benchmark, or heapd set-up
  std::vector<double> serve_s;      ///< heapd: host seconds of each chunk
  std::vector<double> collect_s;    ///< host seconds of each collection
  std::vector<double> core_cycles;  ///< its simulated cycles x cores
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  SimTotals sim;
  double export_mb = 0;
  std::uint64_t bus_events = 0;
  double sim_span_s = 0;  ///< host seconds inside simulation spans
  double sim_parent_s = 0;  ///< wall of the spans that contain them
  // fig only
  double scale = 0;
  double speedup_16c = 0;
  double fidelity_err_pp = 0;
  // heapd only
  SloStats fleet;
};

void note_failure(const char* what, const std::string& detail) {
  std::fprintf(stderr, "hwgc_bench: %s: %s\n", what, detail.c_str());
}

// ---------------------------------------------------------------------------
// fig5 / fig6-observed: the paper's Fig. 5/6 grid, 8 shapes x {1..16} cores.

/// The paper's 16-core cells already cited in the repo, in percent: Table I
/// empty-worklist share per shape (EXPERIMENTS.md) and the Table II stall
/// shares (bench_table2_stall_breakdown.cpp).
struct PaperCell {
  BenchmarkId id;
  StallReason reason;  ///< kNone: Table I worklist-empty share
  double percent;
};
constexpr PaperCell kPaper16[] = {
    {BenchmarkId::kCompress, StallReason::kNone, 99.72},
    {BenchmarkId::kCup, StallReason::kNone, 0.10},
    {BenchmarkId::kDb, StallReason::kNone, 0.06},
    {BenchmarkId::kJavac, StallReason::kNone, 0.08},
    {BenchmarkId::kJavacc, StallReason::kNone, 5.34},
    {BenchmarkId::kJflex, StallReason::kNone, 35.35},
    {BenchmarkId::kJlisp, StallReason::kNone, 2.59},
    {BenchmarkId::kSearch, StallReason::kNone, 99.76},
    {BenchmarkId::kJavac, StallReason::kHeaderLock, 29.4},
    {BenchmarkId::kCup, StallReason::kScanLock, 10.5},
    {BenchmarkId::kCup, StallReason::kHeaderLoad, 38.6},
    {BenchmarkId::kDb, StallReason::kHeaderLoad, 33.0},
    {BenchmarkId::kDb, StallReason::kBodyLoad, 21.0},
};

struct FigSpec {
  double scale;
  bool observed;  ///< fig6-observed: bus + profiler + signals + exports
  MemoryConfig memory;
  std::vector<std::uint32_t> cores;
};

/// Scales keep one rep at a few host seconds, so a run holds enough reps
/// for minima(): on a 4-vCPU Xeon VM fig5 at 0.05 (the scale of the
/// committed BENCH_fig5.json) takes about 1.5 s, and fig6-observed at 0.01
/// about 5.5 s (below 0.01 the generators' minimum sizes dominate; at 0.05
/// a rep takes 9 s). Larger fig5 heaps spill out of L2, where the host
/// clock calibration tracks the simulator less well.
/// --quick keeps the 1- and 16-core columns, which every metric needs.
FigSpec fig_spec(const Options& o) {
  FigSpec f{};
  f.observed = o.kind == Kind::kFig6Observed;
  if (f.observed) {
    f.scale = o.quick ? 0.0025 : 0.01;
    f.memory.latency += 20;
    f.memory.header_latency += 20;
  } else {
    f.scale = o.quick ? 0.02 : 0.05;
  }
  f.cores = o.quick ? std::vector<std::uint32_t>{1, 16}
                    : std::vector<std::uint32_t>{1, 2, 4, 8, 16};
  return f;
}

SimConfig fig_config(const FigSpec& f, std::uint32_t cores) {
  SimConfig cfg;
  cfg.coprocessor.num_cores = cores;
  cfg.memory = f.memory;
  return cfg;
}

Rep run_fig_rep(const Options& o, const FigSpec& f, HostClock& clock,
                SpanLog& log, std::uint64_t rep_span) {
  Rep r;
  r.scale = f.scale;
  Digest digest;
  MetricsRegistry registry;
  std::map<std::pair<BenchmarkId, std::uint32_t>, GcCycleStats> grid;
  for (BenchmarkId id : all_benchmarks()) {
    for (std::uint32_t cores : f.cores) {
      ++r.attempted;
      const Clock::time_point cfg_begin = Clock::now();
      const std::uint64_t cfg_span = log.open("config", rep_span);
      SimConfig cfg = fig_config(f, cores);
      try {
        Workload w;
        r.setup_s.push_back(timed(log, "make_benchmark", cfg_span, [&] {
          w = make_benchmark(id, f.scale, o.seed);
        }));
        cfg.heap.semispace_words = w.heap->layout().semispace_words();
        HeapSnapshot pre;
        r.sim_span_s += timed(log, "snapshot", cfg_span,
                              [&] { pre = HeapSnapshot::capture(*w.heap); });
        Coprocessor coproc(cfg, *w.heap);
        TelemetryBus bus;
        SignalTrace signals;
        CycleProfiler profiler;
        GcCycleStats stats;
        const double collect_s = timed(log, "collect", cfg_span, [&] {
          stats = f.observed ? coproc.collect(&signals, nullptr, nullptr, &bus,
                                              &profiler)
                             : coproc.collect();
        });
        r.sim_span_s += collect_s;
        VerifyResult vr;
        r.sim_span_s += timed(log, "verify_collection", cfg_span,
                              [&] { vr = verify_collection(pre, *w.heap); });
        bool ok = vr.ok;
        if (!vr.ok) note_failure("verify", vr.summary());
        if (f.observed) {
          const CycleProfile profile = profiler.take_profile();
          std::string err;
          if (!validate_cycle_profile(profile, &err)) {
            ok = false;
            note_failure("validate_cycle_profile", err);
          }
          timed(log, "critical_path", cfg_span, [&] {
            (void)critical_path(profile);
            annotate_critical_path(signals, profile);
          });
          timed(log, "chrome_trace_json", cfg_span, [&] {
            ChromeTraceOptions topt;
            topt.signals = &signals;
            r.export_mb += static_cast<double>(
                               chrome_trace_json(bus, topt).size()) /
                           1e6;
          });
          r.bus_events += bus.spans().size() + bus.instants().size() +
                          bus.counters().size();
          timed(log, "profile_attribution_jsonl", cfg_span, [&] {
            ProfileAttribution attr;
            attr.source = std::string(benchmark_name(id)) + "/" +
                          std::to_string(cores) + "c";
            attr.add(profile);
            r.export_mb += static_cast<double>(
                               profile_attribution_jsonl(attr, "fig6_observed")
                                   .size()) /
                           1e6;
          });
        }
        if (!ok) ++r.failed;
        MetricsRegistry::Key key;
        key.benchmark = std::string(benchmark_name(id));
        key.cores = cores;
        key.scale = f.scale;
        key.seed = o.seed;
        registry.record(key, cfg, stats);
        r.collect_s.push_back(collect_s);
        r.core_cycles.push_back(static_cast<double>(stats.total_cycles) *
                                cores);
        r.sim.add(stats);
        digest.add(stats);
        grid[{id, cores}] = std::move(stats);
      } catch (const std::exception& e) {
        ++r.failed;
        note_failure("fig config", e.what());
      }
      log.close(cfg_span);
      r.unit_s.push_back(secs(cfg_begin, Clock::now()));
      r.sim_parent_s += r.unit_s.back();
      timed(log, "calibrate", rep_span, [&] { clock.sample(); });
    }
  }
  if (!f.observed) {
    r.unit_s.push_back(timed(log, "registry_jsonl", rep_span, [&] {
      r.export_mb +=
          static_cast<double>(registry.to_jsonl("fig5_scaling").size()) / 1e6;
    }));
  }
  r.digest = digest.h;

  for (BenchmarkId id : all_benchmarks()) {
    const auto one = grid.find({id, 1});
    const auto sixteen = grid.find({id, 16});
    if (one == grid.end() || sixteen == grid.end() ||
        sixteen->second.total_cycles == 0) {
      continue;
    }
    r.speedup_16c = std::max(
        r.speedup_16c, static_cast<double>(one->second.total_cycles) /
                           static_cast<double>(sixteen->second.total_cycles));
  }
  double err = 0;
  std::size_t cells = 0;
  for (const PaperCell& c : kPaper16) {
    const auto it = grid.find({c.id, 16});
    if (it == grid.end() || it->second.total_cycles == 0) continue;
    const GcCycleStats& s = it->second;
    const double measured =
        c.reason == StallReason::kNone
            ? 100.0 * s.worklist_empty_fraction()
            : 100.0 * s.mean_stall(c.reason) /
                  static_cast<double>(s.total_cycles);
    err += std::fabs(measured - c.percent);
    ++cells;
  }
  r.fidelity_err_pp = cells == 0 ? 0.0 : err / static_cast<double>(cells);
  return r;
}

/// Host seconds of every fig collection run without observers, with
/// fast-forward on and off; also checks the two give identical cycles.
struct FfProbe {
  double ff_s = 0;
  double ticked_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

FfProbe probe_fig_fast_forward(const Options& o, const FigSpec& f) {
  FfProbe p;
  for (BenchmarkId id : all_benchmarks()) {
    for (std::uint32_t cores : f.cores) {
      ++p.attempted;
      try {
        Cycle cycles[2] = {0, 0};
        for (int ticked = 0; ticked < 2; ++ticked) {
          Workload w = make_benchmark(id, f.scale, o.seed);
          SimConfig cfg = fig_config(f, cores);
          cfg.heap.semispace_words = w.heap->layout().semispace_words();
          cfg.coprocessor.fast_forward = ticked == 0;
          Coprocessor coproc(cfg, *w.heap);
          const Clock::time_point b = Clock::now();
          cycles[ticked] = coproc.collect().total_cycles;
          (ticked == 0 ? p.ff_s : p.ticked_s) += secs(b, Clock::now());
        }
        if (cycles[0] != cycles[1]) {
          ++p.failed;
          note_failure("fast-forward", "ticked and fast-forwarded cycles differ");
        }
      } catch (const std::exception& e) {
        ++p.failed;
        note_failure("fast-forward probe", e.what());
      }
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// heapd-churn / heapd-replay: an 8-shard HeapService in open loop.

/// Forwards a shard's own CollectionObserver (the service's oracle and
/// stall accounting) and timestamps both callbacks, which splits each
/// collection into snapshot (before_collection), collect (between the
/// callbacks) and oracle (after_collection) host time. A shard's callbacks
/// only ever run on that shard's pool lane, one at a time, so the sample
/// buffer needs no lock; it is read after serve() has joined every lane.
class ObserverProxy final : public CollectionObserver {
 public:
  struct Sample {
    Clock::time_point t0, t1, t2, t3;
    double core_cycles = 0;
  };

  explicit ObserverProxy(CollectionObserver* inner) : inner_(inner) {}
  ObserverProxy(const ObserverProxy&) = delete;
  ObserverProxy& operator=(const ObserverProxy&) = delete;

  void before_collection(Runtime& rt) override {
    pending_.t0 = Clock::now();
    inner_->before_collection(rt);
    pending_.t1 = Clock::now();
  }
  void after_collection(Runtime& rt, const GcCycleStats& s) override {
    pending_.t2 = Clock::now();
    inner_->after_collection(rt, s);
    pending_.t3 = Clock::now();
    pending_.core_cycles = static_cast<double>(s.total_cycles) *
                           static_cast<double>(s.per_core.size());
    samples.push_back(pending_);
  }

  std::vector<Sample> samples;

 private:
  CollectionObserver* inner_;
  Sample pending_{};
};

struct HeapdSpec {
  std::uint64_t requests;  ///< per rep
  std::size_t host_threads;
  std::vector<std::string> trace_files;  ///< empty: seeded churn
};

HeapdSpec heapd_spec(const Options& o) {
  HeapdSpec h{};
  if (o.kind == Kind::kHeapdReplay) {
    h.requests = o.quick ? 4000 : 40000;
    h.host_threads = 3;
    for (const char* name : {"bench_compress", "bench_db", "bench_javac",
                             "bench_javacc", "bench_jflex", "bench_jlisp",
                             "bench_search", "churn"}) {
      h.trace_files.push_back(o.traces_dir + "/" + name + ".jsonl");
    }
  } else {
    // The churn live set grows with requests per shard: at 80k requests 2
    // of seeds 71-400 exhaust an 8192-word shard (see README.md), at 64k
    // none of seeds 0-999. --quick still reaches the first collections.
    h.requests = o.quick ? 40000 : 64000;
    h.host_threads = 1;
  }
  return h;
}

ServiceConfig heapd_config(const Options& o, const HeapdSpec& h,
                           std::shared_ptr<const std::vector<Trace>> traces) {
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.semispace_words = 8192;
  cfg.sim.coprocessor.num_cores = 4;
  cfg.traffic.seed = o.seed;
  cfg.traffic.sessions = 64;
  cfg.traffic.open_loop = true;
  cfg.traffic.load = 1.0;
  cfg.scheduler = GcSchedulerKind::kReactive;
  cfg.oracle = true;
  cfg.host_threads = h.host_threads;
  cfg.traces = std::move(traces);
  return cfg;
}

/// A service plus the proxies wrapped around its shards' observers. The
/// service is declared last so it is destroyed before the proxies it
/// points to.
struct Fleet {
  std::vector<std::unique_ptr<ObserverProxy>> proxies;
  std::unique_ptr<HeapService> service;

  void install_proxies() {
    for (std::size_t i = 0; i < service->shard_count(); ++i) {
      Runtime& rt = service->runtime(i);
      proxies.push_back(
          std::make_unique<ObserverProxy>(rt.collection_observer()));
      rt.set_collection_observer(proxies.back().get());
    }
  }
};

/// Serves `requests`, counting what an exception leaves unserved as failed.
/// Returns the number of failed requests.
std::uint64_t serve_guarded(HeapService& svc, std::uint64_t requests) {
  const std::uint64_t before = svc.requests_offered();
  try {
    svc.serve(requests);
  } catch (const std::exception& e) {
    note_failure("serve", e.what());
    const std::uint64_t done = svc.requests_offered() - before;
    return requests - std::min(done, requests) + 1;
  }
  return 0;
}

/// Failures the fleet reports for itself: rejected and failed requests,
/// oracle findings, read mismatches and cross-shard shadow mismatches.
std::uint64_t fleet_failures(HeapService& svc, const SloStats& fleet) {
  std::uint64_t f = fleet.rejected + fleet.failed + fleet.oracle_failures +
                    fleet.read_mismatches + fleet.checkpoint_digest_failures;
  const std::size_t mismatches = svc.validate_all_shards();
  if (mismatches > 0) {
    note_failure("validate_all_shards",
                 std::to_string(mismatches) + " shadow mismatch(es)");
  }
  for (std::size_t i = 0; i < svc.shard_count(); ++i) {
    for (const std::string& d : svc.oracle_diagnostics(i)) {
      note_failure("oracle", d);
    }
  }
  return f + mismatches;
}

std::shared_ptr<const std::vector<Trace>> load_traces(const HeapdSpec& h) {
  if (h.trace_files.empty()) return nullptr;
  auto traces = std::make_shared<std::vector<Trace>>();
  for (const std::string& f : h.trace_files) traces->push_back(load_trace(f));
  return traces;
}

Rep run_heapd_rep(const Options& o, const HeapdSpec& h, HostClock& clock,
                  SpanLog& log, std::uint64_t rep_span) {
  // serve() is called in chunks so that each chunk is a unit of work whose
  // fastest rep minima() can pick.
  constexpr std::uint64_t kServeChunks = 20;
  Rep r;
  Fleet fleet;
  double setup_s = 0;
  try {
    std::shared_ptr<const std::vector<Trace>> traces;
    setup_s += timed(log, "load_trace", rep_span,
                     [&] { traces = load_traces(h); });
    setup_s += timed(log, "HeapService", rep_span, [&] {
      fleet.service =
          std::make_unique<HeapService>(heapd_config(o, h, traces));
    });
  } catch (const std::exception& e) {
    note_failure("heapd setup", e.what());
    r.attempted = r.failed = h.requests;
    return r;
  }
  r.setup_s.push_back(setup_s);
  r.unit_s.push_back(setup_s);
  fleet.install_proxies();
  HeapService& svc = *fleet.service;

  const std::uint64_t serve_span = log.open("serve", rep_span);
  std::uint64_t lost = 0;
  for (std::uint64_t k = 0; k < kServeChunks; ++k) {
    const std::uint64_t n =
        h.requests / kServeChunks + (k < h.requests % kServeChunks ? 1 : 0);
    if (lost > 0) {  // after a failure the rest of the rep counts as failed
      lost += n;
      continue;
    }
    const Clock::time_point b = Clock::now();
    lost = serve_guarded(svc, n);
    r.serve_s.push_back(secs(b, Clock::now()));
    r.unit_s.push_back(r.serve_s.back());
    r.sim_parent_s += r.serve_s.back();
    timed(log, "calibrate", serve_span, [&] { clock.sample(); });
  }
  log.close(serve_span);

  const Clock::time_point tail_begin = Clock::now();
  for (std::size_t shard = 0; shard < fleet.proxies.size(); ++shard) {
    for (const ObserverProxy::Sample& s : fleet.proxies[shard]->samples) {
      r.collect_s.push_back(secs(s.t1, s.t2));
      r.core_cycles.push_back(s.core_cycles);
      r.sim_span_s += secs(s.t0, s.t3);
      if (!log.on) continue;
      const auto tid = static_cast<std::uint32_t>(shard + 1);
      const std::uint64_t c = log.add("collection", s.t0, s.t3, serve_span, tid);
      log.add("snapshot", s.t0, s.t1, c, tid);
      log.add("collect", s.t1, s.t2, c, tid);
      log.add("oracle", s.t2, s.t3, c, tid);
    }
  }

  r.fleet = svc.fleet_stats();
  Digest digest;
  for (std::size_t i = 0; i < svc.shard_count(); ++i) {
    for (const GcCycleStats& s : svc.runtime(i).gc_history()) {
      r.sim.add(s);
      digest.add(s);
    }
  }
  digest.add(r.fleet.completed);
  digest.add(r.fleet.latency.sum());
  digest.add(r.fleet.latency.percentile(0.999));
  digest.add(r.fleet.queue_cycles);
  digest.add(r.fleet.stall_cycles);
  r.digest = digest.h;

  std::uint64_t failures = 0;
  timed(log, "validate_all_shards", rep_span,
        [&] { failures = fleet_failures(svc, r.fleet); });
  timed(log, "service_report_jsonl", rep_span, [&] {
    r.export_mb +=
        static_cast<double>(service_report_jsonl(svc, "hwgc_bench").size()) /
        1e6;
  });
  r.attempted = h.requests + r.sim.collections;
  r.failed = std::min(r.attempted, lost + failures);
  r.unit_s.push_back(secs(tail_begin, Clock::now()));
  return r;
}

/// Highest offered load in {1, 1.5, ..., 4}, every lower load passing too,
/// whose p99 latency is at most 1024 cycles and whose second half of the
/// run has a mean queue delay at most twice the first half's (the fleet
/// keeps up without a growing backlog). Halves, not tenths: the shards'
/// live sets grow in step, so collections arrive in fleet-wide bursts of
/// 7-8, and the first two tenths of a run hold none.
struct LoadSweep {
  double max_load = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

LoadSweep sweep_max_load(const Options& o, const HeapdSpec& h) {
  constexpr Cycle kP99Bound = 1024;
  LoadSweep out;
  const std::uint64_t half = h.requests / 2;
  for (double load = 1.0; load <= 4.0; load += 0.5) {
    ServiceConfig cfg = heapd_config(o, h, nullptr);
    cfg.traffic.load = load;
    HeapService svc(cfg);
    std::uint64_t lost = serve_guarded(svc, half);
    const SloStats mid = svc.fleet_stats();
    lost += lost > 0 ? half : serve_guarded(svc, half);
    const SloStats last = svc.fleet_stats();
    out.attempted += 2 * half + last.collections;
    out.failed += lost + fleet_failures(svc, last);
    if (lost > 0) break;
    const double first_half = static_cast<double>(mid.queue_cycles) /
                              static_cast<double>(mid.completed);
    const double second_half =
        static_cast<double>(last.queue_cycles - mid.queue_cycles) /
        static_cast<double>(last.completed - mid.completed);
    if (last.latency.percentile(0.99) > kP99Bound ||
        second_half > 2.0 * first_half) {
      break;
    }
    out.max_load = load;
  }
  return out;
}

FfProbe probe_heapd_fast_forward(const Options& o, const HeapdSpec& h) {
  FfProbe p;
  std::uint64_t digests[2] = {0, 0};
  for (int ticked = 0; ticked < 2; ++ticked) {
    ServiceConfig cfg = heapd_config(o, h, load_traces(h));
    cfg.sim.coprocessor.fast_forward = ticked == 0;
    Fleet fleet;
    fleet.service = std::make_unique<HeapService>(cfg);
    fleet.install_proxies();
    p.attempted += h.requests;
    p.failed += serve_guarded(*fleet.service, h.requests);
    Digest d;
    for (std::size_t i = 0; i < fleet.proxies.size(); ++i) {
      for (const ObserverProxy::Sample& s : fleet.proxies[i]->samples) {
        (ticked == 0 ? p.ff_s : p.ticked_s) += secs(s.t1, s.t2);
      }
      for (const GcCycleStats& s : fleet.service->runtime(i).gc_history()) {
        d.add(s);
      }
    }
    digests[ticked] = d.h;
  }
  if (digests[0] != digests[1]) {
    ++p.failed;
    note_failure("fast-forward", "ticked and fast-forwarded fleets differ");
  }
  return p;
}

// ---------------------------------------------------------------------------
// Statistics and output

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <class Fn>
double median_over(const std::vector<const Rep*>& reps, Fn&& fn) {
  std::vector<double> v;
  for (const Rep* r : reps) v.push_back(fn(*r));
  return quantile(std::move(v), 0.5);
}

/// Entry i is the fastest host time of unit i over `reps`. Reps repeat
/// bit-identical work, and other tenants of a shared host only ever add
/// time: on a shared 4-vCPU Xeon VM they slowed the simulator by up to
/// 1.7x for seconds at a time, while a pointer-chasing or arithmetic
/// calibration loop slowed far less, so dividing by one does not cancel
/// it. A per-rep median keeps such a burst whenever it covers half the
/// reps; the per-unit minimum keeps it only if it covers that unit in
/// every rep.
std::vector<double> minima(const std::vector<const Rep*>& reps,
                           std::vector<double> Rep::*units) {
  std::vector<double> out;
  for (const Rep* r : reps) {
    const std::vector<double>& v = r->*units;
    if (out.empty()) {
      out = v;
      continue;
    }
    out.resize(std::min(out.size(), v.size()));
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], v[i]);
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t n;
};

/// Prints each metric as "<tag> <workload> <name> <value> <unit> n=<n>" and
/// keeps it for the closing JSON object.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  const char* tag = "e2e";

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t n) {
    metrics_.push_back({name, value, unit, n});
    std::printf("%s %s %s %.9g %s n=%zu\n", tag, workload_.c_str(),
                name.c_str(), value, unit.c_str(), n);
  }

  std::string json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"n\":%zu}",
                    i == 0 ? "" : ",", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str(),
                    m.n);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::string workload_;
  std::vector<Metric> metrics_;
};

/// The process's resident-set high-water mark (VmHWM). Not getrusage's
/// ru_maxrss: Linux folds the parent's RSS at fork into that across exec,
/// so under a Python launcher it reads the launcher's size.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Host times are in reference seconds: each unit's fastest rep, times
/// `clock`'s factor.
void report_end_to_end(Report& out, const Options& o,
                       const std::vector<const Rep*>& reps,
                       const HostClock& clock, double rss_mb,
                       const LoadSweep* sweep, std::uint64_t attempted,
                       std::uint64_t failed) {
  out.tag = "e2e";
  const std::size_t n = reps.size();
  const bool heapd =
      o.kind == Kind::kHeapdChurn || o.kind == Kind::kHeapdReplay;
  const double k = clock.factor();
  const Rep& first = *reps.front();
  std::vector<double> collect = minima(reps, &Rep::collect_s);
  for (double& c : collect) c *= k;
  std::vector<double> ns;
  for (std::size_t i = 0; i < collect.size(); ++i) {
    if (first.core_cycles[i] > 0) {
      ns.push_back(1e9 * collect[i] / first.core_cycles[i]);
    }
  }
  out.add("setup_s", k * sum(minima(reps, &Rep::setup_s)), "s", n);
  out.add("wall_s", k * sum(minima(reps, &Rep::unit_s)), "s", n);
  out.add("host_clock_factor", k, "ratio", clock.samples);
  out.add("peak_rss_mb", rss_mb, "MB", 1);
  out.add("error_ratio",
          attempted == 0 ? 1.0
                         : static_cast<double>(failed) /
                               static_cast<double>(attempted),
          "ratio", attempted);
  out.add("sim_gc_cycles", static_cast<double>(first.sim.total_cycles),
          "cycles", first.sim.collections);
  const double collect_s = sum(collect);
  out.add("sim_mcycles_per_s",
          collect_s > 0
              ? static_cast<double>(first.sim.total_cycles) / collect_s / 1e6
              : 0.0,
          "Mcycles/s", collect.size());
  out.add("host_ns_per_core_cycle_p50", quantile(ns, 0.5), "ns", ns.size());
  out.add("host_ns_per_core_cycle_p90", quantile(ns, 0.9), "ns", ns.size());
  if (!heapd) {
    constexpr double kPaperSpeedup16 = 12.1;
    out.add("speedup_16c", first.speedup_16c, "x", 8);
    std::printf("note %s speedup_16c %.2fx vs paper %.1fx (%+.1f%%) at scale "
                "%g\n",
                o.workload.c_str(), first.speedup_16c, kPaperSpeedup16,
                100.0 * (first.speedup_16c / kPaperSpeedup16 - 1.0), first.scale);
    if (o.kind == Kind::kFig5) {
      out.add("fidelity_err_pp", first.fidelity_err_pp, "pp",
              std::size(kPaper16));
    }
    return;
  }
  const SloStats& f = first.fleet;
  out.add("req_p50_clk", static_cast<double>(f.latency.percentile(0.5)),
          "cycles", f.latency.count());
  out.add("req_p999_clk", static_cast<double>(f.latency.percentile(0.999)),
          "cycles", f.latency.count());
  out.add("slo_miss_ratio",
          f.offered == 0 ? 1.0
                         : static_cast<double>(f.slo_violations + f.rejected +
                                               f.failed) /
                               static_cast<double>(f.offered),
          "ratio", f.offered);
  if (sweep != nullptr) out.add("max_load_at_slo", sweep->max_load, "load", 7);
  const double serve_s = k * sum(minima(reps, &Rep::serve_s));
  out.add("host_req_per_s",
          serve_s > 0 ? static_cast<double>(f.completed) / serve_s : 0.0,
          "1/s", n);
}

void report_per_layer(Report& out, const std::vector<const Rep*>& traced,
                      const std::vector<const Rep*>& untraced,
                      const std::vector<Span>& spans, const FfProbe& ff) {
  out.tag = "layer";
  const std::size_t n = traced.size();
  std::map<std::string, std::vector<double>> layer, span_self;
  std::vector<double> self_over_wall;
  // Only traced reps leave spans; rep 0 holds the run-wide root span.
  for (const Span& rep_span : spans) {
    if (std::string(rep_span.name) != "rep") continue;
    const SelfTimes st = self_times(spans, rep_span.rep);
    for (const char* name :
         {"setup.self_s", "core.collect_s", "heap.snapshot_s",
          "conformance.oracle_s", "telemetry.export_s", "dispatch.self_s"}) {
      const auto it = st.by_layer.find(name);
      layer[name].push_back(it == st.by_layer.end() ? 0.0 : it->second);
    }
    double self_sum = 0;
    for (const auto& [name, v] : st.by_layer) self_sum += v;
    for (const auto& [name, v] : st.by_span) span_self[name].push_back(v);
    self_over_wall.push_back(self_sum / secs(rep_span.begin, rep_span.end));
  }
  for (const auto& [name, v] : layer) out.add(name, quantile(v, 0.5), "s", n);
  out.add("sim.pool_overlap", median_over(traced, [](const Rep& r) {
            return r.sim_parent_s > 0 ? r.sim_span_s / r.sim_parent_s : 0.0;
          }),
          "ratio", n);
  out.add("core.ff_speedup", ff.ff_s > 0 ? ff.ticked_s / ff.ff_s : 0.0,
          "ratio", ff.attempted);
  out.add("telemetry.export_mb", median_over(traced, [](const Rep& r) {
            return r.export_mb;
          }),
          "MB", n);
  const Rep& first = *traced.front();
  out.add("telemetry.bus_events", static_cast<double>(first.bus_events),
          "count", 1);
  const double wall_traced = sum(minima(traced, &Rep::unit_s));
  const double wall_untraced = sum(minima(untraced, &Rep::unit_s));
  out.add("trace_overhead",
          wall_untraced > 0 ? wall_traced / wall_untraced - 1.0 : 0.0, "ratio",
          n + untraced.size());
  out.add("trace.self_sum_over_wall", quantile(self_over_wall, 0.5), "ratio",
          self_over_wall.size());

  const SimTotals& s = first.sim;
  out.add("core.busy_share", s.share(s.busy), "share", 1);
  out.add("core.worklist_empty_share", s.share(s.idle), "share", 1);
  out.add("core.sb_scan_lock_share", s.stall_share(StallReason::kScanLock),
          "share", 1);
  out.add("core.sb_header_lock_share", s.stall_share(StallReason::kHeaderLock),
          "share", 1);
  out.add("core.sb_free_lock_share", s.stall_share(StallReason::kFreeLock),
          "share", 1);
  out.add("core.sb_barrier_share", s.stall_share(StallReason::kBarrier),
          "share", 1);
  out.add("core.drain_cycles", static_cast<double>(s.drain_cycles), "cycles",
          1);
  out.add("core.objects_copied", static_cast<double>(s.objects), "count", 1);
  out.add("core.words_copied", static_cast<double>(s.words), "count", 1);
  out.add("mem.requests", static_cast<double>(s.mem_requests), "count", 1);
  out.add("mem.body_load_share", s.stall_share(StallReason::kBodyLoad),
          "share", 1);
  out.add("mem.body_store_share", s.stall_share(StallReason::kBodyStore),
          "share", 1);
  out.add("mem.header_load_share", s.stall_share(StallReason::kHeaderLoad),
          "share", 1);
  out.add("mem.header_store_share", s.stall_share(StallReason::kHeaderStore),
          "share", 1);
  const double lookups = static_cast<double>(s.fifo_hits + s.fifo_misses);
  out.add("mem.fifo_hit_ratio",
          lookups > 0 ? static_cast<double>(s.fifo_hits) / lookups : 0.0,
          "ratio", 1);
  out.add("mem.fifo_overflows", static_cast<double>(s.fifo_overflows), "count",
          1);
  const SloStats& f = first.fleet;
  const double lat = static_cast<double>(f.latency.sum());
  const auto of_latency = [&](Cycle v) {
    return lat > 0 ? static_cast<double>(v) / lat : 0.0;
  };
  out.add("service.service_share", of_latency(f.service_cycles), "share", 1);
  out.add("service.queue_share", of_latency(f.queue_cycles), "share", 1);
  out.add("service.gc_stall_share", of_latency(f.stall_cycles), "share", 1);
  out.add("service.collections_per_1k_req",
          f.completed > 0 ? 1000.0 * static_cast<double>(f.collections) /
                                static_cast<double>(f.completed)
                          : 0.0,
          "count", 1);
  for (const auto& [name, v] : span_self) {
    out.add("span." + name + ".self_s", quantile(v, 0.5), "s", v.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  const bool traced_run = !o.spans_dir.empty();
  const bool heapd =
      o.kind == Kind::kHeapdChurn || o.kind == Kind::kHeapdReplay;
  const FigSpec fig = fig_spec(o);
  const HeapdSpec hd = heapd_spec(o);

  SpanLog log;
  const Clock::time_point origin = Clock::now();
  log.on = traced_run;
  const std::uint64_t root = log.open("workload", 0);

  HostClock clock;
  const auto run_rep = [&](std::uint64_t rep_id, bool traced) {
    log.on = traced;
    log.rep = rep_id;
    const Clock::time_point b = Clock::now();
    const std::uint64_t rep_span = log.open("rep", root);
    Rep r;
    try {
      r = heapd ? run_heapd_rep(o, hd, clock, log, rep_span)
                : run_fig_rep(o, fig, clock, log, rep_span);
    } catch (const std::exception& e) {
      note_failure("rep", e.what());
      r.attempted = r.failed = 1;
    }
    log.close(rep_span);
    r.wall_s = secs(b, Clock::now());
    r.traced = traced;
    log.on = traced_run;
    return r;
  };

  // Warm-up rep: discarded, except that it fixes the simulated results
  // every later rep must reproduce bit for bit. A traced run alternates
  // traced and untraced reps; --quick stops at the minimum rep count.
  // Peak RSS is read after the first measured rep, so it does not depend
  // on how many reps the host's speed allowed.
  const Rep warmup = run_rep(0, false);
  std::vector<Rep> reps;
  double rss_mb = 0;
  const std::size_t min_reps = (o.quick ? 1 : 3) + (traced_run ? 1 : 0);
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 1;; ++i) {
    if (reps.size() >= min_reps) {
      std::vector<double> walls;
      for (const Rep& r : reps) walls.push_back(r.wall_s);
      const double elapsed = secs(start, Clock::now());
      if (o.quick || elapsed + quantile(walls, 0.5) > o.seconds) break;
    }
    reps.push_back(run_rep(i, traced_run && i % 2 == 1));
    if (reps.size() == 1) rss_mb = peak_rss_mb();
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<const Rep*> traced, untraced;
  for (Rep& r : reps) {
    if (r.digest != warmup.digest) {
      ++r.failed;
      note_failure("determinism", "simulated results differ between reps");
    }
    attempted += r.attempted;
    failed += r.failed;
    (r.traced ? traced : untraced).push_back(&r);
  }
  LoadSweep sweep;
  FfProbe ff;
  try {
    if (o.kind == Kind::kHeapdChurn) sweep = sweep_max_load(o, hd);
    if (traced_run) {
      ff = heapd ? probe_heapd_fast_forward(o, hd)
                 : probe_fig_fast_forward(o, fig);
    }
  } catch (const std::exception& e) {
    note_failure("load sweep / fast-forward probe", e.what());
    ++attempted;
    ++failed;
  }
  attempted += sweep.attempted + ff.attempted;
  failed += sweep.failed + ff.failed;

  Report out(o.workload);
  report_end_to_end(out, o, untraced, clock, rss_mb,
                    o.kind == Kind::kHeapdChurn ? &sweep : nullptr, attempted,
                    failed);
  if (traced_run) {
    log.close(root);
    report_per_layer(out, traced, untraced, log.spans(), ff);
    const std::string path = o.spans_dir + "/" + o.workload + ".spans.json";
    if (!write_spans(path, log.spans(), origin)) {
      note_failure("spans", "cannot write " + path);
      ++failed;
    }
  }
  const bool correct = failed == 0;
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"correct\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"reps\":%zu,\"metrics\":%s}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      traced_run ? 1 : 0, correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), reps.size(),
      out.json().c_str());
  return correct ? 0 : 1;
}
