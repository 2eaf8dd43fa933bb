// TelemetryBus, Chrome-trace export and the golden-file stability
// guarantees: the bus must observe without perturbing the simulated
// timing, and the export formats must stay byte-stable so checked-in
// golden files and downstream tooling never silently drift.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coprocessor.hpp"
#include "profile/critical_path.hpp"
#include "profile/cycle_profiler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry_bus.hpp"
#include "telemetry/trace_export.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc {
namespace {

TEST(TelemetryBus, DisabledBusRecordsNothing) {
  TelemetryBus bus;
  bus.begin_collection("x");
  bus.begin_cycle(0);
  bus.core_cycle(0, CoreActivity::kBusy);
  bus.phase(GcPhase::kRootEvacuation);
  bus.lock_acquired(SbLock::kScan, 0);
  bus.counter_sample(bus.counter_series("c"), 1);
  bus.end_collection(1);
  EXPECT_TRUE(bus.spans().empty());
  EXPECT_TRUE(bus.instants().empty());
  EXPECT_TRUE(bus.counters().empty());
}

TEST(TelemetryBus, CoalescesConsecutiveCoreCycles) {
  TelemetryBus bus;
  bus.enable();
  bus.begin_collection("coalesce");
  for (Cycle t = 0; t < 5; ++t) {
    bus.begin_cycle(t);
    bus.core_cycle(0, CoreActivity::kBusy);
  }
  bus.begin_cycle(5);
  bus.core_cycle(0, CoreActivity::kStall, StallReason::kScanLock);
  bus.end_collection(6);
  ASSERT_EQ(bus.spans().size(), 2u);
  EXPECT_EQ(bus.span_name(bus.spans()[0]), "busy");
  EXPECT_EQ(bus.spans()[0].begin, 0u);
  EXPECT_EQ(bus.spans()[0].end, 5u);
  EXPECT_EQ(bus.span_name(bus.spans()[1]), "stall:scan-lock");
  EXPECT_EQ(bus.spans()[1].begin, 5u);
  EXPECT_EQ(bus.spans()[1].end, 6u);
}

TEST(TelemetryBus, LockSpanNamesTheOwner) {
  TelemetryBus bus;
  bus.enable();
  bus.begin_collection("locks");
  bus.begin_cycle(2);
  bus.lock_acquired(SbLock::kFree, 3);
  bus.begin_cycle(4);
  bus.lock_released(SbLock::kFree, 3);
  bus.end_collection(5);
  const std::uint32_t free_track = bus.track("free-lock");
  bool found = false;
  for (const auto& s : bus.spans()) {
    if (s.track != free_track) continue;
    found = true;
    EXPECT_EQ(bus.span_name(s), "held by core 3");
    EXPECT_EQ(s.begin, 2u);
    EXPECT_EQ(s.cat, TelemetryCategory::kLock);
  }
  EXPECT_TRUE(found);
}

TEST(TelemetryBus, EpochsConcatenateOntoOneTimeline) {
  Workload w1 = make_benchmark(BenchmarkId::kJlisp, 0.02);
  Workload w2 = make_benchmark(BenchmarkId::kJlisp, 0.02);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  TelemetryBus bus;
  Coprocessor(cfg, *w1.heap).collect(nullptr, nullptr, nullptr, &bus);
  Coprocessor(cfg, *w2.heap).collect(nullptr, nullptr, nullptr, &bus);
  ASSERT_EQ(bus.epochs().size(), 2u);
  EXPECT_GT(bus.epochs()[0].end, bus.epochs()[0].begin);
  EXPECT_GE(bus.epochs()[1].begin, bus.epochs()[0].end);
  // No span may leak across its epoch's end.
  for (const auto& s : bus.spans()) {
    const bool in0 =
        s.begin >= bus.epochs()[0].begin && s.end <= bus.epochs()[0].end;
    const bool in1 =
        s.begin >= bus.epochs()[1].begin && s.end <= bus.epochs()[1].end;
    EXPECT_TRUE(in0 || in1)
        << bus.span_name(s) << " [" << s.begin << "," << s.end << ")";
  }
}

TEST(TelemetryBus, CollectionPublishesPhasesLocksAndAllCoreTracks) {
  Workload w = make_benchmark(BenchmarkId::kJlisp, 0.02);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  TelemetryBus bus;
  Coprocessor coproc(cfg, *w.heap);
  coproc.collect(nullptr, nullptr, nullptr, &bus);

  const auto& names = bus.track_names();
  ASSERT_GE(names.size(), 7u);  // coprocessor + 4 cores + 2 locks
  EXPECT_EQ(names[0], "coprocessor");
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(names[1 + c], "core " + std::to_string(c));
  }

  std::vector<std::string> phases;
  bool saw_stall_span = false;
  for (const auto& s : bus.spans()) {
    if (s.cat == TelemetryCategory::kPhase) phases.push_back(bus.span_name(s));
    if (bus.span_name(s).rfind("stall:", 0) == 0) saw_stall_span = true;
  }
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0], "root-evacuation");
  EXPECT_EQ(phases[1], "parallel-scan");
  EXPECT_EQ(phases[2], "drain");
  EXPECT_TRUE(saw_stall_span);

  bool saw_flip = false;
  for (const auto& i : bus.instants()) {
    if (i.name == "flip") saw_flip = true;
  }
  EXPECT_TRUE(saw_flip);
}

// The acceptance contract of the whole layer: attaching the bus must not
// change simulated timing by a single clock cycle.
TEST(Telemetry, ObservationDoesNotChangeTiming) {
  for (const BenchmarkId id : {BenchmarkId::kDb, BenchmarkId::kJavacc}) {
    Workload w1 = make_benchmark(id, 0.02);
    Workload w2 = make_benchmark(id, 0.02);
    SimConfig cfg;
    cfg.coprocessor.num_cores = 8;
    Coprocessor c1(cfg, *w1.heap);
    Coprocessor c2(cfg, *w2.heap);
    TelemetryBus bus;
    const GcCycleStats with =
        c1.collect(nullptr, nullptr, nullptr, &bus);
    const GcCycleStats without = c2.collect();
    EXPECT_EQ(with.total_cycles, without.total_cycles)
        << "telemetry must be non-intrusive (" << benchmark_name(id) << ")";
    EXPECT_EQ(with.objects_copied, without.objects_copied);
    EXPECT_FALSE(bus.spans().empty());
  }
}

// clear() must forget every interned name and cached id (lock tracks, the
// FIFO-overflow series, span names): a bus reused after a different
// recording exports the same bytes as a fresh bus.
TEST(TelemetryBus, ReuseAfterClearExportsLikeAFreshBus) {
  const auto record = [](TelemetryBus& bus, BenchmarkId id,
                         std::uint32_t cores) {
    Workload w = make_benchmark(id, 0.02);
    SimConfig cfg;
    cfg.coprocessor.num_cores = cores;
    cfg.coprocessor.header_fifo_capacity = 16;  // overflows
    Coprocessor(cfg, *w.heap).collect(nullptr, nullptr, nullptr, &bus);
    return chrome_trace_json(bus);
  };
  TelemetryBus fresh;
  const std::string want = record(fresh, BenchmarkId::kJlisp, 4);
  ASSERT_NE(want.find("\"fifo_overflows\""), std::string::npos);

  TelemetryBus reused;
  reused.enable();
  (void)reused.track("extra track");
  (void)reused.counter_series("extra series");
  (void)record(reused, BenchmarkId::kDb, 2);
  reused.clear();
  EXPECT_EQ(record(reused, BenchmarkId::kJlisp, 4), want);
}

// Pinned pre-telemetry cycle counts: the observability layer landed with
// these exact numbers unchanged, and they must stay unchanged. If a
// *deliberate* timing change moves them, update the constants in the same
// commit.
TEST(Telemetry, PinnedBaselineCycleCountsUnchanged) {
  {
    Workload w = make_benchmark(BenchmarkId::kDb, 0.05);
    SimConfig cfg;
    cfg.coprocessor.num_cores = 8;
    Coprocessor coproc(cfg, *w.heap);
    EXPECT_EQ(coproc.collect().total_cycles, 47264u);
  }
  {
    Workload w = make_benchmark(BenchmarkId::kJlisp, 0.02);
    SimConfig cfg;
    cfg.coprocessor.num_cores = 4;
    Coprocessor coproc(cfg, *w.heap);
    EXPECT_EQ(coproc.collect().total_cycles, 2034u);
  }
}

TEST(ChromeTrace, ExportIsByteStableAcrossIdenticalRuns) {
  const auto run = [] {
    Workload w = make_benchmark(BenchmarkId::kJlisp, 0.02);
    SimConfig cfg;
    cfg.coprocessor.num_cores = 4;
    TelemetryBus bus;
    Coprocessor(cfg, *w.heap).collect(nullptr, nullptr, nullptr, &bus);
    return chrome_trace_json(bus);
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_GT(a.size(), 1000u);
  EXPECT_EQ(a, b);
}

// --- golden files ----------------------------------------------------------
//
// Regenerate with:  HWGC_REGEN_GOLDEN=1 ./test_telemetry
// then commit the changed files under tests/golden/ — a diff there is a
// deliberate format change, reviewed like any other interface change.

std::string golden_path(const std::string& name) {
  return std::string(HWGC_GOLDEN_DIR) + "/" + name;
}

void expect_matches_golden(const std::string& text, const std::string& name) {
  const std::string path = golden_path(name);
  if (std::getenv("HWGC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << text;
    ASSERT_TRUE(out) << "cannot regenerate " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with HWGC_REGEN_GOLDEN=1";
  const std::string want((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, want) << "export format drifted from " << path
                        << "; if intended, HWGC_REGEN_GOLDEN=1 and commit";
}

/// A tiny hand-built recording covering every event type the exporter
/// handles: phases, busy/stall spans, a lock hold, an instant, a counter.
TelemetryBus mini_bus() {
  TelemetryBus bus;
  bus.enable();
  bus.begin_collection("mini (1 core)");
  (void)bus.track("coprocessor");
  (void)bus.core_track(0);
  bus.begin_cycle(0);
  bus.phase(GcPhase::kRootEvacuation);
  bus.core_cycle(0, CoreActivity::kBusy);
  bus.begin_cycle(1);
  bus.phase(GcPhase::kParallelScan);
  bus.core_cycle(0, CoreActivity::kStall, StallReason::kScanLock);
  bus.lock_acquired(SbLock::kScan, 0);
  bus.counter_sample(bus.counter_series("gray_words"), 7);
  bus.begin_cycle(2);
  bus.lock_released(SbLock::kScan, 0);
  bus.core_cycle(0, CoreActivity::kBusy);
  bus.instant(bus.track("coprocessor"), TelemetryCategory::kFault,
              "example fault");
  bus.begin_cycle(3);
  bus.phase(GcPhase::kDrain);
  bus.core_cycle(0, CoreActivity::kIdle);
  bus.end_collection(4);
  return bus;
}

TEST(ChromeTrace, MatchesGoldenFile) {
  expect_matches_golden(chrome_trace_json(mini_bus()), "mini.trace.json");
}

/// The exporter's rarer branches: text that needs escaping on a track, an
/// epoch, instants and notes; an epoch without a label; a counter sample on
/// an unregistered series; stall reasons of every color class; a merged
/// SignalTrace with an unregistered signal; and the dropped-events marker of
/// a bus whose max_events cap is hit.
struct EdgeRecording {
  TelemetryBus bus;
  SignalTrace signals;
};

void record_edge(EdgeRecording& r) {
  TelemetryBus& bus = r.bus;
  bus.enable(14);
  bus.begin_collection("edge \"quoted\" back\\slash\n\ttab\x01");
  (void)bus.core_track(0);
  (void)bus.core_track(1);
  const std::uint32_t odd = bus.track("odd \"track\"\t\\\n\x01");
  const StallReason reasons[] = {StallReason::kHeaderLoad,
                                 StallReason::kFault, StallReason::kBarrier,
                                 StallReason::kHeaderLock,
                                 StallReason::kFreeLock};
  bus.begin_cycle(0);
  bus.phase(GcPhase::kRootEvacuation);
  bus.lock_acquired(SbLock::kFree, 1);
  for (Cycle t = 0; t < 5; ++t) {
    bus.begin_cycle(t);
    if (t == 2) bus.phase(GcPhase::kParallelScan);
    bus.core_cycle(0, CoreActivity::kStall, reasons[t]);
    bus.core_cycle(1, CoreActivity::kBusy);
  }
  bus.lock_released(SbLock::kFree, 1);
  bus.counter_sample(7, 3);  // unregistered series
  bus.counter_sample(bus.counter_series("depth \"q\""), 4);
  bus.instant(odd, TelemetryCategory::kRecovery,
              "retry \"1\"\\\n\tnext\x01");
  bus.end_collection(5);
  bus.begin_collection("");
  bus.begin_cycle(0);
  bus.instant(odd, TelemetryCategory::kRuntime, "second epoch");
  bus.phase(GcPhase::kDrain);
  for (Cycle t = 0; t < 4; ++t) {
    bus.begin_cycle(t);
    bus.core_cycle(0, t % 2 == 0 ? CoreActivity::kIdle : CoreActivity::kBusy);
  }
  bus.end_collection(4);

  SignalTrace& sig = r.signals;
  sig.enable();
  const std::uint16_t scan = sig.register_signal("scan");
  const std::uint16_t quoted = sig.register_signal("sig \"q\"\t");
  sig.sample(0, scan, 5);
  sig.sample(1, quoted, 6);
  sig.sample(2, 9, 7);  // unregistered signal
  sig.note(1, "note \"q\", \\, \n, \t and \x01");
  sig.note(3, "plain note");
}

TEST(ChromeTrace, EdgeCasesMatchGoldenFile) {
  EdgeRecording r;
  record_edge(r);
  ASSERT_GT(r.bus.dropped(), 0u);
  ChromeTraceOptions opt;
  opt.signals = &r.signals;
  expect_matches_golden(chrome_trace_json(r.bus, opt), "edge.trace.json");
}

// The exporter writes through a 64 KB chunk; an event longer than that (a
// huge instant name) gets a chunk of its own size, and the events around it
// keep their order.
TEST(ChromeTrace, EventLongerThanTheChunkExportsWhole) {
  TelemetryBus bus;
  bus.enable();
  bus.begin_collection("long");
  const std::uint32_t t = bus.track("t");
  bus.begin_cycle(0);
  std::string name(100000, 'x');
  name[50000] = '\x01';
  bus.instant(t, TelemetryCategory::kRuntime, "first");
  bus.instant(t, TelemetryCategory::kRuntime, name);
  bus.instant(t, TelemetryCategory::kRuntime, "last");
  bus.end_collection(1);
  const std::string json = chrome_trace_json(bus);
  const std::string escaped =
      name.substr(0, 50000) + "\\u0001" + name.substr(50001);
  const std::size_t at = json.find("\"name\":\"" + escaped + "\"},\n");
  ASSERT_NE(at, std::string::npos);
  EXPECT_LT(json.find("\"first\""), at);
  EXPECT_GT(json.find("\"last\""), at);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One configuration of the observed Fig. 6 grid (jflex, 4 cores, +20
/// latency) with the bus, profiler and signal trace attached and the
/// critical path annotated.
std::string fig6_config_trace(TelemetryBus& bus, SignalTrace& signals) {
  Workload w = make_benchmark(BenchmarkId::kJflex, 0.01);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  cfg.memory.latency += 20;
  cfg.memory.header_latency += 20;
  cfg.heap.semispace_words = w.heap->layout().semispace_words();
  CycleProfiler profiler;
  Coprocessor(cfg, *w.heap)
      .collect(&signals, nullptr, nullptr, &bus, &profiler);
  annotate_critical_path(signals, profiler.take_profile());
  ChromeTraceOptions opt;
  opt.signals = &signals;
  return chrome_trace_json(bus, opt);
}

// A real-size export pinned by length and digest: the writer must stay
// byte-identical on a trace with hundreds of thousands of events, not just
// on the hand-built golden recordings.
TEST(ChromeTrace, Fig6ConfigExportIsPinned) {
  TelemetryBus bus;
  SignalTrace signals;
  const std::string json = fig6_config_trace(bus, signals);
  EXPECT_EQ(json.size(), 4575828u);
  EXPECT_EQ(fnv1a64(json), 9168496858699701717ull);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The same configuration on a bus capped at 2^14 events, pinned with the
// signal trace's CSV and VCD dumps (critical-path notes included): the
// span storage reserved by enable() holds the cap without moving, the
// events past it are dropped and counted, and every dump keeps its bytes.
TEST(ChromeTrace, CappedFig6ConfigExportIsPinned) {
  TelemetryBus bus;
  bus.enable(1 << 14);
  const TelemetrySpan* const spans = bus.spans().data();
  SignalTrace signals;
  const std::string json = fig6_config_trace(bus, signals);
  EXPECT_EQ(bus.spans().data(), spans);
  EXPECT_EQ(bus.dropped(), 22223u);
  EXPECT_EQ(json.size(), 2662990u);
  EXPECT_EQ(fnv1a64(json), 14009007722604171869ull);

  const std::string csv_path = ::testing::TempDir() + "/hwgc_fig6_capped.csv";
  const std::string vcd_path = ::testing::TempDir() + "/hwgc_fig6_capped.vcd";
  ASSERT_TRUE(signals.write_csv(csv_path));
  ASSERT_TRUE(signals.write_vcd(vcd_path));
  const std::string csv = read_file(csv_path);
  const std::string vcd = read_file(vcd_path);
  std::remove(csv_path.c_str());
  std::remove(vcd_path.c_str());
  EXPECT_EQ(csv.size(), 423427u);
  EXPECT_EQ(fnv1a64(csv), 7856340575289857389ull);
  EXPECT_EQ(vcd.size(), 901828u);
  EXPECT_EQ(fnv1a64(vcd), 4424944407397700390ull);
}

GcCycleStats mini_stats(Cycle total) {
  GcCycleStats s;
  s.total_cycles = total;
  s.worklist_empty_cycles = total / 10;
  s.objects_copied = 12;
  s.words_copied = 48;
  s.pointers_forwarded = 20;
  s.mem_requests = 99;
  s.fifo_hits = 10;
  s.fifo_misses = 2;
  s.drain_cycles = 3;
  s.per_core.resize(2);
  s.per_core[0].busy_cycles = total / 2;
  s.per_core[0].stalls[static_cast<std::size_t>(StallReason::kScanLock)] = 5;
  s.per_core[1].busy_cycles = total / 3;
  s.per_core[1].stalls[static_cast<std::size_t>(StallReason::kBodyLoad)] = 9;
  return s;
}

TEST(MetricsJsonl, MatchesGoldenFileAndValidates) {
  MetricsRegistry reg;
  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  MetricsRegistry::Key key{"mini", 2, 0.25, 7};
  reg.record(key, cfg, mini_stats(100));
  reg.record(key, cfg, mini_stats(120));
  reg.record(key, cfg, mini_stats(110));
  SimConfig seq = cfg;
  seq.coprocessor.num_cores = 1;
  MetricsRegistry::Key base{"mini", 1, 0.25, 7};
  reg.record(base, seq, mini_stats(200));
  const std::string jsonl = reg.to_jsonl("golden");

  std::istringstream lines(jsonl);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    std::string err;
    EXPECT_TRUE(validate_bench_jsonl_line(line, &err)) << err << "\n" << line;
    ++n;
  }
  EXPECT_EQ(n, 2u);
  expect_matches_golden(jsonl, "bench_mini.json");
}

TEST(MetricsJsonl, RecordRefusesASecondConfigUnderOneKey) {
  MetricsRegistry reg;
  SimConfig fifo32k;
  fifo32k.coprocessor.header_fifo_capacity = 32 * 1024;
  SimConfig fifo0;
  fifo0.coprocessor.header_fifo_capacity = 0;
  const MetricsRegistry::Key key{"mini", 1, 0.25, 7};
  reg.record(key, fifo32k, mini_stats(100));
  reg.record(key, fifo32k, mini_stats(110));  // same config: folds
  try {
    reg.record(key, fifo0, mini_stats(120));
    FAIL() << "a second config under one key must not be averaged in";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(fifo32k.summary()), std::string::npos) << what;
    EXPECT_NE(what.find(fifo0.summary()), std::string::npos) << what;
  }
  // The refused sample left the aggregate as it was.
  const std::string jsonl = reg.to_jsonl("s");
  EXPECT_NE(jsonl.find("\"samples\":2"), std::string::npos) << jsonl;
}

TEST(MetricsJsonl, EmittedRecordsFromRealRunsValidate) {
  MetricsRegistry reg;
  Workload w = make_benchmark(BenchmarkId::kJlisp, 0.02);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  Coprocessor coproc(cfg, *w.heap);
  const GcCycleStats s = coproc.collect();
  reg.record({"jlisp", 4, 0.02, 42}, cfg, s);
  std::string err;
  const std::string jsonl = reg.to_jsonl("real");
  const std::string line = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_TRUE(validate_bench_jsonl_line(line, &err)) << err;
}

TEST(MetricsJsonl, ValidatorRejectsMalformedLines) {
  std::string err;
  EXPECT_FALSE(validate_bench_jsonl_line("not json at all", &err));
  EXPECT_FALSE(validate_bench_jsonl_line("{\"schema\":\"hwgc-bench-v2\"}",
                                         &err));
  EXPECT_NE(err.find("missing field"), std::string::npos);

  // Build one valid line, then corrupt it in targeted ways.
  MetricsRegistry reg;
  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  reg.record({"x", 2, 0.1, 1}, cfg, mini_stats(100));
  std::string line = reg.to_jsonl("s");
  line.pop_back();  // trailing newline
  ASSERT_TRUE(validate_bench_jsonl_line(line, &err)) << err;

  const auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string c = line;
    const auto pos = c.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    c.replace(pos, from.size(), to);
    EXPECT_FALSE(validate_bench_jsonl_line(c, &err)) << c;
  };
  corrupt("\"schema\":\"hwgc-bench-v2\"", "\"schema\":\"hwgc-bench-v1\"");
  corrupt("\"cores\":2", "\"cores\":0");
  corrupt("\"cycles_min\":100", "\"cycles_min\":500");       // > p50
  corrupt("\"worklist_empty_fraction\":0.1", "\"worklist_empty_fraction\":1.5");
  corrupt("\"samples\":1", "\"samples\":\"one\"");           // wrong type
}

TEST(MetricsJsonl, FileValidatorReportsPerLine) {
  const std::string path = ::testing::TempDir() + "/hwgc_bench_invalid.json";
  {
    MetricsRegistry reg;
    SimConfig cfg;
    cfg.coprocessor.num_cores = 2;
    reg.record({"x", 2, 0.1, 1}, cfg, mini_stats(100));
    std::ofstream out(path);
    out << reg.to_jsonl("s") << "{\"schema\":\"bogus\"}\n";
  }
  std::vector<std::string> errors;
  EXPECT_FALSE(validate_bench_jsonl_file(path, &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find(":2:"), std::string::npos);
  std::remove(path.c_str());

  errors.clear();
  EXPECT_FALSE(validate_bench_jsonl_file(path, &errors));  // now unreadable
  EXPECT_FALSE(errors.empty());
}

}  // namespace
}  // namespace hwgc
