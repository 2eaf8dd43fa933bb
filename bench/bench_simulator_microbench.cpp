// google-benchmark microbenchmarks of the simulator itself.
//
// These do not reproduce a paper result; they keep the *harness* honest:
// the cycle loop's hot paths (SB lock arbitration, memory-system tick,
// header-FIFO ops, full collection throughput) are what make paper-scale
// runs (--scale=1, tens of millions of cycles) complete in seconds. The
// Chrome-trace exporter is timed too: on observed runs it is the largest
// host cost after the cycle loop. So are the oracle's two halves, the
// pre-cycle snapshot and the post-cycle verifier, which every verified run
// pays around each collection.
#include <benchmark/benchmark.h>

#include "core/coprocessor.hpp"
#include "core/sync_block.hpp"
#include "heap/verifier.hpp"
#include "mem/header_fifo.hpp"
#include "mem/memory_system.hpp"
#include "profile/critical_path.hpp"
#include "profile/cycle_profiler.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry_bus.hpp"
#include "telemetry/trace_export.hpp"
#include "workloads/benchmarks.hpp"

namespace {

using namespace hwgc;

void BM_SyncBlockLockCycle(benchmark::State& state) {
  SyncBlock sb(16);
  CoreId core = 0;
  for (auto _ : state) {
    sb.begin_cycle();
    if (sb.try_lock_scan(core)) sb.unlock_scan(core);
    core = (core + 1) % 16;
    benchmark::DoNotOptimize(sb.scan());
  }
}
BENCHMARK(BM_SyncBlockLockCycle);

void BM_HeaderLockCam(benchmark::State& state) {
  SyncBlock sb(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    if (sb.try_lock_header(0, 0x1234)) sb.unlock_header(0);
  }
}
BENCHMARK(BM_HeaderLockCam)->Arg(2)->Arg(8)->Arg(16);

void BM_MemorySystemTick(benchmark::State& state) {
  MemoryConfig cfg;
  MemorySystem mem(cfg, 16);
  Cycle now = 0;
  CoreId core = 0;
  for (auto _ : state) {
    if (!mem.load_pending(core, Port::kBody)) {
      mem.issue_load(core, Port::kBody, 1000 + core);
    }
    mem.tick(++now);
    core = (core + 1) % 16;
  }
}
BENCHMARK(BM_MemorySystemTick);

// The scheduler under load: every cycle each of 16 cores refills its
// buffers with header stores, header loads to the same few hot headers
// (held back by the comparator array) and body traffic, so the queue stays
// far past bandwidth_per_cycle and the pending-store table stays populated.
void BM_MemorySystemTickContended(benchmark::State& state) {
  constexpr CoreId kCores = 16;
  MemoryConfig cfg;
  MemorySystem mem(cfg, kCores);
  Cycle now = 0;
  for (auto _ : state) {
    for (CoreId c = 0; c < kCores; ++c) {
      const Addr hot = 1000 + 2 * static_cast<Addr>((c + now) % 8);
      if (!mem.store_busy(c, Port::kHeader)) {
        mem.issue_store(c, Port::kHeader, hot);
      }
      if (!mem.load_pending(c, Port::kHeader)) {
        mem.issue_load(c, Port::kHeader, hot);
      }
      if (!mem.store_busy(c, Port::kBody)) {
        mem.issue_store(c, Port::kBody, 5000 + c);
      }
      if (!mem.load_pending(c, Port::kBody)) {
        mem.issue_load(c, Port::kBody, 9000 + c);
      }
    }
    mem.tick(++now);
  }
  benchmark::DoNotOptimize(mem.requests_issued());
}
BENCHMARK(BM_MemorySystemTickContended);

void BM_HeaderFifoPushPop(benchmark::State& state) {
  HeaderFifo fifo(1024);
  Addr a = 100;
  for (auto _ : state) {
    fifo.push(HeaderFifo::Entry{a, 42, a + 1});
    HeaderFifo::Entry e;
    benchmark::DoNotOptimize(fifo.pop(a, e));
    a += 4;
  }
}
BENCHMARK(BM_HeaderFifoPushPop);

// One whole collection per iteration: range(0) is the core count, range(1)
// the fast_forward flag — 0 is the ticked reference, 1 parks waiting cores
// and jumps quiescent windows — and range(2) the observers attached: 0
// none (as fig5 runs it), 1 the profiler (gcsim --profile), 2 bus,
// profiler and signal trace (as fig6-observed records). The shape is a
// template argument: javacc; cup, fig5's costliest cell at 16 cores; and
// search and compress, whose cores mostly wait on SyncBlock state at 16
// cores (an empty worklist, the scan lock), where host time grew with the
// core count while simulated cycles stayed flat.
template <BenchmarkId kShape>
void BM_FullCollection(benchmark::State& state) {
  const auto cores = static_cast<std::uint32_t>(state.range(0));
  const std::int64_t observers = state.range(2);
  const bool all = observers == 2;
  SignalTrace signals;
  TelemetryBus bus;
  CycleProfiler profiler;
  std::uint64_t sim_cycles = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Workload w = make_benchmark(kShape, 0.05);
    SimConfig cfg;
    cfg.coprocessor.num_cores = cores;
    cfg.coprocessor.fast_forward = state.range(1) != 0;
    Coprocessor coproc(cfg, *w.heap);
    signals.clear();  // the last iteration's recordings, freed untimed
    bus.clear();
    state.ResumeTiming();
    const GcCycleStats s =
        coproc.collect(all ? &signals : nullptr, nullptr, nullptr,
                       all ? &bus : nullptr,
                       observers != 0 ? &profiler : nullptr);
    sim_cycles += s.total_cycles;
    benchmark::DoNotOptimize(s.total_cycles);
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(sim_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK_TEMPLATE(BM_FullCollection, BenchmarkId::kJavacc)
    ->ArgNames({"cores", "ff", "obs"})
    ->ArgsProduct({{1, 8, 16}, {0, 1}, {0}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FullCollection, BenchmarkId::kCup)
    ->ArgNames({"cores", "ff", "obs"})
    ->ArgsProduct({{16}, {0, 1}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FullCollection, BenchmarkId::kSearch)
    ->ArgNames({"cores", "ff", "obs"})
    ->ArgsProduct({{4, 16}, {0, 1}, {0}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FullCollection, BenchmarkId::kCompress)
    ->ArgNames({"cores", "ff", "obs"})
    ->ArgsProduct({{4, 16}, {0, 1}, {0}})
    ->Unit(benchmark::kMillisecond);

// One observed Fig. 6 configuration (jflex, 4 cores, +20 latency, bus +
// profiler + signals, critical path annotated), recorded once; the timed
// loop is the export alone.
void BM_ChromeTraceJson(benchmark::State& state) {
  Workload w = make_benchmark(BenchmarkId::kJflex, 0.01);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  cfg.memory.latency += 20;
  cfg.memory.header_latency += 20;
  cfg.heap.semispace_words = w.heap->layout().semispace_words();
  TelemetryBus bus;
  SignalTrace signals;
  CycleProfiler profiler;
  Coprocessor(cfg, *w.heap)
      .collect(&signals, nullptr, nullptr, &bus, &profiler);
  annotate_critical_path(signals, profiler.take_profile());
  ChromeTraceOptions opt;
  opt.signals = &signals;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string json = chrome_trace_json(bus, opt);
    bytes += json.size();
    benchmark::DoNotOptimize(json.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["bus_events"] = static_cast<double>(
      bus.spans().size() + bus.instants().size() + bus.counters().size());
}
BENCHMARK(BM_ChromeTraceJson)->Unit(benchmark::kMillisecond);

// The critical-path annotation of one observed Fig. 6 configuration (cup,
// 1 core, +20 latency: about 600k path segments, the grid's longest),
// profiled once; the timed loop notes every segment into a cleared signal
// trace.
void BM_AnnotateCriticalPath(benchmark::State& state) {
  Workload w = make_benchmark(BenchmarkId::kCup, 0.01);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 1;
  cfg.memory.latency += 20;
  cfg.memory.header_latency += 20;
  cfg.heap.semispace_words = w.heap->layout().semispace_words();
  CycleProfiler profiler;
  Coprocessor(cfg, *w.heap)
      .collect(nullptr, nullptr, nullptr, nullptr, &profiler);
  const CycleProfile profile = profiler.take_profile();
  SignalTrace signals;
  signals.enable();
  for (auto _ : state) {
    state.PauseTiming();
    signals.clear();  // the last iteration's notes, freed untimed
    state.ResumeTiming();
    annotate_critical_path(signals, profile);
    benchmark::DoNotOptimize(signals.notes().size());
  }
  state.counters["notes"] = static_cast<double>(signals.notes().size());
}
BENCHMARK(BM_AnnotateCriticalPath)->Unit(benchmark::kMillisecond);

// The oracle on one fig5 configuration (jlisp, 16 cores, scale 0.05): the
// snapshot is timed on the materialized heap, the verifier on the heap
// collected once outside the timed loop.
void BM_HeapSnapshotCapture(benchmark::State& state) {
  const Workload w = make_benchmark(BenchmarkId::kJlisp, 0.05);
  std::size_t objects = 0;
  for (auto _ : state) {
    const HeapSnapshot snap = HeapSnapshot::capture(*w.heap);
    objects = snap.objects.size();
    benchmark::DoNotOptimize(snap.live_words);
  }
  state.counters["objects"] = static_cast<double>(objects);
}
BENCHMARK(BM_HeapSnapshotCapture)->Unit(benchmark::kMillisecond);

void BM_VerifyCollection(benchmark::State& state) {
  Workload w = make_benchmark(BenchmarkId::kJlisp, 0.05);
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 16;
  cfg.heap.semispace_words = w.heap->layout().semispace_words();
  Coprocessor(cfg, *w.heap).collect();
  for (auto _ : state) {
    const VerifyResult res = verify_collection(pre, *w.heap);
    if (!res.ok) state.SkipWithError(res.summary().c_str());
    benchmark::DoNotOptimize(res.ok);
  }
  state.counters["objects"] = static_cast<double>(pre.objects.size());
}
BENCHMARK(BM_VerifyCollection)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
