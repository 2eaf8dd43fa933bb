// google-benchmark microbenchmarks of the simulator itself.
//
// These do not reproduce a paper result; they keep the *harness* honest:
// the cycle loop's hot paths (SB lock arbitration, memory-system tick,
// header-FIFO ops, full collection throughput) are what make paper-scale
// runs (--scale=1, tens of millions of cycles) complete in seconds.
#include <benchmark/benchmark.h>

#include "core/coprocessor.hpp"
#include "core/sync_block.hpp"
#include "mem/header_fifo.hpp"
#include "mem/memory_system.hpp"
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

void BM_FullCollection(benchmark::State& state) {
  const auto cores = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t sim_cycles = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Workload w = make_benchmark(BenchmarkId::kJavacc, 0.05);
    SimConfig cfg;
    cfg.coprocessor.num_cores = cores;
    Coprocessor coproc(cfg, *w.heap);
    state.ResumeTiming();
    const GcCycleStats s = coproc.collect();
    sim_cycles += s.total_cycles;
    benchmark::DoNotOptimize(s.total_cycles);
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(sim_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullCollection)->Arg(1)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
