// Fast-forward equivalence (DESIGN.md §13).
//
// The quiescent fast-forward in Coprocessor::collect must be
// observationally invisible: a run with cfg.coprocessor.fast_forward on
// must be bit-identical to the ticked run in every architectural and
// observable dimension — GcCycleStats down to the per-core stall arrays,
// the SignalTrace sample stream and fault notes, the ScheduleTrace ring
// and recorded-cycle count, the Chrome-trace export of the TelemetryBus,
// the CycleProfile, the final tospace image, and (under fault injection)
// the abort cycle, suspect core and fired-event log. Every observer is
// attached to every run, so none of them may keep the clock from jumping
// or make a jump visible. The flag also parks cores waiting on a load, a
// held lock or an empty worklist, observed or not: the step loop walks
// only the runnable cores, and observers are told only of changes. The fault
// cases in particular pin the ISSUE requirement that watchdog budgets
// account for skipped cycles: a hang detected by jumping straight to the
// watchdog boundary must abort at exactly the cycle a ticked run aborts.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/coprocessor.hpp"
#include "core/schedule_policy.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "heap/heap.hpp"
#include "profile/cycle_profiler.hpp"
#include "sim/abort.hpp"
#include "sim/config.hpp"
#include "sim/counters.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry_bus.hpp"
#include "telemetry/trace_export.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/graph_plan.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

/// Everything observable about one collection attempt.
struct RunOutcome {
  GcCycleStats stats;
  bool aborted = false;
  AbortReason reason = AbortReason::kWatchdog;
  CoreId suspect = kNoCore;
  Cycle abort_at = 0;
  std::vector<std::string> fault_log;
  // Final heap image (tospace words), empty for aborted runs.
  Addr alloc_ptr = 0;
  std::vector<Word> image;
  // The bus's Chrome-trace export (signal samples and notes merged in) and
  // the profiler's attribution.
  std::string chrome_trace;
  CycleProfile profile;
};

/// One collection with every observer attached (`observed`), or none.
RunOutcome run_once(const GraphPlan& plan, SimConfig cfg, bool fast_forward,
                    SignalTrace& trace, ScheduleTrace& sched,
                    const FaultPlan* faults = nullptr, bool observed = true) {
  cfg.coprocessor.fast_forward = fast_forward;
  Workload w = materialize(plan);
  trace.enable();
  Coprocessor coproc(cfg, *w.heap);
  TelemetryBus bus;
  CycleProfiler profiler;
  SignalTrace* const sig = observed ? &trace : nullptr;
  ScheduleTrace* const order = observed ? &sched : nullptr;
  TelemetryBus* const tel = observed ? &bus : nullptr;
  CycleProfiler* const prof = observed ? &profiler : nullptr;
  RunOutcome out;
  const auto observe = [&] {
    ChromeTraceOptions opt;
    opt.signals = &trace;
    out.chrome_trace = chrome_trace_json(bus, opt);
    out.profile = profiler.take_profile();
  };
  if (faults == nullptr) {
    out.stats = coproc.collect(sig, order, nullptr, tel, prof);
  } else {
    FaultInjector inj(*faults);
    inj.attach_memory(&w.heap->memory());
    if (observed) {
      inj.attach_trace(&trace);
      inj.attach_telemetry(&bus);
    }
    std::vector<CoreId> active(cfg.coprocessor.num_cores);
    std::iota(active.begin(), active.end(), CoreId{0});
    inj.begin_attempt(0, active);
    try {
      out.stats = coproc.collect(sig, order, &inj, tel, prof);
    } catch (const CollectionAbort& abort) {
      out.aborted = true;
      out.reason = abort.reason();
      out.suspect = abort.suspect();
      out.abort_at = abort.at();
      out.fault_log = inj.log();
      observe();
      return out;
    }
    out.fault_log = inj.log();
  }
  observe();
  out.alloc_ptr = w.heap->alloc_ptr();
  for (Addr a = w.heap->layout().current_base(); a < w.heap->alloc_ptr();
       ++a) {
    out.image.push_back(w.heap->memory().load(a));
  }
  return out;
}

void expect_core_counters_equal(const CoreCounters& t, const CoreCounters& f,
                                std::size_t core) {
  for (std::size_t r = 0; r < kStallReasonCount; ++r) {
    EXPECT_EQ(t.stalls[r], f.stalls[r])
        << "core " << core << " stall["
        << to_string(static_cast<StallReason>(r)) << "]";
  }
  EXPECT_EQ(t.busy_cycles, f.busy_cycles) << "core " << core;
  EXPECT_EQ(t.idle_cycles, f.idle_cycles) << "core " << core;
  EXPECT_EQ(t.objects_scanned, f.objects_scanned) << "core " << core;
  EXPECT_EQ(t.objects_evacuated, f.objects_evacuated) << "core " << core;
  EXPECT_EQ(t.pointers_processed, f.pointers_processed) << "core " << core;
  EXPECT_EQ(t.fifo_hits, f.fifo_hits) << "core " << core;
  EXPECT_EQ(t.fifo_misses, f.fifo_misses) << "core " << core;
}

void expect_stats_equal(const GcCycleStats& t, const GcCycleStats& f) {
  EXPECT_EQ(t.total_cycles, f.total_cycles);
  EXPECT_EQ(t.worklist_empty_cycles, f.worklist_empty_cycles);
  EXPECT_EQ(t.objects_copied, f.objects_copied);
  EXPECT_EQ(t.words_copied, f.words_copied);
  EXPECT_EQ(t.pointers_forwarded, f.pointers_forwarded);
  EXPECT_EQ(t.fifo_overflows, f.fifo_overflows);
  EXPECT_EQ(t.mem_requests, f.mem_requests);
  EXPECT_EQ(t.fifo_hits, f.fifo_hits);
  EXPECT_EQ(t.fifo_misses, f.fifo_misses);
  EXPECT_EQ(t.drain_cycles, f.drain_cycles);
  EXPECT_EQ(t.restart_stores_drained, f.restart_stores_drained);
  EXPECT_EQ(t.faults_fired, f.faults_fired);
  EXPECT_EQ(t.lock_order_violations, f.lock_order_violations);
  ASSERT_EQ(t.per_core.size(), f.per_core.size());
  for (std::size_t c = 0; c < t.per_core.size(); ++c) {
    expect_core_counters_equal(t.per_core[c], f.per_core[c], c);
  }
}

void expect_traces_equal(const SignalTrace& t, const SignalTrace& f) {
  ASSERT_EQ(t.events().size(), f.events().size());
  for (std::size_t i = 0; i < t.events().size(); ++i) {
    const TraceEvent& a = t.events()[i];
    const TraceEvent& b = f.events()[i];
    EXPECT_EQ(a.cycle, b.cycle) << "event " << i;
    EXPECT_EQ(a.signal, b.signal) << "event " << i;
    EXPECT_EQ(a.value, b.value) << "event " << i;
  }
  ASSERT_EQ(t.notes().size(), f.notes().size());
  for (std::size_t i = 0; i < t.notes().size(); ++i) {
    EXPECT_EQ(t.notes()[i].first, f.notes()[i].first) << "note " << i;
    EXPECT_EQ(t.notes()[i].second, f.notes()[i].second) << "note " << i;
  }
}

void expect_schedules_equal(const ScheduleTrace& t, const ScheduleTrace& f) {
  EXPECT_EQ(t.cycles_recorded(), f.cycles_recorded());
  EXPECT_EQ(t.dump(), f.dump());
  ASSERT_EQ(t.orders().size(), f.orders().size());
  for (std::size_t i = 0; i < t.orders().size(); ++i) {
    EXPECT_EQ(t.orders()[i].first, f.orders()[i].first) << "ring entry " << i;
    EXPECT_EQ(t.orders()[i].second, f.orders()[i].second)
        << "ring entry " << i;
  }
}

/// Byte equality of two exports. A failure names the first differing byte
/// instead of diffing megabytes of text.
void expect_same_text(const std::string& a, const std::string& b,
                      const char* what) {
  if (a == b) return;
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  ADD_FAILURE() << what << "s differ (sizes " << a.size() << " and "
                << b.size() << ") from byte " << at << ": \""
                << a.substr(at, 80) << "\" vs \"" << b.substr(at, 80) << "\"";
}

/// Runs the plan ticked and fast-forwarded, asserts full observational
/// equality, and returns the ticked outcome for extra assertions.
RunOutcome expect_equivalent(const GraphPlan& plan, SimConfig cfg,
                             const FaultPlan* faults = nullptr) {
  SignalTrace trace_t, trace_f;
  ScheduleTrace sched_t, sched_f;
  const RunOutcome ticked =
      run_once(plan, cfg, /*fast_forward=*/false, trace_t, sched_t, faults);
  const RunOutcome ffwd =
      run_once(plan, cfg, /*fast_forward=*/true, trace_f, sched_f, faults);
  EXPECT_EQ(ticked.aborted, ffwd.aborted);
  if (ticked.aborted && ffwd.aborted) {
    EXPECT_EQ(ticked.reason, ffwd.reason);
    EXPECT_EQ(ticked.suspect, ffwd.suspect);
    EXPECT_EQ(ticked.abort_at, ffwd.abort_at);
  } else {
    expect_stats_equal(ticked.stats, ffwd.stats);
    EXPECT_EQ(ticked.alloc_ptr, ffwd.alloc_ptr);
    EXPECT_EQ(ticked.image, ffwd.image);
  }
  EXPECT_EQ(ticked.stats.fast_forwarded_cycles, 0u);
  EXPECT_EQ(ticked.fault_log, ffwd.fault_log);
  expect_traces_equal(trace_t, trace_f);
  expect_schedules_equal(sched_t, sched_f);
  expect_same_text(ticked.chrome_trace, ffwd.chrome_trace, "Chrome trace");
  EXPECT_TRUE(ticked.profile == ffwd.profile) << "CycleProfiles differ";
  return ticked;
}

/// One collection with no observer attached, as fig5 and heapd run it:
/// stats, tospace image, or the abort's reason, cycle and suspect.
RunOutcome run_bare(const GraphPlan& plan, SimConfig cfg, bool fast_forward) {
  cfg.coprocessor.fast_forward = fast_forward;
  Workload w = materialize(plan);
  RunOutcome out;
  try {
    out.stats = Coprocessor(cfg, *w.heap).collect();
  } catch (const CollectionAbort& abort) {
    out.aborted = true;
    out.reason = abort.reason();
    out.suspect = abort.suspect();
    out.abort_at = abort.at();
    return out;
  }
  out.alloc_ptr = w.heap->alloc_ptr();
  for (Addr a = w.heap->layout().current_base(); a < w.heap->alloc_ptr();
       ++a) {
    out.image.push_back(w.heap->memory().load(a));
  }
  return out;
}

/// The observer-free run with fast_forward on must match the ticked one.
/// Returns the ticked outcome.
RunOutcome expect_bare_equivalent(const GraphPlan& plan, const SimConfig& cfg) {
  const RunOutcome ticked = run_bare(plan, cfg, /*fast_forward=*/false);
  const RunOutcome fast = run_bare(plan, cfg, /*fast_forward=*/true);
  EXPECT_EQ(ticked.aborted, fast.aborted);
  if (ticked.aborted && fast.aborted) {
    EXPECT_EQ(ticked.reason, fast.reason);
    EXPECT_EQ(ticked.suspect, fast.suspect);
    EXPECT_EQ(ticked.abort_at, fast.abort_at);
  } else {
    expect_stats_equal(ticked.stats, fast.stats);
    EXPECT_EQ(ticked.alloc_ptr, fast.alloc_ptr);
    EXPECT_EQ(ticked.image, fast.image);
  }
  return ticked;
}

SimConfig config_with_cores(std::uint32_t cores) {
  SimConfig cfg;
  cfg.coprocessor.num_cores = cores;
  return cfg;
}

// --- fault-free equivalence ------------------------------------------------

TEST(FastForward, BenchmarkPlansIdenticalAcrossCoreCounts) {
  const GraphPlan plan = make_benchmark_plan(BenchmarkId::kJlisp, 0.05);
  for (std::uint32_t cores : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("cores=" + std::to_string(cores));
    const RunOutcome t = expect_equivalent(plan, config_with_cores(cores));
    EXPECT_GT(t.stats.total_cycles, 0u);
  }
}

TEST(FastForward, RandomGraphsIdenticalAcrossSeeds) {
  for (std::uint64_t seed : {7ull, 1234ull, 99ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_equivalent(make_random_plan(seed), config_with_cores(4));
  }
}

TEST(FastForward, EmptyAndTinyHeapsIdentical) {
  // Degenerate graphs maximize the idle/terminate edge cases: an empty
  // root set hits the all-idle termination veto almost immediately.
  GraphPlan empty;
  expect_equivalent(empty, config_with_cores(8));
  RandomGraphConfig tiny;
  tiny.nodes = 3;
  tiny.roots = 1;
  expect_equivalent(make_random_plan(42, tiny), config_with_cores(8));
}

TEST(FastForward, MarkbitEarlyReadVariantIdentical) {
  SimConfig cfg = config_with_cores(4);
  cfg.coprocessor.markbit_early_read = true;
  expect_equivalent(make_benchmark_plan(BenchmarkId::kJavacc, 0.03), cfg);
}

TEST(FastForward, SubobjectCopyVariantIdentical) {
  SimConfig cfg = config_with_cores(4);
  cfg.coprocessor.subobject_copy = true;
  cfg.coprocessor.stripe_threshold = 16;  // stripe even modest objects
  expect_equivalent(make_benchmark_plan(BenchmarkId::kJlisp, 0.05), cfg);
}

TEST(FastForward, HighMemoryLatencyIdentical) {
  // Figure 6's +20-cycle latency regime is where quiescent windows are
  // longest and fast-forward does the most work — the config the perf
  // baseline leans on, so equivalence here is load-bearing.
  SimConfig cfg = config_with_cores(2);
  cfg.memory.latency += 20;
  cfg.memory.header_latency += 20;
  expect_equivalent(make_benchmark_plan(BenchmarkId::kDb, 0.05), cfg);
}

TEST(FastForward, JumpsWithEveryObserverAttached) {
  // A jump publishes nothing, so no observer vetoes one:
  // with a bus, profiler, signal trace and schedule trace attached the
  // +20-latency run must still skip cycles, and still match the ticked run.
  SimConfig cfg = config_with_cores(2);
  cfg.memory.latency += 20;
  cfg.memory.header_latency += 20;
  const GraphPlan plan = make_benchmark_plan(BenchmarkId::kDb, 0.05);
  SignalTrace trace;
  ScheduleTrace sched;
  const RunOutcome ff =
      run_once(plan, cfg, /*fast_forward=*/true, trace, sched);
  EXPECT_GT(ff.stats.fast_forwarded_cycles, ff.stats.total_cycles / 4);
  EXPECT_TRUE(ff.profile.valid);
  EXPECT_GT(ff.chrome_trace.size(), 1000u);
  expect_equivalent(plan, cfg);
}

TEST(FastForward, TinyFifoOverflowPathIdentical) {
  SimConfig cfg = config_with_cores(4);
  cfg.coprocessor.header_fifo_capacity = 2;  // force overflow bypasses
  const RunOutcome t =
      expect_equivalent(make_benchmark_plan(BenchmarkId::kJlisp, 0.05), cfg);
  EXPECT_GT(t.stats.fifo_overflows, 0u);
}

TEST(FastForward, NonFixedScheduleStillCorrectWithFlagOn) {
  // Rotating/random policies bypass the jump (the per-cycle order mutates
  // policy state) but still park cores; the flag must not change anything.
  for (SchedulePolicyKind kind :
       {SchedulePolicyKind::kRotating, SchedulePolicyKind::kRandom,
        SchedulePolicyKind::kAdversarial}) {
    SCOPED_TRACE(to_string(kind));
    SimConfig cfg = config_with_cores(4);
    cfg.coprocessor.schedule = kind;
    cfg.coprocessor.schedule_seed = 77;
    expect_equivalent(make_random_plan(5), cfg);
  }
}

// --- observation is pure, and publishing per change is exact ---------------
//
// The clock loop publishes a core's record, the step order and the sample
// only when they change (sim/clock_observer.hpp); observed and unobserved
// runs share one step loop. Attaching every observer must change no
// simulated result, and what the observers record must equal the ticked
// run, which steps every core every cycle.

void expect_observation_pure(const GraphPlan& plan, const SimConfig& cfg,
                             const FaultPlan* faults = nullptr) {
  const RunOutcome ticked = expect_equivalent(plan, cfg, faults);
  SignalTrace trace;
  ScheduleTrace sched;
  const RunOutcome bare = run_once(plan, cfg, /*fast_forward=*/true, trace,
                                   sched, faults, /*observed=*/false);
  EXPECT_EQ(bare.aborted, ticked.aborted);
  EXPECT_EQ(bare.fault_log, ticked.fault_log);
  if (bare.aborted && ticked.aborted) {
    EXPECT_EQ(bare.reason, ticked.reason);
    EXPECT_EQ(bare.suspect, ticked.suspect);
    EXPECT_EQ(bare.abort_at, ticked.abort_at);
  } else {
    expect_stats_equal(bare.stats, ticked.stats);
    EXPECT_EQ(bare.image, ticked.image);
  }
}

TEST(FastForward, ObservationIsPureAndExactPerChange) {
  for (BenchmarkId id : all_benchmarks()) {
    const GraphPlan plan = make_benchmark_plan(id, 0.05);
    for (std::uint32_t cores : {1u, 2u, 8u, 16u}) {
      for (SchedulePolicyKind kind :
           {SchedulePolicyKind::kFixedPriority, SchedulePolicyKind::kRotating,
            SchedulePolicyKind::kRandom}) {
        SCOPED_TRACE(std::string(benchmark_name(id)) + ", " +
                     to_string(kind) + ", cores=" + std::to_string(cores));
        SimConfig cfg = config_with_cores(cores);
        cfg.coprocessor.schedule = kind;
        cfg.coprocessor.schedule_seed = 77;
        expect_observation_pure(plan, cfg);
      }
    }
  }
  // A fault plan whose corrupted pointer aborts the attempt inside a cycle:
  // the cycle is closed for the observers before the collection ends.
  FaultConfig fc;
  fc.seed = 27;
  fc.events = 4;
  const FaultPlan faults = FaultPlan::from_config(fc, 2);
  SimConfig cfg = config_with_cores(2);
  cfg.coprocessor.watchdog_cycles = 30'000;
  SignalTrace trace;
  ScheduleTrace sched;
  const GraphPlan plan = make_benchmark_plan(BenchmarkId::kJlisp, 0.05);
  const RunOutcome run =
      run_once(plan, cfg, /*fast_forward=*/true, trace, sched, &faults);
  ASSERT_TRUE(run.aborted);
  EXPECT_EQ(run.reason, AbortReason::kWildPointer);
  expect_observation_pure(plan, cfg, &faults);
}

// --- observer-free equivalence (parked cores) --------------------------------
//
// With no observer attached, parked cores are not visited at all: the step
// loop walks only the runnable cores. The fig5 plans at every core count
// cover that walk, on the default memory and on variants that change what
// a parked core waits for.

TEST(FastForward, ObserverFreeRunsIdentical) {
  struct Variant {
    const char* name;
    SimConfig cfg;
  };
  std::vector<Variant> variants;
  variants.push_back({"default", SimConfig{}});
  {
    SimConfig cfg;
    cfg.coprocessor.markbit_early_read = true;
    variants.push_back({"markbit_early_read", cfg});
  }
  {
    SimConfig cfg;
    cfg.coprocessor.subobject_copy = true;
    variants.push_back({"subobject_copy", cfg});
  }
  {
    SimConfig cfg;
    cfg.memory.latency += 20;
    cfg.memory.header_latency += 20;
    cfg.memory.header_cache_entries = 64;
    variants.push_back({"latency+20, 64-entry header cache", cfg});
  }
  {
    SimConfig cfg;
    cfg.coprocessor.header_fifo_capacity = 8;
    cfg.memory.bandwidth_per_cycle = 1;
    variants.push_back({"8-entry FIFO, bandwidth 1", cfg});
  }
  {
    SimConfig cfg;
    cfg.coprocessor.schedule = SchedulePolicyKind::kRandom;
    cfg.coprocessor.schedule_seed = 77;
    variants.push_back({"random schedule", cfg});
  }
  for (BenchmarkId id : all_benchmarks()) {
    const GraphPlan plan = make_benchmark_plan(id, 0.05);
    for (const Variant& v : variants) {
      for (std::uint32_t cores : {1u, 2u, 3u, 8u, 16u}) {
        SCOPED_TRACE(std::string(benchmark_name(id)) + ", " + v.name +
                     ", cores=" + std::to_string(cores));
        SimConfig cfg = v.cfg;
        cfg.coprocessor.num_cores = cores;
        const RunOutcome t = expect_bare_equivalent(plan, cfg);
        EXPECT_FALSE(t.aborted);
      }
    }
  }
}

TEST(FastForward, WatchdogExpiringWhileParkedIdentical) {
  // Fault-free, a tiny budget: the watchdog fires mid-collection while
  // cores are parked on loads or polls. The suspect scan must see a parked
  // core as clocked in the last cycle, exactly like the ticked run.
  // A budget under 80 makes a core idle for budget/8 cycles a suspect, so
  // +20 latency (header waits of 30 cycles) would expose a parked core
  // counted as unclocked since it parked.
  const GraphPlan plan = make_benchmark_plan(BenchmarkId::kJlisp, 0.05);
  for (SchedulePolicyKind kind :
       {SchedulePolicyKind::kFixedPriority, SchedulePolicyKind::kRotating}) {
    for (Cycle extra_latency : {Cycle{0}, Cycle{20}}) {
      for (std::uint32_t cores : {2u, 8u}) {
        for (Cycle budget : {3, 5, 7, 20, 40, 60, 150, 400, 1000}) {
          SCOPED_TRACE(std::string(to_string(kind)) + ", latency+" +
                       std::to_string(extra_latency) + ", cores=" +
                       std::to_string(cores) + ", watchdog=" +
                       std::to_string(budget));
          SimConfig cfg = config_with_cores(cores);
          cfg.coprocessor.schedule = kind;
          cfg.coprocessor.watchdog_cycles = budget;
          cfg.memory.latency += extra_latency;
          cfg.memory.header_latency += extra_latency;
          const RunOutcome t = expect_bare_equivalent(plan, cfg);
          ASSERT_TRUE(t.aborted);
          EXPECT_EQ(t.reason, AbortReason::kWatchdog);
          EXPECT_EQ(t.abort_at, budget);
        }
      }
    }
  }
  // Core 0 walks the roots alone and waits on its first root's header
  // from cycle 2 to 11: a budget under 8 names the core that was clocked
  // last, here the parked core 0. The rotating schedule keeps the jump
  // off, so the expiry is found by ticking past a parked core.
  SimConfig cfg = config_with_cores(4);
  cfg.coprocessor.schedule = SchedulePolicyKind::kRotating;
  cfg.coprocessor.watchdog_cycles = 5;
  const RunOutcome t = expect_bare_equivalent(plan, cfg);
  ASSERT_TRUE(t.aborted);
  EXPECT_EQ(t.suspect, 0u);
}

// --- ticking-assumption regressions ----------------------------------------
//
// Audit of per-tick accounting in the clock loop (everything else in the
// tree reads stats.total_cycles, i.e. the clock): each site below used to
// assume one loop iteration == one cycle and was converted to bulk
// accounting when fast-forward landed. These tests exercise each site
// across a jump and pin the ticked value, so a regression to ++-per-
// iteration accounting shows up as a concrete undercount, not just a
// generic equality failure.

TEST(FastForward, WorklistEmptyCyclesAccumulateAcrossJumps) {
  // Table I's counter: while the last gray object's header load is in
  // flight, scan == free and the other cores idle — a quiescent window
  // that fast-forward skips, so the counter must be bumped by the jump
  // length, not by loop iterations.
  SimConfig cfg = config_with_cores(4);
  cfg.memory.latency += 20;
  cfg.memory.header_latency += 20;
  const RunOutcome t =
      expect_equivalent(make_benchmark_plan(BenchmarkId::kJlisp, 0.05), cfg);
  EXPECT_GT(t.stats.worklist_empty_cycles, 0u);
}

TEST(FastForward, ScheduleTraceCountsSkippedCycles) {
  // cycles_recorded() is the watchdog of the schedule ring: it must equal
  // the number of scan-phase cycles even when most of them were never
  // stepped, and the tail expanded from its runs must be gap-free.
  SimConfig cfg = config_with_cores(2);
  cfg.memory.latency += 20;
  cfg.memory.header_latency += 20;
  SignalTrace trace;
  ScheduleTrace sched;
  const GraphPlan plan = make_benchmark_plan(BenchmarkId::kJlisp, 0.05);
  const RunOutcome ff =
      run_once(plan, cfg, /*fast_forward=*/true, trace, sched);
  EXPECT_GT(sched.cycles_recorded(), 0u);
  EXPECT_LE(sched.cycles_recorded(), ff.stats.total_cycles);
  for (std::size_t i = 1; i < sched.orders().size(); ++i) {
    EXPECT_EQ(sched.orders()[i].first, sched.orders()[i - 1].first + 1)
        << "ring entries must be contiguous cycles";
  }
}

TEST(FastForward, DrainCyclesMeasuredAcrossJumps) {
  // drain_cycles = clock at flush minus clock at halt; the drain phase is
  // one long quiescent window (cores done, stores in flight), so it is
  // usually jumped in a single step.
  SimConfig cfg = config_with_cores(4);
  cfg.memory.latency += 20;
  const RunOutcome t =
      expect_equivalent(make_benchmark_plan(BenchmarkId::kJlisp, 0.05), cfg);
  EXPECT_GT(t.stats.drain_cycles, 0u);
}

TEST(FastForward, StallCountersAbsorbJumpedCycles) {
  // Per-core stall attribution (Table II) must grow by the jump length:
  // with two cores and long header latency the header-load stall counter
  // dwarfs the number of loop iterations a fast-forwarded run executes.
  SimConfig cfg = config_with_cores(2);
  cfg.memory.header_latency = 200;
  const RunOutcome t =
      expect_equivalent(make_benchmark_plan(BenchmarkId::kJlisp, 0.02), cfg);
  EXPECT_GT(t.stats.mean_stall(StallReason::kHeaderLoad), 100.0);
}

// --- fault-injected equivalence --------------------------------------------

TEST(FastForward, CoreStallWindowIdentical) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kCoreStall;
  e.target_core = 1;
  e.trigger = 50;
  e.param = 200;
  plan.events.push_back(e);
  const RunOutcome t = expect_equivalent(
      make_benchmark_plan(BenchmarkId::kJlisp, 0.05), config_with_cores(4),
      &plan);
  EXPECT_FALSE(t.aborted);
  EXPECT_EQ(t.stats.faults_fired, 1u);
  EXPECT_EQ(t.fault_log.size(), 1u);
}

TEST(FastForward, LockDelayWindowIdentical) {
  for (LockKind lock : {LockKind::kScan, LockKind::kFree}) {
    SCOPED_TRACE(lock == LockKind::kScan ? "scan" : "free");
    FaultPlan plan;
    FaultEvent e;
    e.kind = FaultKind::kLockDelay;
    e.lock = lock;
    e.trigger = 30;
    e.param = 120;
    plan.events.push_back(e);
    const RunOutcome t = expect_equivalent(
        make_benchmark_plan(BenchmarkId::kJlisp, 0.05), config_with_cores(4),
        &plan);
    EXPECT_FALSE(t.aborted);
  }
}

TEST(FastForward, MemDelayIdentical) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kMemDelay;
  e.target_core = 0;
  e.port = Port::kHeader;
  e.op = MemOp::kLoad;
  e.trigger = 2;
  e.param = 400;  // long in-flight gap: a pure fast-forward window
  plan.events.push_back(e);
  const RunOutcome t = expect_equivalent(
      make_benchmark_plan(BenchmarkId::kJlisp, 0.05), config_with_cores(2),
      &plan);
  EXPECT_FALSE(t.aborted);
  EXPECT_EQ(t.stats.faults_fired, 1u);
}

TEST(FastForward, MemDropHangAbortsAtIdenticalWatchdogCycle) {
  // The ISSUE's "watchdog budgets must account for skipped cycles" case: a
  // dropped header-load reply leaves its core waiting forever. Ticked, the
  // clock grinds to watchdog_cycles one cycle at a time; fast-forwarded it
  // jumps there in one step. The CollectionAbort must carry the identical
  // cycle and suspect either way.
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kMemDrop;
  e.target_core = 1;
  e.port = Port::kHeader;
  e.op = MemOp::kLoad;
  e.trigger = 1;
  plan.events.push_back(e);
  SimConfig cfg = config_with_cores(4);
  cfg.coprocessor.watchdog_cycles = 20'000;
  const RunOutcome t = expect_equivalent(
      make_benchmark_plan(BenchmarkId::kJlisp, 0.05), cfg, &plan);
  ASSERT_TRUE(t.aborted);
  EXPECT_EQ(t.reason, AbortReason::kWatchdog);
  EXPECT_EQ(t.abort_at, cfg.coprocessor.watchdog_cycles);
}

TEST(FastForward, StuckBusyHangAbortsIdentically) {
  // A stuck-at-1 busy bit defeats the termination condition: every core
  // idles on an empty worklist until the watchdog fires. The suspect scan
  // (busy() vs busy_raw()) must localize the same core in both runs.
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kStuckBusy;
  e.target_core = 2;
  e.trigger = 100;
  plan.events.push_back(e);
  SimConfig cfg = config_with_cores(4);
  cfg.coprocessor.watchdog_cycles = 20'000;
  const RunOutcome t = expect_equivalent(
      make_benchmark_plan(BenchmarkId::kJlisp, 0.05), cfg, &plan);
  ASSERT_TRUE(t.aborted);
  EXPECT_EQ(t.reason, AbortReason::kWatchdog);
  EXPECT_EQ(t.suspect, 2u);
  EXPECT_EQ(t.abort_at, cfg.coprocessor.watchdog_cycles);
}

TEST(FastForward, FailStopIdentical) {
  // Whether the dead core leaves a hang (it died busy) or the others finish
  // without it (it died idle) must be the same answer in both runs.
  for (Cycle trigger : {Cycle{10}, Cycle{500}}) {
    SCOPED_TRACE("trigger=" + std::to_string(trigger));
    FaultPlan plan;
    FaultEvent e;
    e.kind = FaultKind::kCoreFailStop;
    e.target_core = 1;
    e.trigger = trigger;
    plan.events.push_back(e);
    SimConfig cfg = config_with_cores(4);
    cfg.coprocessor.watchdog_cycles = 20'000;
    expect_equivalent(make_benchmark_plan(BenchmarkId::kJlisp, 0.05), cfg,
                      &plan);
  }
}

TEST(FastForward, FailStopHoldingFreeLockHangsIdentically) {
  // Dying inside the 1-cycle free critical section leaves the free lock
  // held forever — the nastiest hang the paper's watchdog must catch.
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kCoreFailStop;
  e.target_core = 1;
  e.when_holding_free = true;
  plan.events.push_back(e);
  SimConfig cfg = config_with_cores(4);
  cfg.coprocessor.watchdog_cycles = 20'000;
  const RunOutcome t = expect_equivalent(
      make_benchmark_plan(BenchmarkId::kJlisp, 0.05), cfg, &plan);
  ASSERT_TRUE(t.aborted);
  EXPECT_EQ(t.reason, AbortReason::kWatchdog);
  EXPECT_EQ(t.abort_at, cfg.coprocessor.watchdog_cycles);
}

TEST(FastForward, CombinedFaultPlanIdentical) {
  // Several cycle-triggered events with overlapping windows: the boundary
  // clamping must land every firing on a live cycle in the right order.
  FaultPlan plan;
  FaultEvent stall;
  stall.kind = FaultKind::kCoreStall;
  stall.target_core = 0;
  stall.trigger = 40;
  stall.param = 300;
  plan.events.push_back(stall);
  FaultEvent lockd;
  lockd.kind = FaultKind::kLockDelay;
  lockd.lock = LockKind::kScan;
  lockd.trigger = 100;
  lockd.param = 250;
  plan.events.push_back(lockd);
  FaultEvent delay;
  delay.kind = FaultKind::kMemDelay;
  delay.target_core = 1;
  delay.port = Port::kBody;
  delay.op = MemOp::kLoad;
  delay.trigger = 3;
  delay.param = 150;
  plan.events.push_back(delay);
  const RunOutcome t = expect_equivalent(
      make_benchmark_plan(BenchmarkId::kJlisp, 0.05), config_with_cores(4),
      &plan);
  EXPECT_FALSE(t.aborted);
}

TEST(FastForward, SeededFaultPlansIdentical) {
  // Seeded plans mix all classes; sweep a few seeds for breadth. Outcomes
  // (complete or abort) vary by seed — only equality matters here.
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FaultConfig fc;
    fc.seed = seed;
    fc.events = 4;
    const FaultPlan plan = FaultPlan::from_config(fc, 4);
    SimConfig cfg = config_with_cores(4);
    cfg.coprocessor.watchdog_cycles = 50'000;
    expect_equivalent(make_benchmark_plan(BenchmarkId::kJlisp, 0.05), cfg,
                      &plan);
  }
}

}  // namespace
}  // namespace hwgc
