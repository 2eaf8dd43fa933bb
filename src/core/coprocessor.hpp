// The multi-core garbage-collection coprocessor (paper Figure 2).
//
// Owns the per-collection hardware state — Synchronization Block, memory
// access scheduler and header FIFO — instantiates N GC cores and clocks
// them to completion of one collection cycle. The "main processor" is
// stopped for the duration of the cycle (Section V-B); its root registers
// are the heap's root vector.
//
// A cycle runs:
//   1. scan/free initialized to the tospace base (Core 1's job, V-E);
//   2. core 0 evacuates all root-referenced objects;
//   3. start barrier releases every core into the parallel scan loop;
//   4. each core observes scan == free with all busy bits clear and halts;
//   5. the coprocessor waits until every store buffer has drained, then
//      "restarts the main processor": flips the heap and publishes the
//      final free pointer as the new allocation frontier.
#pragma once

#include <cstdint>

#include "heap/heap.hpp"
#include "sim/config.hpp"
#include "sim/counters.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace hwgc {

class ScheduleTrace;
class FaultInjector;
class TelemetryBus;
class CycleProfiler;

class Coprocessor {
 public:
  Coprocessor(const SimConfig& cfg, Heap& heap)
      : cfg_(cfg), heap_(heap) {}

  /// Runs one complete collection cycle on the attached heap and returns
  /// its statistics. The heap must hold the live graph in its current
  /// space; afterwards the graph lives compacted in the flipped space and
  /// the roots are redirected.
  ///
  /// Throws CollectionAbort (a std::runtime_error) when a detector trips:
  /// watchdog expiry, header checksum mismatch, wild access/pointer or
  /// evacuation overflow. Without fault injection the algorithm is
  /// deadlock-free by lock ordering, so an abort indicates a modeling bug;
  /// under injection the recovery layer (src/fault/recovery.hpp) catches
  /// the abort and retries.
  ///
  /// Cores are stepped each cycle in the order produced by the configured
  /// SchedulePolicy (cfg.coprocessor.schedule; fixed index order — the
  /// prototype's static prioritization — by default). With
  /// cfg.coprocessor.fast_forward, a core waiting on a load, spinning on an
  /// empty worklist, waiting for a held lock or at the start barrier is
  /// parked off the step walk until its load retires or the SyncBlock
  /// fires the wake channel of what it polled; under a fault plan a core
  /// with an injected fate, one whose lock grant an injected delay
  /// withholds and a finished core park until the plan's next cycle
  /// boundary. While no core is in the walk, the fixed order jumps the
  /// clock to the next event (DESIGN.md §13). Either way the result is
  /// identical. A fault-free parked run in which no core can run and
  /// nothing is in flight is a lost wake, a simulator bug: it throws
  /// std::logic_error naming the parked cores and their channels.
  ///
  /// `fault`, when non-null, is threaded through to the SyncBlock and the
  /// memory scheduler and consulted for the fate of each core the walk
  /// steps; the caller (normally RecoveringCollector) must have called
  /// begin_attempt.
  ///
  /// The other four pointers are optional subscribers of the clock loop's
  /// one event stream, published per change (sim/clock_observer.hpp):
  ///   * `trace` samples the scan and free pointers, gray-object word
  ///     count and busy-core count on change — the software counterpart
  ///     of the prototype's 32-signal FPGA monitor (Section VI-A);
  ///   * `schedule_trace` keeps the most recent step orders, so a failing
  ///     fuzz case can print the interleaving that broke it;
  ///   * `telemetry` records phases, per-core activity spans, lock holds,
  ///     FIFO and memory counters and the flip as one bus epoch; on a
  ///     CollectionAbort the epoch is closed with an abort instant;
  ///   * `profiler` attributes every cycle of every core to one stall
  ///     class (profile/stall_class.hpp) plus the per-cycle binding class.
  /// Pure observation: the simulated result is identical with and without
  /// them, and none of them keeps the clock from fast-forwarding or a core
  /// from parking — a run that repeats publishes nothing, and what they
  /// record is bit-identical to a ticked run.
  GcCycleStats collect(SignalTrace* trace = nullptr,
                       ScheduleTrace* schedule_trace = nullptr,
                       FaultInjector* fault = nullptr,
                       TelemetryBus* telemetry = nullptr,
                       CycleProfiler* profiler = nullptr);

  const SimConfig& config() const noexcept { return cfg_; }

  /// Cycles the last collect() skipped by jumping the clock, also when it
  /// aborted (a completed one reports them in its GcCycleStats too).
  Cycle fast_forwarded_cycles() const noexcept { return fast_forwarded_; }

 private:
  SimConfig cfg_;
  Heap& heap_;
  Cycle fast_forwarded_ = 0;
};

}  // namespace hwgc
