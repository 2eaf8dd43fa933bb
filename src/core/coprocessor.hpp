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
  /// cfg.coprocessor.fast_forward and no fault injector, a core waiting on
  /// a load, spinning on an empty worklist or waiting for a held lock is
  /// parked instead of stepped until what it waits for can change
  /// (DESIGN.md §13), with an identical result.
  ///
  /// `fault`, when non-null, is threaded through to the SyncBlock and the
  /// memory scheduler and consulted for each core's fate every cycle; the
  /// caller (normally RecoveringCollector) must have called begin_attempt.
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

 private:
  SimConfig cfg_;
  Heap& heap_;
};

}  // namespace hwgc
