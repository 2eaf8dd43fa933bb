// ClockObserver — the single per-cycle event stream of the coprocessor clock
// loop, the software counterpart of the prototype's monitoring framework,
// which samples all of its internal signals from one per-cycle stream
// (Section VI-A).
//
// Coprocessor::collect publishes, per collection:
//   on_collection_begin, on_phase(root evacuation), then for every cycle
//     on_cycle_begin (the clock edge, with the step order),
//     hardware-module events as they happen: memory in-flight count,
//       SB lock acquire/release, header-FIFO push/pop/overflow,
//     while the cores run: on_core_cycle once per core, in step order,
//       and on_phase on a phase change,
//     on_cycle_end;
//   and finally on_collection_end (completed or aborted).
// The SyncBlock, HeaderFifo and MemorySystem publish through the same
// pointer the clock loop uses. SignalTrace, ScheduleTrace, TelemetryBus
// and CycleProfiler are the subscribers; the per-core cycle counters are
// folded from the same CoreCycle records (CoreCounters::add).
//
// Fast-forward contract: absorb(k) means "the cycle just observed repeats
// k more times". The clock loop only jumps when every core's record for
// the skipped cycles equals its record of the last observed cycle and no
// shared state changes, so a subscriber that folds absorb(k) as k copies
// of its last cycle is bit-identical to a ticked run.
//
// Observation is pure: nothing here feeds back into simulated timing, and
// a null observer costs one branch per publication site.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace hwgc {

class CollectionAbort;

/// Collection phases published by the coprocessor clock loop.
enum class GcPhase : std::uint8_t { kRootEvacuation, kParallelScan, kDrain };

constexpr const char* to_string(GcPhase p) noexcept {
  switch (p) {
    case GcPhase::kRootEvacuation: return "root-evacuation";
    case GcPhase::kParallelScan: return "parallel-scan";
    case GcPhase::kDrain: return "drain";
  }
  return "?";
}

/// The two SB registers whose hold spans are observed.
enum class SbLock : std::uint8_t { kScan = 0, kFree = 1 };

constexpr const char* to_string(SbLock l) noexcept {
  return l == SbLock::kScan ? "scan-lock" : "free-lock";
}

/// State published at the end of every cycle.
struct ClockSample {
  Cycle now = 0;
  /// Cores halted, store drain in progress: no core was clocked and the
  /// register fields below are not sampled.
  bool draining = false;
  Addr scan = 0;
  Addr free = 0;
  std::uint32_t busy_cores = 0;  ///< ScanState bits set
};

class ClockObserver {
 public:
  virtual ~ClockObserver() = default;

  /// A collection on `cores` cores starts at local cycle 0.
  virtual void on_collection_begin(std::uint32_t /*cores*/) {}
  /// The collection ends at local cycle `now`: completed (heap flipped)
  /// when `abort` is null, otherwise abandoned by that abort.
  virtual void on_collection_end(Cycle /*now*/,
                                 const CollectionAbort* /*abort*/) {}
  virtual void on_phase(GcPhase) {}

  /// Clock edge. `order` is the cycle's core step order; null while the
  /// cores are halted for the store drain.
  virtual void on_cycle_begin(Cycle /*now*/,
                              const std::vector<CoreId>* /*order*/) {}
  /// What core `core` did this cycle (kOff when it missed its clock).
  virtual void on_core_cycle(CoreId /*core*/, CoreCycle) {}
  virtual void on_cycle_end(const ClockSample&) {}
  /// The cycle just observed repeats `k` more times.
  virtual void absorb(Cycle /*k*/) {}

  virtual void on_lock_acquired(SbLock, CoreId) {}
  virtual void on_lock_released(SbLock, CoreId) {}
  virtual void on_fifo_push(std::size_t /*depth*/) {}
  virtual void on_fifo_pop(std::size_t /*depth*/) {}
  virtual void on_fifo_overflow(std::uint64_t /*overflows*/,
                                std::uint32_t /*capacity*/) {}
  /// Accepted memory transactions still in flight after this tick.
  virtual void on_mem_inflight(std::uint64_t /*count*/) {}
};

/// Forwards every event to each observer it was built over, in order.
class ClockFanout final : public ClockObserver {
 public:
  /// The observer to publish to: null when every sink is null, the sink
  /// itself when exactly one is set, this fan-out otherwise.
  ClockObserver* over(std::initializer_list<ClockObserver*> sinks) {
    for (ClockObserver* s : sinks) {
      if (s != nullptr) sinks_.push_back(s);
    }
    if (sinks_.empty()) return nullptr;
    return sinks_.size() == 1 ? sinks_.front() : this;
  }

  void on_collection_begin(std::uint32_t cores) override {
    for (auto* s : sinks_) s->on_collection_begin(cores);
  }
  void on_collection_end(Cycle now, const CollectionAbort* abort) override {
    for (auto* s : sinks_) s->on_collection_end(now, abort);
  }
  void on_phase(GcPhase p) override {
    for (auto* s : sinks_) s->on_phase(p);
  }
  void on_cycle_begin(Cycle now, const std::vector<CoreId>* order) override {
    for (auto* s : sinks_) s->on_cycle_begin(now, order);
  }
  void on_core_cycle(CoreId core, CoreCycle c) override {
    for (auto* s : sinks_) s->on_core_cycle(core, c);
  }
  void on_cycle_end(const ClockSample& sample) override {
    for (auto* s : sinks_) s->on_cycle_end(sample);
  }
  void absorb(Cycle k) override {
    for (auto* s : sinks_) s->absorb(k);
  }
  void on_lock_acquired(SbLock lock, CoreId core) override {
    for (auto* s : sinks_) s->on_lock_acquired(lock, core);
  }
  void on_lock_released(SbLock lock, CoreId core) override {
    for (auto* s : sinks_) s->on_lock_released(lock, core);
  }
  void on_fifo_push(std::size_t depth) override {
    for (auto* s : sinks_) s->on_fifo_push(depth);
  }
  void on_fifo_pop(std::size_t depth) override {
    for (auto* s : sinks_) s->on_fifo_pop(depth);
  }
  void on_fifo_overflow(std::uint64_t overflows,
                        std::uint32_t capacity) override {
    for (auto* s : sinks_) s->on_fifo_overflow(overflows, capacity);
  }
  void on_mem_inflight(std::uint64_t count) override {
    for (auto* s : sinks_) s->on_mem_inflight(count);
  }

 private:
  std::vector<ClockObserver*> sinks_;
};

}  // namespace hwgc
