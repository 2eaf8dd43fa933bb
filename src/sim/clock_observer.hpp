// ClockObserver — the event stream of the coprocessor clock loop, the
// software counterpart of the prototype's monitoring framework, which
// samples all of its internal signals from one stream without slowing the
// collector (Section VI-A).
//
// The stream is published per change, not per cycle. Coprocessor::collect
// publishes, per collection:
//   on_collection_begin (with the loop's clock), on_phase(root evacuation);
//   on_step_order when the cores' step order changes: once under the
//     fixed policy, every cycle it moves under the others, and null from
//     the first store-drain cycle on;
//   on_core_run when a core's record differs from the last one published
//     for it: the core repeats `rec` every cycle from `now` on, until its
//     next run or the end of the collection. A parked core publishes
//     nothing until it wakes; the record it parked with is published at
//     its step turn of the first parked cycle. Cores halted for the store
//     drain publish kOff runs at the first drain cycle;
//   on_sample when scan, free or the busy count changed in a cycle, and
//     once (draining) at the first store-drain cycle;
//   hardware-module events as they happen, stamped by the clock: memory
//     in-flight count on change, SB lock acquire/release, header-FIFO
//     push/pop/overflow, and on_phase on a phase change;
//   and finally on_collection_end (completed or aborted). A run or step
//   order still open then lasts through the clock's last edge: cycle
//   now - 1, unless an abort was thrown inside cycle now. Such an abort
//   first publishes a kOff run at now for every core the cycle had not
//   clocked yet.
// The SyncBlock, HeaderFifo and MemorySystem publish through the same
// pointer the clock loop uses. SignalTrace, ScheduleTrace, TelemetryBus
// and CycleProfiler are the subscribers; each folds the runs it is given
// into exactly what a cycle-by-cycle replay of them would produce.
//
// Fast-forward needs nothing from a subscriber: a jumped window repeats
// every record and changes no shared state, so it publishes nothing, and
// the runs open before it simply last through it.
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

/// State published at the end of a cycle that changed it.
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

  /// A collection on `cores` cores starts at local cycle 0. `clock` is the
  /// loop's clock until on_collection_end: the cycle whose edge was
  /// published last, which stamps every event that carries no cycle.
  virtual void on_collection_begin(std::uint32_t /*cores*/,
                                   const Cycle& /*clock*/) {}
  /// The collection ends at local cycle `now`: completed (heap flipped)
  /// when `abort` is null, otherwise abandoned by that abort.
  virtual void on_collection_end(Cycle /*now*/,
                                 const CollectionAbort* /*abort*/) {}
  virtual void on_phase(GcPhase) {}

  /// From cycle `now` on the cores step in `order`; null while they are
  /// halted for the store drain (or once an abort stopped the clock).
  virtual void on_step_order(Cycle /*now*/,
                             const std::vector<CoreId>* /*order*/) {}
  /// From cycle `now` on, core `core` records `rec` every cycle (kOff:
  /// it misses its clock), until its next run or the collection's end.
  virtual void on_core_run(CoreId /*core*/, Cycle /*now*/, CoreCycle) {}
  /// End of a cycle in which scan, free or the busy count changed, or the
  /// first store-drain cycle.
  virtual void on_sample(const ClockSample&) {}

  virtual void on_lock_acquired(SbLock, CoreId) {}
  virtual void on_lock_released(SbLock, CoreId) {}
  virtual void on_fifo_push(std::size_t /*depth*/) {}
  virtual void on_fifo_pop(std::size_t /*depth*/) {}
  virtual void on_fifo_overflow(std::uint64_t /*overflows*/,
                                std::uint32_t /*capacity*/) {}
  /// Accepted memory transactions still in flight after a tick, published
  /// when the count changed.
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

  void on_collection_begin(std::uint32_t cores, const Cycle& clock) override {
    for (auto* s : sinks_) s->on_collection_begin(cores, clock);
  }
  void on_collection_end(Cycle now, const CollectionAbort* abort) override {
    for (auto* s : sinks_) s->on_collection_end(now, abort);
  }
  void on_phase(GcPhase p) override {
    for (auto* s : sinks_) s->on_phase(p);
  }
  void on_step_order(Cycle now, const std::vector<CoreId>* order) override {
    for (auto* s : sinks_) s->on_step_order(now, order);
  }
  void on_core_run(CoreId core, Cycle now, CoreCycle rec) override {
    for (auto* s : sinks_) s->on_core_run(core, now, rec);
  }
  void on_sample(const ClockSample& sample) override {
    for (auto* s : sinks_) s->on_sample(sample);
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
