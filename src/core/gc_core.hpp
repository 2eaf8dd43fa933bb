// One microprogrammed GC core (paper Sections IV and V).
//
// Each core executes the parallel Cheney scan loop as a per-cycle state
// machine — the software analogue of the prototype's 180-word microprogram.
// One state transition per clock; memory operations are initiated
// asynchronously through the core's four port buffers, and the core stalls
// (attributing the cycle to a StallReason) only when
//   * a lock is contended (scan / free / header CAM),
//   * it needs load data that has not arrived,
//   * it issues a store into a full store buffer, or
//   * it waits at a synchronizing micro-instruction (barrier).
//
// Core 0 plays the paper's "Core 1" role: it evacuates the root set before
// the start barrier releases the other cores into the scan loop
// (Section V-E).
#pragma once

#include <cstdint>

#include "core/sync_block.hpp"
#include "heap/heap.hpp"
#include "mem/header_fifo.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// Shared hardware context visible to every core.
struct GcContext {
  SyncBlock& sb;
  MemorySystem& mem;
  HeaderFifo& fifo;
  Heap& heap;
  CoprocessorConfig cfg;
};

class GcCore {
 public:
  GcCore(CoreId id, GcContext& ctx);

  /// Advances the core by one clock cycle, records what it did (cycle())
  /// and charges the record to its counters.
  void step(Cycle now);

  /// Called by the clock loop instead of step() when an injected transient
  /// stall holds the core's clock for this cycle.
  void note_fault_stall() noexcept { stall(StallReason::kFault); }

  /// Called by the clock loop instead of step() when the core misses its
  /// clock (finished, fail-stopped, or halted for the store drain).
  void miss_clock() noexcept { cycle_ = {}; }

  /// This core's record of the last cycle the clock loop ran.
  CoreCycle cycle() const noexcept { return cycle_; }

  /// Charges `k` more copies of the last cycle's record (fast-forward, or
  /// the cycles a parked core was not stepped).
  void absorb(Cycle k) noexcept { counters_.add(cycle_, k); }

  /// The stall every step() records while the core waits on a load still
  /// in flight — kHeaderLoad or kBodyLoad, touching no shared state until
  /// the load retires — or kNone when it is not waiting on one.
  StallReason load_wait() const noexcept {
    switch (state_) {
      case State::kFetchHeaderWait:
      case State::kChildPeekWait:
      case State::kChildHeaderWait:
        return ctx_.mem.load_pending(id_, Port::kHeader)
                   ? StallReason::kHeaderLoad
                   : StallReason::kNone;
      case State::kPtrLoadWait:
      case State::kDataLoadWait:
      case State::kStripeLoadWait:
        return ctx_.mem.load_pending(id_, Port::kBody) ? StallReason::kBodyLoad
                                                       : StallReason::kNone;
      default:
        return StallReason::kNone;
    }
  }

  /// Parking on a load: when the core waits on one (load_wait()), makes
  /// that stall its cycle() — the record its skipped cycles repeat, even
  /// if the last step issued the load — and returns true. The clock loop
  /// then skips its steps and absorbs them once the load retires.
  bool park_on_load() noexcept {
    const StallReason r = load_wait();
    if (r == StallReason::kNone) return false;
    cycle_ = {CoreActivity::kStall, r};
    return true;
  }

  /// True when the last step only polled SyncBlock state and every
  /// further step() repeats it, touching nothing, until the SyncBlock's
  /// work_version() moves: a spin on an empty worklist while termination
  /// does not hold and no stripe work waits, a wait for a scan or header
  /// lock that another core holds, or a wait at the start barrier after
  /// this core's arrival. Fault-free runs only (all_idle() would consult
  /// the injector, and an injected grant suppression ends on its own).
  bool polling() const noexcept {
    const SyncBlock& sb = ctx_.sb;
    if (cycle_.activity == CoreActivity::kIdle) {
      return sb.worklist_empty() && !(sb.all_idle() && sb.stripes_idle()) &&
             !(ctx_.cfg.subobject_copy && sb.stripe_work_available());
    }
    if (cycle_ == CoreCycle{CoreActivity::kStall, StallReason::kScanLock}) {
      // Held across cycles, not merely granted to another core this cycle.
      const CoreId owner = sb.scan_owner();
      return owner != SyncBlock::kNoOwner && owner != id_;
    }
    if (cycle_ == CoreCycle{CoreActivity::kStall, StallReason::kBarrier}) {
      // Arrived at the start barrier: re-arrival is idempotent until the
      // last arrival releases it.
      return sb.barrier_arrived(id_);
    }
    return cycle_ == CoreCycle{CoreActivity::kStall, StallReason::kHeaderLock};
  }

  /// True once the core has observed global termination (scan == free with
  /// every busy bit clear) and left the scan loop.
  bool done() const noexcept { return state_ == State::kDone; }

  CoreId id() const noexcept { return id_; }
  const CoreCounters& counters() const noexcept { return counters_; }

  // --- fast-forward support (DESIGN.md §13) -------------------------------

  /// Core-local quiescence classification. A core is `steady` when every
  /// upcoming step() until some external event repeats with the record
  /// `cycle`:
  ///   kOff   — done: step() is a no-op;
  ///   kStall — stalls for the same reason every cycle; when the stall is
  ///            on a lock, `blocker` names the holder, who must be steady
  ///            too for the wait to be;
  ///   kIdle  — spins on an empty worklist; the caller must still rule out
  ///            the termination transition and stripe work (they need
  ///            fault-steady global views).
  /// Not steady: the next step makes progress or mutates shared state, so
  /// the cycle must be executed normally. Pure: consults no fault hooks and
  /// mutates nothing. Fault fates (stall windows, fail-stop) override this
  /// in the clock loop.
  struct FfPoll {
    bool steady = false;
    CoreCycle cycle;
    CoreId blocker = kNoCore;
    /// Set while an uncontended scan/free lock acquisition is the only
    /// obstacle: an injected steady grant suppression turns the core into
    /// a steady kScanLock/kFreeLock stall.
    StallReason if_suppressed = StallReason::kNone;
  };
  FfPoll ff_poll() const;

 private:
  enum class State : std::uint8_t {
    // Root phase (core 0) / start barrier (all cores).
    kRootInit,
    kStartBarrier,
    // Scan loop.
    kFetchWork,
    kFetchHeaderWait,  // header FIFO miss: memory read under the scan lock
    kPtrLoadIssue,
    kPtrLoadWait,
    kChildPeek,        // markbit_early_read: unlocked header read
    kChildPeekWait,
    kChildLock,
    kChildHeaderWait,
    kEvacuate,
    kPtrStore,
    kDataLoadIssue,
    kDataLoadWait,
    kBlacken,
    // Sub-object copying (Section VII future work 1).
    kStripePublish,
    kStripeLoadIssue,
    kStripeLoadWait,
    kStripeBlacken,
    kDone,
  };

  // Every clock cycle a stepped core spends is recorded as exactly one of
  // these and charged to its counters; the clock loop publishes the record
  // to its observer.
  void record(CoreCycle c) noexcept {
    cycle_ = c;
    counters_.add(c);
  }
  void stall(StallReason r) noexcept { record({CoreActivity::kStall, r}); }
  void work() noexcept { record({CoreActivity::kBusy}); }
  void idle() noexcept { record({CoreActivity::kIdle}); }

  // State handlers; each models exactly one clock cycle.
  void do_root_init();
  void do_start_barrier();
  void do_fetch_work();
  void do_fetch_header_wait();
  void do_ptr_load_issue();
  void do_ptr_load_wait();
  void do_child_peek();
  void do_child_peek_wait();
  void do_child_lock();
  void do_child_header_wait();
  void do_evacuate();
  void do_ptr_store();
  void do_data_load_issue();
  void do_data_load_wait();
  void do_blacken();
  void do_stripe_publish();
  void do_stripe_load_issue();
  void do_stripe_load_wait();
  void do_stripe_blacken();

  /// Common continuation once the header of the object at `scan` is known:
  /// advance scan past it, mark this core busy, release the scan lock.
  void begin_object(Word attrs, Addr backlink);

  /// Continuation after a child pointer has been resolved to `fwd_`.
  void child_resolved();

  /// Next state after pointer field `field_i_` has been written.
  void advance_field();

  /// State that starts the data-area phase of the current object: plain
  /// sequential copy, striped hand-off (large objects with subobject_copy
  /// enabled) or straight to blackening when there is no data.
  State data_phase_state() const;

  /// Header-load ECC check (fault detection): verifies the checksums of
  /// both header words of `obj` before the core consumes them. Throws
  /// CollectionAbort(kChecksum) on a mismatch. No-op with ECC disabled.
  void verify_header_ecc(Addr obj) const;

  CoreId id_;
  GcContext& ctx_;
  CoreCounters counters_{};
  CoreCycle cycle_{};  ///< what the core did in the last cycle
  State state_;
  Cycle now_ = 0;  ///< current clock, for abort reports

  // Per-object registers (the core's register file).
  Addr frame_addr_ = kNullPtr;  ///< tospace copy under construction
  Addr orig_addr_ = kNullPtr;   ///< fromspace original (from the backlink)
  Word attrs_ = 0;
  Word pi_ = 0;
  Word delta_ = 0;
  Word field_i_ = 0;
  Word data_j_ = 0;
  Addr child_ = kNullPtr;
  Word child_attrs_ = 0;
  Addr fwd_ = kNullPtr;

  // Sub-object copying registers.
  SyncBlock::StripeTask stripe_task_{};
  Word stripe_j_ = 0;

  // Root-evacuation bookkeeping (core 0 only).
  std::size_t root_k_ = 0;
  bool processing_root_ = false;

  std::uint64_t start_barrier_gen_ = 0;
};

}  // namespace hwgc
