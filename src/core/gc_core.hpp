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

#include <cassert>
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

  /// When the last step only polled SyncBlock state, so that every further
  /// step() repeats it, touching nothing, until that state changes: the
  /// SyncBlock wake channel that fires on the change. Those polls are
  ///   * a spin on an empty worklist while termination does not hold and
  ///     no stripe work waits: kWorklistChannel;
  ///   * a wait for a scan or free lock another core holds across cycles
  ///     (not one merely granted this cycle, which is free again next cycle
  ///     without a release): kScanLockChannel or kFreeLockChannel;
  ///   * a wait for a header lock: the holder's header_lock_channel;
  ///   * a wait at the start barrier after this core's arrival (re-arrival
  ///     is idempotent until the last arrival releases it):
  ///     kBarrierChannel.
  /// kNoChannel otherwise. Pure: the termination test reads busy_count(),
  /// which consults no fault hook, so deciding to park fires nothing.
  SyncBlock::Channel poll_channel() const noexcept {
    const SyncBlock& sb = ctx_.sb;
    if (cycle_.activity == CoreActivity::kIdle) {
      const bool spins =
          sb.worklist_empty() &&
          !(sb.busy_count() == 0 && sb.stripes_idle()) &&
          !(ctx_.cfg.subobject_copy && sb.stripe_work_available());
      return spins ? SyncBlock::kWorklistChannel : SyncBlock::kNoChannel;
    }
    if (cycle_.activity != CoreActivity::kStall) return SyncBlock::kNoChannel;
    switch (cycle_.reason) {
      case StallReason::kScanLock: {
        const CoreId owner = sb.scan_owner();
        return owner != SyncBlock::kNoOwner && owner != id_
                   ? SyncBlock::kScanLockChannel
                   : SyncBlock::kNoChannel;
      }
      case StallReason::kFreeLock: {
        const CoreId owner = sb.free_owner();
        return owner != SyncBlock::kNoOwner && owner != id_
                   ? SyncBlock::kFreeLockChannel
                   : SyncBlock::kNoChannel;
      }
      case StallReason::kHeaderLock: {
        const CoreId holder =
            sb.header_lock_holder(id_, attributes_addr(child_));
        assert(holder != SyncBlock::kNoOwner);
        return SyncBlock::header_lock_channel(holder);
      }
      case StallReason::kBarrier:
        return sb.barrier_arrived(id_) ? SyncBlock::kBarrierChannel
                                       : SyncBlock::kNoChannel;
      default:
        return SyncBlock::kNoChannel;
    }
  }

  /// True once the core has observed global termination (scan == free with
  /// every busy bit clear) and left the scan loop.
  bool done() const noexcept { return state_ == State::kDone; }

  CoreId id() const noexcept { return id_; }
  const CoreCounters& counters() const noexcept { return counters_; }

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
