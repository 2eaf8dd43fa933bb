// The Synchronization Block (SB) — paper Section V-C.
//
// Hardware state:
//  * `scan` and `free` registers readable by all cores every cycle, each
//    guarded by a lock with static-priority arbitration;
//  * one header-lock register per core, compared associatively against all
//    other cores' registers (a small CAM) on each acquisition attempt;
//  * the ScanState register of per-core busy bits for termination
//    detection;
//  * a barrier: any micro-instruction can be marked synchronizing, and the
//    SB stalls a core executing one until all cores have reached such an
//    instruction.
//
// Cost model, matching Section V-C: acquisition and release are free in the
// uncontended case, and a lock released by one core can be re-acquired by
// another core in the same clock cycle. The simulator steps cores in index
// order within a cycle, which realizes the static prioritization scheme
// (lower core index wins simultaneous claims).
//
// The SB also hosts a lock-order auditor. The algorithm's fixed ordering
// scan < header < free guarantees deadlock freedom (Habermann); the auditor
// records any violation so tests can assert there are none.
//
// Wake channels (simulator side, DESIGN.md §13): a stalled core waits in
// hardware until a release or a register write frees it. The SB models
// that with five kinds of channel (worklist, scan lock, free lock, one per
// header-lock holder, barrier); the clock loop parks a polling core on the
// channel of what it polled and steps it again only once that channel
// fires.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "heap/object_model.hpp"

#include "sim/types.hpp"

namespace hwgc {

class FaultInjector;
class ClockObserver;

class SyncBlock {
 public:
  /// `fault`, when non-null, can suppress scan/free lock grants (spurious
  /// arbitration failure) and force busy bits to read stuck-at-1. `obs`,
  /// when non-null, sees every scan-/free-lock acquisition and release
  /// (observation only; never affects arbitration).
  explicit SyncBlock(std::uint32_t num_cores, FaultInjector* fault = nullptr,
                     ClockObserver* obs = nullptr);

  std::uint32_t num_cores() const noexcept {
    return static_cast<std::uint32_t>(busy_.size());
  }

  // --- scan / free registers ---------------------------------------------

  Addr scan() const noexcept { return scan_; }
  Addr free() const noexcept { return free_; }
  /// Fires no channel: scan only advances toward free, so the write can
  /// empty the worklist but never refill it, and the one poll an emptied
  /// worklist ends (a scan-lock wait) is woken by the unlock_scan that
  /// follows the write in the same step.
  void set_scan(Addr a) noexcept { scan_ = a; }
  void set_free(Addr a) noexcept {
    free_ = a;
    fire(kWorklistChannel);
  }

  /// Upper bound for evacuation allocation. In stop-the-world cycles this
  /// is the tospace end; in concurrent cycles the mutator bump-allocates
  /// new (black) objects downward from the top of tospace, Baker-style,
  /// and this register holds the boundary.
  Addr alloc_top() const noexcept { return alloc_top_; }
  void set_alloc_top(Addr a) noexcept { alloc_top_ = a; }

  /// True while the worklist is empty (no gray object available).
  bool worklist_empty() const noexcept { return scan_ == free_; }

  // --- locks ---------------------------------------------------------------

  /// Clock edge: resets the per-cycle acquisition budget of the scan and
  /// free locks. "At most one core may modify each of these two registers
  /// during a clock cycle" (Section V-C) — so each lock admits at most one
  /// acquisition per cycle, while a multi-cycle hold can still be handed
  /// off in the cycle it is released.
  void begin_cycle() noexcept {
    scan_acquired_this_cycle_ = false;
    free_acquired_this_cycle_ = false;
    scan_withheld_this_cycle_ = false;
    free_withheld_this_cycle_ = false;
    stripe_grabbed_this_cycle_ = false;
  }

  [[nodiscard]] bool try_lock_scan(CoreId core);
  void unlock_scan(CoreId core);
  [[nodiscard]] bool try_lock_free(CoreId core);
  void unlock_free(CoreId core);

  /// Attempts to set this core's header-lock register to `addr`. Fails when
  /// any other core's register currently holds the same address.
  [[nodiscard]] bool try_lock_header(CoreId core, Addr addr);
  void unlock_header(CoreId core);

  bool holds_scan(CoreId core) const noexcept { return scan_owner_ == core; }
  bool holds_free(CoreId core) const noexcept { return free_owner_ == core; }
  bool holds_header(CoreId core) const noexcept {
    return header_locks_[core] != kNullPtr;
  }

  /// Sentinel for "no core" in the owner accessors below.
  static constexpr CoreId kNoOwner = ~CoreId{0};

  /// Current scan-/free-lock owner, kNoOwner when free. Pure reads for the
  /// wake-channel choice of a core that waits on one of these locks.
  CoreId scan_owner() const noexcept { return scan_owner_; }
  CoreId free_owner() const noexcept { return free_owner_; }

  /// True when an injected grant suppression withheld the scan/free lock
  /// in this cycle. Every consult in a cycle answers alike, and a
  /// suppression holds until its window closes, so a waiter that got no
  /// grant from an ownerless lock repeats that stall until then.
  bool scan_withheld() const noexcept { return scan_withheld_this_cycle_; }
  bool free_withheld() const noexcept { return free_withheld_this_cycle_; }

  /// CAM lookup without acquisition: which other core's header-lock
  /// register holds `addr`? kNoOwner when none (the acquisition would
  /// succeed). Pure; never fires fault hooks.
  CoreId header_lock_holder(CoreId self, Addr addr) const noexcept {
    assert(addr != kNullPtr);
    for (CoreId other = 0; other < num_cores(); ++other) {
      if (other != self && header_locks_[other] == addr) return other;
    }
    return kNoOwner;
  }

  // --- ScanState (termination detection) ----------------------------------

  /// Sets or clears the core's ScanState bit. A count of set bits is kept
  /// alongside, so the fault-free termination poll is O(1).
  /// The count reaching 0 fires the worklist channel (termination may now
  /// hold); no other busy-bit change can end a poll.
  void set_busy(CoreId core, bool b) noexcept {
    if ((busy_[core] != 0) == b) return;
    busy_[core] = b;
    if (b) {
      ++busy_bits_;
    } else if (--busy_bits_ == 0) {
      fire(kWorklistChannel);
    }
  }

  /// Reads the ScanState bit as the hardware would — including any injected
  /// stuck-at-1 fault on it.
  bool busy(CoreId core) const;

  /// The core's actual architectural busy bit, bypassing stuck-at faults
  /// (the watchdog's consistency check compares the two).
  bool busy_raw(CoreId core) const noexcept { return busy_[core] != 0; }

  /// True when no core's busy bit is set — combined with scan == free this
  /// is the termination condition of Section IV. Without a fault injector
  /// no bit can read stuck, so the set-bit count decides in O(1); with one,
  /// every core's bit is read through busy() and its stuck-at consult.
  bool all_idle() const {
    return fault_ == nullptr ? busy_bits_ == 0 : all_idle_consulting();
  }

  /// Number of ScanState bits set as a monitor tap sees them: the
  /// architectural bits plus any stuck-at-1 fault already latched. Unlike
  /// busy() it consults no fault hook, so observing it (or deciding
  /// whether a spin parks) fires nothing.
  std::uint32_t busy_count() const {
    return fault_ == nullptr ? busy_bits_ : busy_count_latched();
  }

  // --- stripe dispenser (Section VII future work 1) -------------------------
  //
  // Sub-object work distribution: the data area of a large object is
  // split into fixed-size stripes that idle cores copy in parallel. The
  // dispenser is a small register file in the SB (one slot per concurrent
  // big object); like the scan/free registers it admits one grab per
  // clock cycle.

  struct StripeJob {
    Addr orig = kNullPtr;   ///< fromspace original (body source)
    Addr copy = kNullPtr;   ///< tospace frame (body destination)
    Word attrs = 0;         ///< attributes for the final blacken
    Word next_offset = 0;   ///< first data word not yet handed out
    Word outstanding = 0;   ///< stripes handed out but not completed
  };

  struct StripeTask {
    Addr orig = kNullPtr;
    Addr copy = kNullPtr;
    Word attrs = 0;  ///< full attributes (for the final blacken)
    Word pi = 0;
    Word offset = 0;  ///< first data word of this stripe
    Word length = 0;
    std::uint32_t slot = 0;
  };

  static constexpr std::uint32_t kStripeSlots = 4;

  /// Registers a large object's data area for striped copying. Fails when
  /// every dispenser slot is occupied (the caller falls back to a normal
  /// sequential copy).
  [[nodiscard]] bool stripe_publish(Addr orig, Addr copy, Word attrs);

  /// Hands out the next stripe of any active job (lowest slot first,
  /// static prioritization; at most one grab per clock cycle). Returns
  /// false when no job has stripes left to dispense.
  [[nodiscard]] bool stripe_grab(Word stripe_words, StripeTask& out);

  /// Reports a stripe finished. Returns true when its job is fully copied
  /// — the caller must then blacken the object; the slot is freed. Fires
  /// no channel: the finishing core's busy bit is still set, so no spin
  /// can end before it clears, and the count reaching 0 fires then.
  [[nodiscard]] bool stripe_complete(std::uint32_t slot);

  /// True when no dispenser slot holds unfinished work (part of the
  /// extended termination condition).
  bool stripes_idle() const noexcept;

  /// True when a stripe_grab() would hand out work: some active job still
  /// has undispensed stripes. Pure mirror of stripe_grab's scan, for the
  /// quiescence classification (an idle core would grab, not spin).
  bool stripe_work_available() const noexcept {
    for (std::uint32_t s = 0; s < kStripeSlots; ++s) {
      if (stripe_slot_active_[s] &&
          stripe_slots_[s].next_offset < delta_of(stripe_slots_[s].attrs)) {
        return true;
      }
    }
    return false;
  }

  const StripeJob& stripe_slot(std::uint32_t slot) const {
    return stripe_slots_[slot];
  }

  // --- barrier -------------------------------------------------------------

  /// Current barrier generation; a core snapshots this before waiting.
  std::uint64_t barrier_generation() const noexcept { return barrier_gen_; }

  /// Signals arrival at a synchronizing micro-instruction. When the last
  /// core arrives the barrier releases: the generation advances and all
  /// arrival bits reset. Idempotent per generation.
  void barrier_arrive(CoreId core);

  /// True when `core` has already arrived at the pending barrier. A
  /// barrier-stalled core that has arrived is quiescent (re-arrival is
  /// idempotent); one that has not would mutate the barrier on its next
  /// step, so fast-forward must let that cycle run.
  bool barrier_arrived(CoreId core) const noexcept {
    return barrier_arrived_[core] != 0;
  }

  // --- wake channels ---------------------------------------------------------
  //
  // A core whose last step only polled SB state repeats that poll, touching
  // nothing, until the state it read changes (GcCore::poll_channel). It
  // waits on the channel of that condition, the way an event unit
  // clock-gates a waiting core until its event arrives; every mutator that
  // can end such a poll fires its channel, which sets its waiters' bits in
  // the wake mask — the clock loop's set of runnable cores, the simulator's
  // clock-enable lines. A spurious firing only costs the woken core one
  // repeated poll; a missing one would leave it waiting forever.

  using Channel = std::uint32_t;
  /// set_free, the busy count reaching 0 and stripe_publish: what an
  /// empty-worklist spin reads.
  static constexpr Channel kWorklistChannel = 0;
  /// unlock_scan: what a wait for a scan lock held across cycles reads.
  static constexpr Channel kScanLockChannel = 1;
  /// The barrier's release: what an arrived barrier wait reads.
  static constexpr Channel kBarrierChannel = 2;
  /// unlock_free: what a wait for a free lock held across cycles reads.
  /// Only a core that died at its grant holds it that long, and a fatal
  /// grant releases nothing, so its waiters wait out the watchdog.
  static constexpr Channel kFreeLockChannel = 3;
  /// unlock_header(holder): what a wait for `holder`'s header lock reads.
  static constexpr Channel header_lock_channel(CoreId holder) noexcept {
    return 4 + holder;
  }
  static constexpr Channel kNoChannel = ~Channel{0};

  /// Where firing wakes a waiter: bit c % 64 of word c / 64 of `mask` is
  /// set for core c. The mask must outlive every wait.
  void set_wake_mask(std::uint64_t* mask) noexcept { wake_mask_ = mask; }

  /// Registers `core` as a waiter on `ch` until `ch` next fires (a wake
  /// mask must be set).
  void wait_on(CoreId core, Channel ch);

  /// Fires every channel: each waiter's bit is set and it leaves its
  /// channel (a fault boundary, where every parked core rejoins the walk).
  void wake_all() noexcept {
    for (Channel ch = 0; waiters_ != 0 && ch < channel_head_.size(); ++ch) {
      fire(ch);
    }
  }

  /// Number of cores waiting on any channel.
  std::uint32_t waiters() const noexcept { return waiters_; }

  /// The channel `core` waits on, kNoChannel when it waits on none.
  Channel waiting_on(CoreId core) const noexcept { return waiting_on_[core]; }

  /// "worklist", "scan lock", "free lock", "barrier" or "header lock of
  /// core H".
  static std::string channel_name(Channel ch);

  // --- lock-order audit ----------------------------------------------------

  const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }

 private:
  enum class Acquiring : std::uint8_t { kScan, kHeader };
  void audit(CoreId core, Acquiring what);

  // Wakes `ch`'s waiters. An empty registry costs one integer test, an
  // empty channel one more.
  void fire(Channel ch) noexcept {
    if (waiters_ != 0 && channel_head_[ch] != kNoOwner) fire_waiters(ch);
  }
  void fire_waiters(Channel ch) noexcept;

  // The fault-injected forms of all_idle() and busy_count().
  bool all_idle_consulting() const;
  std::uint32_t busy_count_latched() const;

  FaultInjector* fault_ = nullptr;
  ClockObserver* obs_ = nullptr;
  Addr scan_ = 0;
  Addr free_ = 0;
  Addr alloc_top_ = ~Addr{0};
  CoreId scan_owner_ = kNoOwner;
  CoreId free_owner_ = kNoOwner;
  bool scan_acquired_this_cycle_ = false;
  bool free_acquired_this_cycle_ = false;
  bool scan_withheld_this_cycle_ = false;
  bool free_withheld_this_cycle_ = false;
  bool stripe_grabbed_this_cycle_ = false;
  std::array<StripeJob, kStripeSlots> stripe_slots_{};
  std::array<bool, kStripeSlots> stripe_slot_active_{};
  std::vector<Addr> header_locks_;  // kNullPtr = unlocked
  std::vector<std::uint8_t> busy_;
  std::uint32_t busy_bits_ = 0;  // set bits in busy_
  std::vector<std::uint8_t> barrier_arrived_;
  std::uint32_t barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;
  // Wake channels: one intrusive list of waiting cores per channel (heads
  // indexed by channel, links by core; kNoOwner ends a list).
  std::vector<CoreId> channel_head_;
  std::vector<CoreId> next_waiter_;
  std::vector<Channel> waiting_on_;
  std::uint32_t waiters_ = 0;
  std::uint64_t* wake_mask_ = nullptr;
  std::vector<std::string> violations_;
};

}  // namespace hwgc
