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
  void set_scan(Addr a) noexcept {
    scan_ = a;
    ++work_version_;
  }
  void set_free(Addr a) noexcept {
    free_ = a;
    ++work_version_;
  }

  /// Advances on every change that can end a core's poll: a write to the
  /// scan or free register, a busy bit or the stripe dispenser, a scan- or
  /// header-lock release, and the release of a barrier. While it stands still, a core that spins on
  /// an empty worklist or waits for a held lock repeats its last poll.
  std::uint64_t work_version() const noexcept { return work_version_; }

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
  /// clock loop's quiescence classification (fast-forward): a core stalled
  /// on one of these locks is quiescent exactly while the owner is.
  CoreId scan_owner() const noexcept { return scan_owner_; }
  CoreId free_owner() const noexcept { return free_owner_; }

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
  void set_busy(CoreId core, bool b) noexcept {
    if ((busy_[core] != 0) == b) return;
    busy_[core] = b;
    ++work_version_;
    if (b) {
      ++busy_bits_;
    } else {
      --busy_bits_;
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
  /// busy() it consults no fault hook, so observing it fires nothing.
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
  /// — the caller must then blacken the object; the slot is freed.
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

  // --- lock-order audit ----------------------------------------------------

  const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }

 private:
  enum class Acquiring : std::uint8_t { kScan, kHeader };
  void audit(CoreId core, Acquiring what);

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
  bool stripe_grabbed_this_cycle_ = false;
  std::array<StripeJob, kStripeSlots> stripe_slots_{};
  std::array<bool, kStripeSlots> stripe_slot_active_{};
  std::vector<Addr> header_locks_;  // kNullPtr = unlocked
  std::vector<std::uint8_t> busy_;
  std::uint32_t busy_bits_ = 0;  // set bits in busy_
  std::uint64_t work_version_ = 0;
  std::vector<std::uint8_t> barrier_arrived_;
  std::uint32_t barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace hwgc
