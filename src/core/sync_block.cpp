#include "core/sync_block.hpp"

#include <algorithm>
#include <cassert>

#include "fault/fault_injector.hpp"
#include "sim/clock_observer.hpp"

namespace hwgc {

SyncBlock::SyncBlock(std::uint32_t num_cores, FaultInjector* fault,
                     ClockObserver* obs)
    : fault_(fault),
      obs_(obs),
      header_locks_(num_cores, kNullPtr),
      busy_(num_cores, 0),
      barrier_arrived_(num_cores, 0) {
  assert(num_cores >= 1);
}

void SyncBlock::audit(CoreId core, Acquiring what) {
  // Fixed ordering scan < header < free: while holding a header lock a core
  // must not claim scan; while holding free it must claim neither header
  // nor scan (Section IV).
  const bool holds_h = holds_header(core);
  const bool holds_f = holds_free(core);
  const bool bad = what == Acquiring::kScan ? holds_h || holds_f : holds_f;
  if (bad) {
    violations_.push_back("core " + std::to_string(core) + " acquires " +
                          (what == Acquiring::kScan ? "scan" : "header") +
                          " while holding " + (holds_f ? "free" : "header"));
  }
}

bool SyncBlock::try_lock_scan(CoreId core) {
  assert(core < num_cores());
  if (scan_owner_ == core) return true;
  if (scan_owner_ != kNoOwner || scan_acquired_this_cycle_) return false;
  if (fault_ != nullptr && fault_->lock_grant_suppressed(LockKind::kScan)) {
    return false;  // injected arbitration glitch: grant withheld this cycle
  }
  audit(core, Acquiring::kScan);
  scan_owner_ = core;
  scan_acquired_this_cycle_ = true;
  if (obs_ != nullptr) obs_->on_lock_acquired(SbLock::kScan, core);
  return true;
}

void SyncBlock::unlock_scan(CoreId core) {
  assert(scan_owner_ == core && "unlock by non-owner");
  (void)core;
  scan_owner_ = kNoOwner;
  ++work_version_;
  if (obs_ != nullptr) obs_->on_lock_released(SbLock::kScan, core);
}

bool SyncBlock::try_lock_free(CoreId core) {
  assert(core < num_cores());
  if (free_owner_ == core) return true;
  if (free_owner_ != kNoOwner || free_acquired_this_cycle_) return false;
  if (fault_ != nullptr && fault_->lock_grant_suppressed(LockKind::kFree)) {
    return false;
  }
  if (fault_ != nullptr && fault_->free_grant_fatal(core)) {
    // The core dies at the grant, inside the 1-cycle free critical section:
    // the lock stays held by a dead core and is never released, so every
    // other core stalls on it until the watchdog aborts the attempt and
    // recovery deconfigures the core.
    free_owner_ = core;
    free_acquired_this_cycle_ = true;
    // Publish the acquisition: the timeline should show the dead core
    // holding the free lock for the rest of the attempt.
    if (obs_ != nullptr) obs_->on_lock_acquired(SbLock::kFree, core);
    return false;
  }
  free_owner_ = core;
  free_acquired_this_cycle_ = true;
  if (obs_ != nullptr) obs_->on_lock_acquired(SbLock::kFree, core);
  return true;
}

void SyncBlock::unlock_free(CoreId core) {
  assert(free_owner_ == core && "unlock by non-owner");
  (void)core;
  free_owner_ = kNoOwner;
  if (obs_ != nullptr) obs_->on_lock_released(SbLock::kFree, core);
}

bool SyncBlock::try_lock_header(CoreId core, Addr addr) {
  assert(core < num_cores());
  // CAM compare against all other cores' header-lock registers, in
  // parallel in hardware.
  if (header_lock_holder(core, addr) != kNoOwner) return false;
  audit(core, Acquiring::kHeader);
  header_locks_[core] = addr;
  return true;
}

void SyncBlock::unlock_header(CoreId core) {
  assert(header_locks_[core] != kNullPtr && "unlock of unheld header lock");
  header_locks_[core] = kNullPtr;
  ++work_version_;
}

bool SyncBlock::busy(CoreId core) const {
  if (busy_[core] != 0) return true;
  return fault_ != nullptr && fault_->busy_stuck(core);
}

bool SyncBlock::all_idle_consulting() const {
  for (CoreId c = 0; c < num_cores(); ++c) {
    if (busy(c)) return false;
  }
  return true;
}

std::uint32_t SyncBlock::busy_count_latched() const {
  std::uint32_t count = 0;
  for (CoreId c = 0; c < num_cores(); ++c) {
    if (busy_[c] != 0 ||
        (fault_ != nullptr && fault_->stuck_busy_steady(c))) {
      ++count;
    }
  }
  return count;
}

bool SyncBlock::stripe_publish(Addr orig, Addr copy, Word attrs) {
  for (std::uint32_t s = 0; s < kStripeSlots; ++s) {
    if (!stripe_slot_active_[s]) {
      stripe_slot_active_[s] = true;
      stripe_slots_[s] = StripeJob{orig, copy, attrs, 0, 0};
      ++work_version_;
      return true;
    }
  }
  return false;
}

bool SyncBlock::stripe_grab(Word stripe_words, StripeTask& out) {
  if (stripe_grabbed_this_cycle_) return false;
  for (std::uint32_t s = 0; s < kStripeSlots; ++s) {
    if (!stripe_slot_active_[s]) continue;
    StripeJob& job = stripe_slots_[s];
    const Word delta = delta_of(job.attrs);
    if (job.next_offset >= delta) continue;  // fully dispensed, draining
    out.orig = job.orig;
    out.copy = job.copy;
    out.attrs = job.attrs;
    out.pi = pi_of(job.attrs);
    out.offset = job.next_offset;
    out.length = std::min<Word>(stripe_words, delta - job.next_offset);
    out.slot = s;
    job.next_offset += out.length;
    ++job.outstanding;
    stripe_grabbed_this_cycle_ = true;
    ++work_version_;
    return true;
  }
  return false;
}

bool SyncBlock::stripe_complete(std::uint32_t slot) {
  assert(slot < kStripeSlots && stripe_slot_active_[slot]);
  StripeJob& job = stripe_slots_[slot];
  assert(job.outstanding > 0);
  --job.outstanding;
  ++work_version_;
  if (job.outstanding == 0 && job.next_offset >= delta_of(job.attrs)) {
    stripe_slot_active_[slot] = false;  // job done; caller blackens
    return true;
  }
  return false;
}

bool SyncBlock::stripes_idle() const noexcept {
  for (std::uint32_t s = 0; s < kStripeSlots; ++s) {
    if (stripe_slot_active_[s]) return false;
  }
  return true;
}

void SyncBlock::barrier_arrive(CoreId core) {
  assert(core < num_cores());
  if (barrier_arrived_[core]) return;
  barrier_arrived_[core] = 1;
  if (++barrier_count_ == num_cores()) {
    std::fill(barrier_arrived_.begin(), barrier_arrived_.end(),
              std::uint8_t{0});
    barrier_count_ = 0;
    ++barrier_gen_;
    ++work_version_;
  }
}

}  // namespace hwgc
