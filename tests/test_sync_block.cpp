// Unit tests for the Synchronization Block (paper Section V-C): the
// scan/free locks with their one-acquisition-per-cycle budget and
// same-cycle hand-off, the header-lock CAM, the ScanState busy bits, the
// barrier, the lock-order auditor and the wake channels.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "core/sync_block.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "sim/rng.hpp"

namespace hwgc {
namespace {

TEST(SyncBlock, ScanFreeRegisters) {
  SyncBlock sb(4);
  sb.set_scan(100);
  sb.set_free(100);
  EXPECT_TRUE(sb.worklist_empty());
  sb.set_free(120);
  EXPECT_FALSE(sb.worklist_empty());
  EXPECT_EQ(sb.scan(), 100u);
  EXPECT_EQ(sb.free(), 120u);
}

TEST(SyncBlock, ScanLockMutualExclusion) {
  SyncBlock sb(4);
  sb.begin_cycle();
  EXPECT_TRUE(sb.try_lock_scan(0));
  EXPECT_FALSE(sb.try_lock_scan(1));
  EXPECT_TRUE(sb.try_lock_scan(0)) << "owner re-testing must not deadlock";
  // Same-cycle hand-off after a multi-cycle hold: core 0 has held the lock
  // since the previous cycle; core 1 may acquire in the cycle core 0
  // releases (the acquisition budget of this new cycle is unspent).
  sb.begin_cycle();
  sb.unlock_scan(0);
  EXPECT_TRUE(sb.try_lock_scan(1));
  sb.unlock_scan(1);
}

TEST(SyncBlock, OneAcquisitionPerCyclePerLock) {
  SyncBlock sb(4);
  sb.begin_cycle();
  EXPECT_TRUE(sb.try_lock_scan(0));
  sb.unlock_scan(0);
  // Core 0's acquire-and-release consumed this cycle's budget ("at most
  // one core may modify each of these two registers during a clock
  // cycle").
  EXPECT_FALSE(sb.try_lock_scan(1));
  sb.begin_cycle();
  EXPECT_TRUE(sb.try_lock_scan(1));
  sb.unlock_scan(1);

  // The two pointer locks have independent budgets.
  sb.begin_cycle();
  EXPECT_TRUE(sb.try_lock_scan(2));
  EXPECT_TRUE(sb.try_lock_free(3));
  sb.unlock_scan(2);
  sb.unlock_free(3);
}

TEST(SyncBlock, HeaderLockCam) {
  SyncBlock sb(4);
  EXPECT_TRUE(sb.try_lock_header(0, 0x500));
  EXPECT_FALSE(sb.try_lock_header(1, 0x500)) << "CAM match must stall";
  EXPECT_TRUE(sb.try_lock_header(1, 0x600)) << "different address is free";
  EXPECT_TRUE(sb.try_lock_header(2, 0x700));
  sb.unlock_header(0);
  EXPECT_TRUE(sb.try_lock_header(3, 0x500)) << "released address is free";
  sb.unlock_header(1);
  sb.unlock_header(2);
  sb.unlock_header(3);
}

TEST(SyncBlock, HeaderLocksHaveNoPerCycleBudget) {
  // Each core owns its register; only CAM conflicts stall (Section V-C).
  SyncBlock sb(8);
  sb.begin_cycle();
  for (CoreId c = 0; c < 8; ++c) {
    EXPECT_TRUE(sb.try_lock_header(c, 0x1000 + 4 * c));
  }
  for (CoreId c = 0; c < 8; ++c) sb.unlock_header(c);
}

TEST(SyncBlock, BusyBitsAndTermination) {
  SyncBlock sb(3);
  EXPECT_TRUE(sb.all_idle());
  sb.set_busy(1, true);
  EXPECT_FALSE(sb.all_idle());
  EXPECT_TRUE(sb.busy(1));
  sb.set_busy(1, false);
  EXPECT_TRUE(sb.all_idle());
}

// The busy bits carry a set-bit count, so the fault-free termination poll
// is O(1). Setting a set bit again must not count twice.
TEST(SyncBlock, BusyCountIgnoresRepeatedSets) {
  SyncBlock sb(4);
  sb.set_busy(2, true);
  sb.set_busy(2, true);
  EXPECT_EQ(sb.busy_count(), 1u);
  sb.set_busy(2, false);
  EXPECT_TRUE(sb.all_idle());
  EXPECT_EQ(sb.busy_count(), 0u);
  sb.set_busy(2, false);  // clearing a clear bit is a no-op too
  EXPECT_TRUE(sb.all_idle());
  EXPECT_EQ(sb.busy_count(), 0u);
}

TEST(SyncBlock, BusyCountMatchesTheBitsUnderSeededToggles) {
  constexpr std::uint32_t kCores = 70;  // more than one 64-bit word
  SyncBlock sb(kCores);
  Rng rng(2010);
  for (int i = 0; i < 5000; ++i) {
    const auto core = static_cast<CoreId>(rng.below(kCores));
    sb.set_busy(core, rng.below(2) == 1);
    std::uint32_t set = 0;
    for (CoreId c = 0; c < kCores; ++c) set += sb.busy_raw(c) ? 1 : 0;
    ASSERT_EQ(sb.busy_count(), set) << "after toggle " << i;
    ASSERT_EQ(sb.all_idle(), set == 0) << "after toggle " << i;
  }
}

TEST(SyncBlock, StuckBusyBitStillBlocksTerminationWithAnInjector) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kStuckBusy;
  e.target_core = 1;
  e.trigger = 0;
  plan.events.push_back(e);
  FaultInjector inj(plan);
  std::vector<CoreId> active(3);
  std::iota(active.begin(), active.end(), CoreId{0});
  inj.begin_attempt(0, active);
  inj.begin_clock(0);

  SyncBlock sb(3, &inj);
  sb.set_busy(0, true);
  sb.set_busy(0, false);  // every architectural bit is clear again
  EXPECT_FALSE(sb.busy_raw(1));
  EXPECT_FALSE(sb.all_idle()) << "core 1's bit reads stuck at 1";
  EXPECT_TRUE(sb.busy(1));
  EXPECT_EQ(sb.busy_count(), 1u);
  EXPECT_EQ(inj.fired_this_attempt(), 1u);
}

TEST(SyncBlock, BarrierReleasesWhenAllArrive) {
  SyncBlock sb(3);
  const auto gen = sb.barrier_generation();
  sb.barrier_arrive(0);
  sb.barrier_arrive(0);  // idempotent within a generation
  EXPECT_EQ(sb.barrier_generation(), gen);
  sb.barrier_arrive(2);
  EXPECT_EQ(sb.barrier_generation(), gen);
  sb.barrier_arrive(1);
  EXPECT_EQ(sb.barrier_generation(), gen + 1);
  // Next generation works the same way.
  sb.barrier_arrive(1);
  sb.barrier_arrive(0);
  EXPECT_EQ(sb.barrier_generation(), gen + 1);
  sb.barrier_arrive(2);
  EXPECT_EQ(sb.barrier_generation(), gen + 2);
}

TEST(SyncBlock, LockOrderAuditorFlagsViolations) {
  SyncBlock sb(2);
  sb.begin_cycle();
  // Legal order: scan -> header -> free.
  EXPECT_TRUE(sb.try_lock_scan(0));
  EXPECT_TRUE(sb.try_lock_header(0, 0x100));
  EXPECT_TRUE(sb.try_lock_free(0));
  EXPECT_TRUE(sb.violations().empty());
  sb.unlock_free(0);
  sb.unlock_header(0);
  sb.unlock_scan(0);

  // Violation: header while holding free.
  sb.begin_cycle();
  EXPECT_TRUE(sb.try_lock_free(1));
  EXPECT_TRUE(sb.try_lock_header(1, 0x200));
  EXPECT_EQ(sb.violations().size(), 1u);
  sb.unlock_header(1);
  sb.unlock_free(1);

  // Violation: scan while holding header.
  sb.begin_cycle();
  EXPECT_TRUE(sb.try_lock_header(0, 0x300));
  EXPECT_TRUE(sb.try_lock_scan(0));
  EXPECT_EQ(sb.violations().size(), 2u);
  sb.unlock_scan(0);
  sb.unlock_header(0);
}


// --- wake channels -----------------------------------------------------------

// Eight cores, one waiter per channel kind: core 2 on the worklist, core 3
// on the scan lock, core 4 on the barrier, cores 5 and 6 on the header
// locks of cores 0 and 1, core 7 on the free lock.
constexpr CoreId kOnWorklist = 2;
constexpr CoreId kOnScanLock = 3;
constexpr CoreId kOnBarrier = 4;
constexpr CoreId kOnHeader0 = 5;
constexpr CoreId kOnHeader1 = 6;
constexpr CoreId kOnFreeLock = 7;
constexpr std::uint32_t kChannelCores = 8;
constexpr std::uint32_t kChannelWaiters = 6;

void park_one_per_channel(SyncBlock& sb) {
  sb.wait_on(kOnWorklist, SyncBlock::kWorklistChannel);
  sb.wait_on(kOnScanLock, SyncBlock::kScanLockChannel);
  sb.wait_on(kOnBarrier, SyncBlock::kBarrierChannel);
  sb.wait_on(kOnHeader0, SyncBlock::header_lock_channel(0));
  sb.wait_on(kOnHeader1, SyncBlock::header_lock_channel(1));
  sb.wait_on(kOnFreeLock, SyncBlock::kFreeLockChannel);
}

// The cores whose bits firing set in a one-word wake mask.
std::vector<CoreId> woken(std::uint64_t mask) {
  std::vector<CoreId> v;
  for (CoreId c = 0; c < 64; ++c) {
    if ((mask >> c & 1) != 0) v.push_back(c);
  }
  return v;
}

// Each SB mutator fires exactly the channel whose poll it can end, and
// nothing else; the waiters it wakes leave the registry.
TEST(SyncBlockWake, EachMutatorFiresExactlyItsChannel) {
  struct Case {
    std::string name;
    std::function<void(SyncBlock&)> before;  // runs before the waiters park
    std::function<void(SyncBlock&)> mutate;
    std::vector<CoreId> woken;
  };
  const auto nothing = [](SyncBlock&) {};
  const Word big = make_attributes(0, 40);
  const std::vector<Case> cases = {
      {"set_free", nothing, [](SyncBlock& sb) { sb.set_free(120); },
       {kOnWorklist}},
      // Scan only advances toward free: it cannot refill the worklist.
      {"set_scan", nothing, [](SyncBlock& sb) { sb.set_scan(120); }, {}},
      {"busy count reaching 0",
       [](SyncBlock& sb) { sb.set_busy(0, true); },
       [](SyncBlock& sb) { sb.set_busy(0, false); }, {kOnWorklist}},
      {"nonzero busy decrement",
       [](SyncBlock& sb) {
         sb.set_busy(0, true);
         sb.set_busy(1, true);
       },
       [](SyncBlock& sb) { sb.set_busy(0, false); }, {}},
      {"busy increment", nothing,
       [](SyncBlock& sb) { sb.set_busy(0, true); }, {}},
      {"set_busy to the same value",
       [](SyncBlock& sb) { sb.set_busy(0, true); },
       [](SyncBlock& sb) {
         sb.set_busy(0, true);
         sb.set_busy(1, false);
       },
       {}},
      {"stripe_publish", nothing,
       [big](SyncBlock& sb) { ASSERT_TRUE(sb.stripe_publish(100, 200, big)); },
       {kOnWorklist}},
      {"stripe_grab",
       [big](SyncBlock& sb) { ASSERT_TRUE(sb.stripe_publish(100, 200, big)); },
       [](SyncBlock& sb) {
         SyncBlock::StripeTask t;
         ASSERT_TRUE(sb.stripe_grab(16, t));
       },
       {}},
      // The finishing core is still busy: the count reaching 0 fires.
      {"stripe_complete",
       [big](SyncBlock& sb) {
         ASSERT_TRUE(sb.stripe_publish(100, 200, big));
         SyncBlock::StripeTask t;
         for (int i = 0; i < 3; ++i) {
           sb.begin_cycle();  // one grab per cycle
           ASSERT_TRUE(sb.stripe_grab(16, t));
         }
         EXPECT_FALSE(sb.stripe_complete(0));
         EXPECT_FALSE(sb.stripe_complete(0));
       },
       [](SyncBlock& sb) { EXPECT_TRUE(sb.stripe_complete(0)); }, {}},
      {"unlock_scan",
       [](SyncBlock& sb) { ASSERT_TRUE(sb.try_lock_scan(0)); },
       [](SyncBlock& sb) { sb.unlock_scan(0); }, {kOnScanLock}},
      {"unlock_header(0)",
       [](SyncBlock& sb) {
         ASSERT_TRUE(sb.try_lock_header(0, 0x100));
         ASSERT_TRUE(sb.try_lock_header(1, 0x200));
       },
       [](SyncBlock& sb) { sb.unlock_header(0); }, {kOnHeader0}},
      {"unlock_header(1)",
       [](SyncBlock& sb) {
         ASSERT_TRUE(sb.try_lock_header(0, 0x100));
         ASSERT_TRUE(sb.try_lock_header(1, 0x200));
       },
       [](SyncBlock& sb) { sb.unlock_header(1); }, {kOnHeader1}},
      {"barrier release",
       [](SyncBlock& sb) {
         for (CoreId c = 0; c + 1 < kChannelCores; ++c) sb.barrier_arrive(c);
       },
       [](SyncBlock& sb) { sb.barrier_arrive(kChannelCores - 1); },
       {kOnBarrier}},
      {"barrier arrival short of release", nothing,
       [](SyncBlock& sb) { sb.barrier_arrive(0); }, {}},
      {"unlock_free",
       [](SyncBlock& sb) { ASSERT_TRUE(sb.try_lock_free(0)); },
       [](SyncBlock& sb) { sb.unlock_free(0); }, {kOnFreeLock}},
      {"lock acquisitions", nothing,
       [](SyncBlock& sb) {
         ASSERT_TRUE(sb.try_lock_scan(0));
         ASSERT_TRUE(sb.try_lock_header(0, 0x100));
         ASSERT_TRUE(sb.try_lock_free(0));
         sb.set_alloc_top(500);
       },
       {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SyncBlock sb(kChannelCores);
    std::uint64_t mask = 0;
    sb.set_wake_mask(&mask);
    sb.begin_cycle();
    c.before(sb);
    park_one_per_channel(sb);
    c.mutate(sb);
    EXPECT_EQ(woken(mask), c.woken);
    EXPECT_EQ(sb.waiters(), kChannelWaiters - c.woken.size());
    for (const CoreId v : c.woken) {
      EXPECT_EQ(sb.waiting_on(v), SyncBlock::kNoChannel);
    }
  }
}

// A core that dies at its free-lock grant keeps the lock forever: the
// fatal grant is an acquisition, not a release, so it fires nothing, and
// the lock's waiters stay parked until the watchdog. Only unlock_free
// fires the free-lock channel.
TEST(SyncBlockWake, FatalFreeGrantFiresNothing) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kCoreFailStop;
  e.target_core = 1;
  e.when_holding_free = true;
  plan.events.push_back(e);
  FaultInjector inj(plan);
  inj.begin_attempt(0, {0, 1, 2});
  SyncBlock sb(3, &inj);
  std::uint64_t mask = 0;
  sb.set_wake_mask(&mask);
  sb.begin_cycle();
  sb.wait_on(2, SyncBlock::kFreeLockChannel);
  EXPECT_FALSE(sb.try_lock_free(1));  // dies at the grant
  EXPECT_EQ(sb.free_owner(), 1u);
  EXPECT_EQ(mask, 0u);
  EXPECT_EQ(sb.waiting_on(2), SyncBlock::kFreeLockChannel);
  sb.begin_cycle();
  EXPECT_FALSE(sb.try_lock_free(0));  // held by the dead core
  EXPECT_EQ(mask, 0u);
  EXPECT_EQ(inj.fired_total(), 1u);

  // A live holder's release wakes the waiter.
  SyncBlock live(3);
  live.set_wake_mask(&mask);
  live.begin_cycle();
  ASSERT_TRUE(live.try_lock_free(1));
  live.wait_on(2, SyncBlock::kFreeLockChannel);
  live.unlock_free(1);
  EXPECT_EQ(woken(mask), (std::vector<CoreId>{2}));
  EXPECT_EQ(live.waiters(), 0u);
}

// A fault boundary wakes every waiter, whatever channel it waits on, and
// empties the registry.
TEST(SyncBlockWake, WakeAllEmptiesEveryChannel) {
  SyncBlock sb(kChannelCores);
  std::uint64_t mask = 0;
  sb.set_wake_mask(&mask);
  park_one_per_channel(sb);
  sb.wake_all();
  EXPECT_EQ(woken(mask), (std::vector<CoreId>{kOnWorklist, kOnScanLock,
                                              kOnBarrier, kOnHeader0,
                                              kOnHeader1, kOnFreeLock}));
  EXPECT_EQ(sb.waiters(), 0u);
  for (CoreId c = 0; c < kChannelCores; ++c) {
    EXPECT_EQ(sb.waiting_on(c), SyncBlock::kNoChannel);
  }
}

// An injected grant suppression is visible for the rest of its cycle, so
// the clock loop can tell a withheld grant from one handed to another core
// earlier in the cycle.
TEST(SyncBlock, WithheldGrantIsVisibleForTheCycle) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kLockDelay;
  e.lock = LockKind::kScan;
  e.trigger = 10;
  e.param = 5;
  plan.events.push_back(e);
  FaultInjector inj(plan);
  inj.begin_attempt(0, {0, 1});
  SyncBlock sb(2, &inj);
  inj.begin_clock(9);
  sb.begin_cycle();
  ASSERT_TRUE(sb.try_lock_scan(0));
  sb.unlock_scan(0);
  EXPECT_FALSE(sb.try_lock_scan(1));  // one acquisition per cycle
  EXPECT_FALSE(sb.scan_withheld());
  inj.begin_clock(10);
  sb.begin_cycle();
  EXPECT_FALSE(sb.try_lock_scan(0));
  EXPECT_TRUE(sb.scan_withheld());
  EXPECT_FALSE(sb.free_withheld());
  inj.begin_clock(15);  // the window has closed
  sb.begin_cycle();
  EXPECT_FALSE(sb.scan_withheld());
  EXPECT_TRUE(sb.try_lock_scan(0));
}

// A channel fires once per registration: its waiters leave it, so firing
// it again wakes nobody until a core waits on it anew.
TEST(SyncBlockWake, FiringEmptiesTheChannel) {
  SyncBlock sb(4);
  std::uint64_t mask = 0;
  sb.set_wake_mask(&mask);
  sb.wait_on(1, SyncBlock::kWorklistChannel);
  sb.wait_on(3, SyncBlock::kWorklistChannel);
  sb.set_free(10);
  EXPECT_EQ(woken(mask), (std::vector<CoreId>{1, 3}));
  EXPECT_EQ(sb.waiters(), 0u);
  mask = 0;
  sb.set_free(20);
  EXPECT_EQ(mask, 0u);
  sb.wait_on(1, SyncBlock::kWorklistChannel);
  sb.set_free(30);
  EXPECT_EQ(woken(mask), (std::vector<CoreId>{1}));
}

// Firing sets a waiter's bit in its own word of a multi-word mask.
TEST(SyncBlockWake, FiringSetsBitsPastTheFirstWord) {
  SyncBlock sb(70);
  std::vector<std::uint64_t> mask(2, 0);
  sb.set_wake_mask(mask.data());
  sb.wait_on(69, SyncBlock::kBarrierChannel);
  sb.wait_on(3, SyncBlock::kBarrierChannel);
  for (CoreId c = 0; c < 70; ++c) sb.barrier_arrive(c);
  EXPECT_EQ(mask[0], std::uint64_t{1} << 3);
  EXPECT_EQ(mask[1], std::uint64_t{1} << 5);
}

// The lost-wake report names each parked core's channel.
TEST(SyncBlockWake, ChannelNames) {
  EXPECT_EQ(SyncBlock::channel_name(SyncBlock::kWorklistChannel), "worklist");
  EXPECT_EQ(SyncBlock::channel_name(SyncBlock::kScanLockChannel),
            "scan lock");
  EXPECT_EQ(SyncBlock::channel_name(SyncBlock::kBarrierChannel), "barrier");
  EXPECT_EQ(SyncBlock::channel_name(SyncBlock::kFreeLockChannel),
            "free lock");
  EXPECT_EQ(SyncBlock::channel_name(SyncBlock::header_lock_channel(5)),
            "header lock of core 5");
}

}  // namespace
}  // namespace hwgc
