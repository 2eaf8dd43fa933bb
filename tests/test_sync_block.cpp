// Unit tests for the Synchronization Block (paper Section V-C): the
// scan/free locks with their one-acquisition-per-cycle budget and
// same-cycle hand-off, the header-lock CAM, the ScanState busy bits, the
// barrier and the lock-order auditor.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
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

}  // namespace
}  // namespace hwgc
