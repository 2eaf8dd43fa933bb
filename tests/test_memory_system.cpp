// Unit tests for the split-transaction memory access scheduler
// (paper Section V-D): buffer occupancy, per-class latencies, bandwidth
// limits, the comparator-array header ordering and the end-of-cycle flush.
#include <gtest/gtest.h>

#include <algorithm>

#include "mem/memory_system.hpp"
#include "sim/rng.hpp"

namespace hwgc {
namespace {

MemoryConfig fast(Cycle body = 4, Cycle header = 10, std::uint32_t bw = 4) {
  MemoryConfig cfg;
  cfg.latency = body;
  cfg.header_latency = header;
  cfg.bandwidth_per_cycle = bw;
  return cfg;
}

/// Ticks until the load completes; returns the number of cycles waited.
Cycle wait_load(MemorySystem& mem, CoreId core, Port port, Cycle& now,
                Cycle limit = 1000) {
  const Cycle start = now;
  while (mem.load_pending(core, port)) {
    ++now;
    mem.tick(now);
    if (now - start > limit) ADD_FAILURE() << "load never completed";
  }
  return now - start;
}

TEST(MemorySystem, BodyLoadObservesBodyLatency) {
  MemorySystem mem(fast(), 1);
  Cycle now = 0;
  mem.issue_load(0, Port::kBody, 100);
  EXPECT_TRUE(mem.load_pending(0, Port::kBody));
  const Cycle waited = wait_load(mem, 0, Port::kBody, now);
  // Accept at tick(now+1), complete latency cycles later.
  EXPECT_EQ(waited, fast().latency + 1);
}

TEST(MemorySystem, HeaderLoadObservesHeaderLatency) {
  MemorySystem mem(fast(), 1);
  Cycle now = 0;
  mem.issue_load(0, Port::kHeader, 100);
  const Cycle waited = wait_load(mem, 0, Port::kHeader, now);
  EXPECT_EQ(waited, fast().header_latency + 1);
}

TEST(MemorySystem, StoreBufferDepthTwo) {
  MemorySystem mem(fast(), 1);
  EXPECT_EQ(mem.store_slots_free(0, Port::kHeader), MemorySystem::kStoreDepth);
  mem.issue_store(0, Port::kHeader, 10);
  mem.issue_store(0, Port::kHeader, 12);
  EXPECT_TRUE(mem.store_busy(0, Port::kHeader));
  EXPECT_EQ(mem.store_slots_free(0, Port::kHeader), 0u);
  // One tick accepts both (bandwidth 4): slots free again.
  mem.tick(1);
  EXPECT_FALSE(mem.store_busy(0, Port::kHeader));
  EXPECT_EQ(mem.store_slots_free(0, Port::kHeader), 2u);
  // But the stores are still uncommitted until the latency elapses.
  EXPECT_FALSE(mem.stores_drained());
  for (Cycle t = 2; t <= 2 + fast().header_latency; ++t) mem.tick(t);
  EXPECT_TRUE(mem.stores_drained());
}

TEST(MemorySystem, BandwidthLimitsAcceptancePerCycle) {
  MemoryConfig cfg = fast(4, 4, /*bw=*/2);
  MemorySystem mem(cfg, 4);
  // Four cores each issue one body store in the same cycle.
  for (CoreId c = 0; c < 4; ++c) mem.issue_store(c, Port::kBody, 100 + c);
  mem.tick(1);  // accepts 2 of 4: the two oldest, cores 0 and 1
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(mem.store_slots_free(c, Port::kBody),
              c < 2 ? MemorySystem::kStoreDepth : MemorySystem::kStoreDepth - 1)
        << "core " << c;
  }
  mem.tick(2);  // accepts the rest
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(mem.store_slots_free(c, Port::kBody), MemorySystem::kStoreDepth);
  }
}

TEST(MemorySystem, ComparatorArrayDelaysHeaderLoadBehindSameAddressStore) {
  MemorySystem mem(fast(4, 6), 2);
  Cycle now = 0;
  mem.issue_store(0, Port::kHeader, 500);
  mem.issue_load(1, Port::kHeader, 500);  // same header address
  const Cycle waited = wait_load(mem, 1, Port::kHeader, now);
  // The load may only be accepted after the store commits (header_latency
  // after its acceptance), then takes header_latency itself.
  EXPECT_GE(waited, 2 * fast(4, 6).header_latency);
}

TEST(MemorySystem, HeaderLoadWaitsForTheLastOfTwoPendingStores) {
  // Evacuation can leave two header stores pending on one tospace header
  // (the gray frame, then the blacken). The comparator array counts them:
  // a header load to that header waits for the second commit, not the
  // first.
  constexpr Cycle kHeader = 6;
  MemorySystem mem(fast(4, kHeader), 3);
  mem.issue_store(0, Port::kHeader, 500);
  mem.issue_load(2, Port::kHeader, 500);
  Cycle now = 0;
  mem.tick(++now);  // first store accepted, commits at 1 + kHeader
  mem.tick(++now);
  mem.tick(++now);
  mem.issue_store(1, Port::kHeader, 500);
  mem.tick(++now);  // second store accepted, commits at 4 + kHeader
  const Cycle second_commit = now + kHeader;
  while (mem.load_pending(2, Port::kHeader)) {
    mem.tick(++now);
    ASSERT_LT(now, 100u);
  }
  // Accepted in the tick the second store commits, then header latency.
  EXPECT_EQ(now, second_commit + kHeader);
}

TEST(MemorySystem, HeaderLoadWaitsForBothStoresWhenTheyCommitOutOfOrder) {
  // The same two pending stores under latency jitter, where the later
  // store can commit first. Jitter draws come from one stream seeded with
  // jitter_seed, one per accepted request in acceptance order, so the test
  // can predict every commit.
  constexpr Cycle kHeader = 6;
  constexpr Cycle kJitter = 9;
  std::uint32_t reversed = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    MemoryConfig cfg = fast(4, kHeader);
    cfg.latency_jitter = kJitter;
    cfg.jitter_seed = seed;
    Rng draws(seed);
    const Cycle first_commit = 1 + kHeader + draws.below(kJitter + 1);
    const Cycle second_commit = 2 + kHeader + draws.below(kJitter + 1);
    const Cycle load_latency = kHeader + draws.below(kJitter + 1);
    if (second_commit < first_commit) ++reversed;

    MemorySystem mem(cfg, 3);
    mem.issue_store(0, Port::kHeader, 500);
    mem.issue_load(2, Port::kHeader, 500);
    Cycle now = 0;
    mem.tick(++now);  // first store accepted
    mem.issue_store(1, Port::kHeader, 500);
    mem.tick(++now);  // second store accepted
    while (mem.load_pending(2, Port::kHeader)) {
      mem.tick(++now);
      ASSERT_LT(now, 100u);
    }
    EXPECT_EQ(now, std::max(first_commit, second_commit) + load_latency)
        << "seed " << seed;
  }
  EXPECT_GT(reversed, 0u) << "no seed let the later store commit first";
}

TEST(MemorySystem, IndependentHeaderLoadPassesBlockedOne) {
  MemorySystem mem(fast(4, 6, /*bw=*/1), 3);
  Cycle now = 0;
  mem.issue_store(0, Port::kHeader, 500);
  mem.tick(++now);  // store accepted, committing until now+6
  mem.issue_load(1, Port::kHeader, 500);  // blocked by comparator array
  mem.issue_load(2, Port::kHeader, 777);  // independent: may pass
  Cycle now2 = now;
  MemorySystem* m = &mem;
  // The independent load completes first despite being issued later.
  while (m->load_pending(2, Port::kHeader)) {
    ++now2;
    m->tick(now2);
    ASSERT_LT(now2, 100u);
  }
  EXPECT_TRUE(m->load_pending(1, Port::kHeader))
      << "blocked load must still be waiting when the independent one is done";
  while (m->load_pending(1, Port::kHeader)) {
    ++now2;
    m->tick(now2);
    ASSERT_LT(now2, 100u);
  }
}

TEST(MemorySystem, BodyAccessesAreNeverOrdered) {
  MemorySystem mem(fast(6, 6, /*bw=*/4), 2);
  Cycle now = 0;
  mem.issue_store(0, Port::kBody, 500);
  mem.issue_load(1, Port::kBody, 500);  // same address, body port
  const Cycle waited = wait_load(mem, 1, Port::kBody, now);
  EXPECT_EQ(waited, 6u + 1) << "body loads must not wait for body stores";
}

TEST(MemorySystem, HeaderCacheHitCompletesFast) {
  MemoryConfig cfg = fast(4, 10);
  cfg.header_cache_entries = 64;
  cfg.header_cache_hit_latency = 2;
  MemorySystem mem(cfg, 1);
  Cycle now = 0;
  // First access misses and fills the tag.
  mem.issue_load(0, Port::kHeader, 500);
  const Cycle miss = wait_load(mem, 0, Port::kHeader, now);
  EXPECT_EQ(miss, cfg.header_latency + 1);
  // Second access to the same header hits.
  mem.issue_load(0, Port::kHeader, 500);
  const Cycle hit = wait_load(mem, 0, Port::kHeader, now);
  EXPECT_EQ(hit, cfg.header_cache_hit_latency + 1);
  EXPECT_EQ(mem.header_cache_hits(), 1u);
  EXPECT_EQ(mem.header_cache_misses(), 1u);
}

TEST(MemorySystem, HeaderCacheConflictEvicts) {
  MemoryConfig cfg = fast(4, 10);
  cfg.header_cache_entries = 64;
  MemorySystem mem(cfg, 1);
  Cycle now = 0;
  mem.issue_load(0, Port::kHeader, 500);
  wait_load(mem, 0, Port::kHeader, now);
  // 564 maps to the same direct-mapped slot (500 % 64 == 564 % 64).
  mem.issue_load(0, Port::kHeader, 564);
  wait_load(mem, 0, Port::kHeader, now);
  mem.issue_load(0, Port::kHeader, 500);  // evicted: miss again
  const Cycle again = wait_load(mem, 0, Port::kHeader, now);
  EXPECT_EQ(again, cfg.header_latency + 1);
  EXPECT_EQ(mem.header_cache_hits(), 0u);
}

TEST(MemorySystem, HeaderStoreFillsCacheForLaterLoad) {
  MemoryConfig cfg = fast(4, 10);
  cfg.header_cache_entries = 64;
  cfg.header_cache_hit_latency = 2;
  MemorySystem mem(cfg, 2);
  Cycle now = 0;
  mem.issue_store(0, Port::kHeader, 500);
  // Drain the store fully so the comparator array does not also delay the
  // load (that ordering is tested separately).
  for (Cycle t = 0; t < 20; ++t) mem.tick(++now);
  ASSERT_TRUE(mem.stores_drained());
  mem.issue_load(1, Port::kHeader, 500);
  const Cycle hit = wait_load(mem, 1, Port::kHeader, now);
  EXPECT_EQ(hit, cfg.header_cache_hit_latency + 1)
      << "write-allocate: the store must have installed the tag";
}

TEST(MemorySystem, JitterIsDeterministicAcrossFreshInstances) {
  // Two fresh instances with the same jitter seed must complete identical
  // request streams at identical cycles — the jitter is part of the
  // deterministic replay, not an uncontrolled source of randomness.
  MemoryConfig cfg = fast();
  cfg.latency_jitter = 7;
  cfg.jitter_seed = 123;
  MemorySystem m1(cfg, 2);
  MemorySystem m2(cfg, 2);
  for (int round = 0; round < 20; ++round) {
    Cycle n1 = 0, n2 = 0;
    m1.issue_load(0, Port::kBody, 100 + round);
    m2.issue_load(0, Port::kBody, 100 + round);
    m1.issue_load(1, Port::kHeader, 500 + round);
    m2.issue_load(1, Port::kHeader, 500 + round);
    const Cycle a0 = wait_load(m1, 0, Port::kBody, n1);
    const Cycle b0 = wait_load(m2, 0, Port::kBody, n2);
    EXPECT_EQ(a0, b0) << "round " << round;
    n1 = 0;
    n2 = 0;
    const Cycle a1 = wait_load(m1, 1, Port::kHeader, n1);
    const Cycle b1 = wait_load(m2, 1, Port::kHeader, n2);
    EXPECT_EQ(a1, b1) << "round " << round;
  }
}

TEST(MemorySystem, JitterSeedChangesCompletionTiming) {
  MemoryConfig cfg = fast();
  cfg.latency_jitter = 7;
  cfg.jitter_seed = 1;
  MemoryConfig other = cfg;
  other.jitter_seed = 2;
  MemorySystem m1(cfg, 1);
  MemorySystem m2(other, 1);
  bool diverged = false;
  for (int round = 0; round < 50 && !diverged; ++round) {
    Cycle n1 = 0, n2 = 0;
    m1.issue_load(0, Port::kBody, 100 + round);
    m2.issue_load(0, Port::kBody, 100 + round);
    diverged = wait_load(m1, 0, Port::kBody, n1) !=
               wait_load(m2, 0, Port::kBody, n2);
  }
  EXPECT_TRUE(diverged);
}

TEST(MemorySystem, DrainAndIdle) {
  MemorySystem mem(fast(), 2);
  EXPECT_TRUE(mem.stores_drained());
  EXPECT_TRUE(mem.idle());
  mem.issue_store(1, Port::kBody, 42);
  mem.issue_load(0, Port::kHeader, 43);
  EXPECT_FALSE(mem.stores_drained());
  EXPECT_FALSE(mem.idle());
  for (Cycle t = 1; t < 40; ++t) mem.tick(t);
  EXPECT_TRUE(mem.stores_drained());
  EXPECT_TRUE(mem.idle());
  EXPECT_EQ(mem.requests_issued(), 2u);
}

}  // namespace
}  // namespace hwgc
