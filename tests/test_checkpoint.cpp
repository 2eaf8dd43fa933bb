// Shard checkpoints (service/checkpoint.hpp): deterministic capture of a
// shard's full recovery state — heap image, root namespace, shadow-mutator
// graph (with its RNG), session affinity — sealed by an integrity digest.
// The contract under test:
//   * capture → restore → capture round-trips bit-identically (equal
//     digests, equal heap words);
//   * a restored shard REPLAYS deterministically: the same request steps
//     produce the same state as the first time they ran;
//   * a tampered checkpoint is refused (restore_into returns false and
//     leaves the target untouched) — a restore must never smuggle
//     corruption past the oracle.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "runtime/runtime.hpp"
#include "service/checkpoint.hpp"
#include "sim/config.hpp"
#include "workloads/mutator.hpp"

namespace hwgc {
namespace {

SimConfig sim_config() {
  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  return cfg;
}

ShadowMutator::Config mutator_config() {
  ShadowMutator::Config m;
  m.seed = 42;
  m.target_live = 64;
  return m;
}

void churn(Runtime& rt, ShadowMutator& m, int steps) {
  for (int i = 0; i < steps; ++i) m.step(rt);
}

TEST(Checkpoint, CaptureIsSelfConsistent) {
  Runtime rt(4096, sim_config());
  ShadowMutator m(mutator_config());
  churn(rt, m, 200);
  const ShardCheckpoint cp = ShardCheckpoint::capture(3, 16, rt, m, 0);
  EXPECT_TRUE(cp.verify());
  EXPECT_EQ(cp.shard, 3u);
  EXPECT_EQ(cp.sessions, 16u);
  EXPECT_EQ(cp.digest, cp.compute_digest());
}

TEST(Checkpoint, RestoreRoundTripsBitIdentically) {
  Runtime rt(4096, sim_config());
  ShadowMutator m(mutator_config());
  churn(rt, m, 300);
  rt.collect();
  const ShardCheckpoint cp = ShardCheckpoint::capture(0, 8, rt, m, 1);

  // Diverge hard: more churn, another collection.
  churn(rt, m, 400);
  rt.collect();
  const ShardCheckpoint diverged = ShardCheckpoint::capture(0, 8, rt, m, 2);
  EXPECT_NE(diverged.digest, cp.digest)
      << "distinct states must not collide in the digest";

  ASSERT_TRUE(cp.restore_into(rt, m));
  const ShardCheckpoint again = ShardCheckpoint::capture(0, 8, rt, m, 1);
  EXPECT_EQ(again.digest, cp.digest);
  EXPECT_EQ(again.runtime.words, cp.runtime.words);
  EXPECT_EQ(again.runtime.roots, cp.runtime.roots);
  EXPECT_EQ(again.runtime.alloc, cp.runtime.alloc);
  EXPECT_EQ(again.mutator.live, cp.mutator.live);
  EXPECT_EQ(again.mutator.allocations, cp.mutator.allocations);
  // The restored shard is internally consistent: shadow agrees with heap.
  EXPECT_EQ(m.validate(rt), 0u);
}

TEST(Checkpoint, ChurnDigestPinned) {
  // The digest covers the heap image and the full shadow state, so this pin
  // holds the mutator's step stream (and its Runtime calls) fixed.
  Runtime rt(4096, sim_config());
  ShadowMutator m(mutator_config());
  churn(rt, m, 300);
  rt.collect();
  churn(rt, m, 400);
  const ShardCheckpoint cp = ShardCheckpoint::capture(0, 8, rt, m, 1);
  EXPECT_EQ(cp.digest, 0xc95410ef86339a2eULL);
}

TEST(Checkpoint, RestoredShardReplaysDeterministically) {
  // Run A: checkpoint, then K more steps -> image1. Restore, run the SAME
  // K steps -> image2. The mutator RNG is part of the checkpoint, so the
  // two futures must be bit-identical — this is what makes a quarantine
  // restore invisible to determinism tests.
  Runtime rt(4096, sim_config());
  ShadowMutator m(mutator_config());
  churn(rt, m, 250);
  const ShardCheckpoint cp = ShardCheckpoint::capture(1, 8, rt, m, 0);

  churn(rt, m, 150);
  const Runtime::Image first = rt.save_image();
  const ShadowMutator::Image first_shadow = m.save_image();

  ASSERT_TRUE(cp.restore_into(rt, m));
  churn(rt, m, 150);
  const Runtime::Image second = rt.save_image();
  const ShadowMutator::Image second_shadow = m.save_image();

  EXPECT_EQ(first.words, second.words);
  EXPECT_EQ(first.roots, second.roots);
  EXPECT_EQ(first.alloc, second.alloc);
  EXPECT_EQ(first.base, second.base);
  EXPECT_EQ(first_shadow.rng, second_shadow.rng);
  EXPECT_EQ(first_shadow.live, second_shadow.live);
  EXPECT_EQ(first_shadow.allocations, second_shadow.allocations);
}

TEST(Checkpoint, RestoreAcrossSemispaceFlip) {
  // A collection flips the active semispace; a checkpoint taken before the
  // flip must still restore cleanly after it (restore_image flips back).
  Runtime rt(4096, sim_config());
  ShadowMutator m(mutator_config());
  churn(rt, m, 300);
  const ShardCheckpoint cp = ShardCheckpoint::capture(0, 8, rt, m, 0);
  const Addr base_at_capture = cp.runtime.base;

  rt.collect();  // flip
  churn(rt, m, 100);

  ASSERT_TRUE(cp.restore_into(rt, m));
  const ShardCheckpoint again = ShardCheckpoint::capture(0, 8, rt, m, 0);
  EXPECT_EQ(again.runtime.base, base_at_capture);
  EXPECT_EQ(again.digest, cp.digest);
  EXPECT_EQ(m.validate(rt), 0u);
}

TEST(Checkpoint, TamperedHeapWordRefused) {
  Runtime rt(4096, sim_config());
  ShadowMutator m(mutator_config());
  churn(rt, m, 200);
  ShardCheckpoint cp = ShardCheckpoint::capture(0, 8, rt, m, 0);
  ASSERT_FALSE(cp.runtime.words.empty());

  churn(rt, m, 50);
  const Runtime::Image before = rt.save_image();
  const ShadowMutator::Image before_shadow = m.save_image();

  cp.runtime.words[cp.runtime.words.size() / 2] ^= 0x40;
  EXPECT_FALSE(cp.verify());
  EXPECT_FALSE(cp.restore_into(rt, m))
      << "a checkpoint failing its digest must be refused";

  // Refusal means untouched: the live shard state did not move.
  const Runtime::Image after = rt.save_image();
  EXPECT_EQ(before.words, after.words);
  EXPECT_EQ(before.roots, after.roots);
  EXPECT_EQ(before_shadow.rng, m.save_image().rng);
}

TEST(Checkpoint, TamperedMetadataRefused) {
  Runtime rt(4096, sim_config());
  ShadowMutator m(mutator_config());
  churn(rt, m, 100);

  ShardCheckpoint a = ShardCheckpoint::capture(0, 8, rt, m, 0);
  a.sessions = 9;  // session affinity is covered by the digest
  EXPECT_FALSE(a.verify());
  EXPECT_FALSE(a.restore_into(rt, m));

  ShardCheckpoint b = ShardCheckpoint::capture(0, 8, rt, m, 0);
  b.mutator.allocations += 1;  // shadow-graph bookkeeping too
  EXPECT_FALSE(b.verify());
  EXPECT_FALSE(b.restore_into(rt, m));

  ShardCheckpoint c = ShardCheckpoint::capture(0, 8, rt, m, 0);
  ASSERT_FALSE(c.runtime.roots.empty());
  c.runtime.roots[0] ^= 1;  // and the root namespace
  EXPECT_FALSE(c.verify());
  EXPECT_FALSE(c.restore_into(rt, m));
}

}  // namespace
}  // namespace hwgc
