// Workload substrate: graph plans, materialization, the eight
// benchmark-shape generators and the ShadowMutator's shadow model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "heap/object_model.hpp"
#include "runtime/runtime.hpp"
#include "sim/rng.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/mutator.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

TEST(GraphPlan, CountsLiveAndGarbage) {
  GraphPlan p;
  p.add(2, 3);
  p.add(0, 0, /*garbage=*/true);
  p.add(1, 1);
  EXPECT_EQ(p.live_nodes(), 2u);
  EXPECT_EQ(p.live_words(), object_words(2, 3) + object_words(1, 1));
  EXPECT_EQ(p.total_words(), p.live_words() + object_words(0, 0));
}

TEST(Materialize, HeapHoldsPlanExactly) {
  GraphPlan p;
  const auto a = p.add(2, 1);
  const auto b = p.add(0, 2);
  p.link(a, 1, b);
  p.add_root(a);
  Workload w = materialize(p);
  ASSERT_EQ(w.node_addrs.size(), 2u);
  const Addr aa = w.node_addrs[a];
  const Addr bb = w.node_addrs[b];
  EXPECT_EQ(w.heap->pi(aa), 2u);
  EXPECT_EQ(w.heap->pointer(aa, 0), kNullPtr);
  EXPECT_EQ(w.heap->pointer(aa, 1), bb);
  ASSERT_EQ(w.heap->roots().size(), 1u);
  EXPECT_EQ(w.heap->roots()[0], aa);
  EXPECT_EQ(w.live_words, p.live_words());
}

TEST(Materialize, HeapFactorSizesSemispace) {
  GraphPlan p;
  p.add(0, 100);
  p.add_root(0);
  Workload w2 = materialize(p, 2.0);
  Workload w8 = materialize(p, 8.0);
  EXPECT_GE(w2.heap->layout().semispace_words(), 2 * p.live_words());
  EXPECT_GE(w8.heap->layout().semispace_words(), 8 * p.live_words());
  EXPECT_GT(w8.heap->layout().semispace_words(),
            w2.heap->layout().semispace_words());
}

TEST(Benchmarks, AllNamesRoundTrip) {
  EXPECT_EQ(all_benchmarks().size(), 8u);
  std::unordered_set<std::string_view> names;
  for (BenchmarkId id : all_benchmarks()) names.insert(benchmark_name(id));
  EXPECT_EQ(names.size(), 8u);
  EXPECT_TRUE(names.contains("compress"));
  EXPECT_TRUE(names.contains("search"));
  EXPECT_TRUE(names.contains("cup"));
}

TEST(Benchmarks, DeterministicForSeed) {
  for (BenchmarkId id : all_benchmarks()) {
    const GraphPlan a = make_benchmark_plan(id, 0.01, 7);
    const GraphPlan b = make_benchmark_plan(id, 0.01, 7);
    ASSERT_EQ(a.nodes.size(), b.nodes.size()) << benchmark_name(id);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (std::size_t i = 0; i < a.nodes.size(); ++i) {
      ASSERT_EQ(a.nodes[i].pi, b.nodes[i].pi);
      ASSERT_EQ(a.nodes[i].delta, b.nodes[i].delta);
    }
  }
}

TEST(Benchmarks, ScaleGrowsLiveSet) {
  for (BenchmarkId id : all_benchmarks()) {
    const GraphPlan small = make_benchmark_plan(id, 0.01);
    const GraphPlan large = make_benchmark_plan(id, 0.05);
    EXPECT_GT(large.live_words(), small.live_words()) << benchmark_name(id);
  }
}

TEST(Benchmarks, EdgesRespectPointerAreas) {
  for (BenchmarkId id : all_benchmarks()) {
    const GraphPlan p = make_benchmark_plan(id, 0.02);
    for (const auto& e : p.edges) {
      ASSERT_LT(e.src, p.nodes.size()) << benchmark_name(id);
      ASSERT_LT(e.dst, p.nodes.size());
      ASSERT_LT(e.field, p.nodes[e.src].pi)
          << benchmark_name(id) << ": edge into a non-pointer field";
    }
    for (const auto& n : p.nodes) {
      ASSERT_LE(n.pi, kMaxPi) << benchmark_name(id);
      ASSERT_LE(n.delta, kMaxDelta);
    }
    ASSERT_FALSE(p.roots.empty()) << benchmark_name(id);
  }
}

TEST(Benchmarks, RejectsNonPositiveScale) {
  EXPECT_THROW(make_benchmark_plan(BenchmarkId::kDb, 0.0),
               std::invalid_argument);
  EXPECT_THROW(make_benchmark_plan(BenchmarkId::kDb, -1.0),
               std::invalid_argument);
}

// ShadowMutator::Config validation: impossible configurations must throw
// at construction (or on the first step against an undersized heap), not
// corrupt headers or die whenever the rng happens to draw the bad shape.
TEST(ShadowMutatorConfig, RejectsZeroTargetLive) {
  ShadowMutator::Config cfg;
  cfg.target_live = 0;
  EXPECT_THROW(ShadowMutator{cfg}, std::invalid_argument);
}

TEST(ShadowMutatorConfig, RejectsShapesBeyondHeaderEncoding) {
  ShadowMutator::Config pi_too_big;
  pi_too_big.max_pi = kMaxPi + 1;
  EXPECT_THROW(ShadowMutator{pi_too_big}, std::invalid_argument);

  ShadowMutator::Config delta_too_big;
  delta_too_big.max_delta = kMaxDelta + 1;
  EXPECT_THROW(ShadowMutator{delta_too_big}, std::invalid_argument);

  ShadowMutator::Config at_limit;
  at_limit.max_pi = kMaxPi;
  at_limit.max_delta = kMaxDelta;
  EXPECT_NO_THROW(ShadowMutator{at_limit});
}

TEST(ShadowMutatorConfig, RejectsShapeThatCanNeverFitSemispace) {
  Runtime rt(64);
  ShadowMutator::Config cfg;
  cfg.max_pi = 100;
  cfg.max_delta = 200;  // max-shape object: 302 words, far over capacity
  ShadowMutator mut(cfg);
  EXPECT_THROW(mut.step(rt), std::invalid_argument);

  Runtime big(1 << 14);
  ShadowMutator ok(cfg);
  EXPECT_NO_THROW(ok.run(big, 50));
}

TEST(ShadowMutatorProbe, ReadsMatchShadowAcrossCollections) {
  Runtime rt(2200);  // small semispace: probes span collection cycles
  ShadowMutator mut({.seed = 3, .target_live = 48});
  std::size_t words_read = 0;
  std::size_t mismatches = 0;
  for (int i = 0; i < 900; ++i) {
    mut.run(rt, 10);
    words_read += mut.probe(rt, &mismatches);
  }
  EXPECT_GE(rt.gc_history().size(), 2u)
      << "probes must have spanned collection cycles";
  EXPECT_GT(words_read, 0u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(ShadowMutatorProbe, ProbeWithoutMismatchPointerIsSafe) {
  Runtime rt(1 << 14);
  ShadowMutator mut({.seed = 9, .target_live = 16});
  EXPECT_EQ(mut.probe(rt), 0u) << "nothing rooted yet: nothing to read";
  mut.run(rt, 200);
  (void)mut.probe(rt);  // null mismatch counter must not crash
}

TEST(RandomGraph, DeterministicAndInBounds) {
  const GraphPlan a = make_random_plan(3);
  const GraphPlan b = make_random_plan(3);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (const auto& e : a.edges) {
    ASSERT_LT(e.field, a.nodes[e.src].pi);
    ASSERT_FALSE(a.nodes[e.dst].garbage) << "edges must target live nodes";
  }
  const GraphPlan c = make_random_plan(4);
  EXPECT_NE(a.edges.size(), c.edges.size());
}

// --- ShadowMutator shadow model -------------------------------------------
//
// The live-set contract (mutator.hpp): live is ascending, a superset of the
// objects reachable from rooted ones between releases, and exactly that set
// after each release. The RNG indexes into live, so any drift changes every
// later step; these tests check the contract against a reachability walk
// over save_image() and pin the stream itself.

/// Slots reachable from rooted objects in `img`, ascending.
std::vector<std::size_t> reachable(const ShadowMutator::Image& img) {
  std::vector<char> seen(img.objs.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < img.objs.size(); ++i) {
    if (img.objs[i].rooted) {
      seen[i] = 1;
      stack.push_back(i);
    }
  }
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    for (std::int64_t c : img.objs[i].children) {
      if (c >= 0 && !seen[static_cast<std::size_t>(c)]) {
        seen[static_cast<std::size_t>(c)] = 1;
        stack.push_back(static_cast<std::size_t>(c));
      }
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(i);
  }
  return out;
}

/// Checks the live-set contract on one image; `released` says the step that
/// produced it lowered live_rooted(), so live must be exact.
void expect_live_contract(const ShadowMutator::Image& img, bool released,
                          std::size_t step) {
  const std::vector<std::size_t> reach = reachable(img);
  ASSERT_TRUE(std::adjacent_find(img.live.begin(), img.live.end(),
                                 [](std::size_t a, std::size_t b) {
                                   return a >= b;
                                 }) == img.live.end())
      << "live not strictly ascending after step " << step;
  ASSERT_TRUE(std::includes(img.live.begin(), img.live.end(), reach.begin(),
                            reach.end()))
      << "live misses a reachable object after step " << step;
  if (released) {
    ASSERT_EQ(img.live, reach)
        << "live is not exactly the reachable set after the release at step "
        << step;
  }
}

/// FNV-1a 64 over every field of an Image, in declaration order.
std::uint64_t image_fnv(const ShadowMutator::Image& img) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::uint64_t w : img.rng) mix(w);
  mix(img.objs.size());
  for (const ShadowMutator::ShadowObj& o : img.objs) {
    mix(o.ref.slot_index());
    mix(o.rooted ? 1 : 0);
    mix(o.pi);
    mix(o.delta);
    mix(o.children.size());
    for (std::int64_t c : o.children) mix(static_cast<std::uint64_t>(c));
    mix(o.data.size());
    for (Word w : o.data) mix(w);
  }
  mix(img.live.size());
  for (std::size_t i : img.live) mix(i);
  mix(img.allocations);
  return h;
}

struct ShadowCase {
  std::uint64_t seed;
  const char* name;
  Word max_pi;
  Word max_delta;
  std::size_t target_live;
};

void PrintTo(const ShadowCase& c, std::ostream* os) {
  *os << c.name << " seed " << c.seed;
}

std::vector<ShadowCase> shadow_cases() {
  std::vector<ShadowCase> out;
  const ShadowMutator::Config d;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    out.push_back({seed, "default", d.max_pi, d.max_delta, d.target_live});
    out.push_back({seed, "pi1", 1, d.max_delta, d.target_live});
    out.push_back({seed, "live4", d.max_pi, d.max_delta, 4});
    out.push_back({seed, "delta0", d.max_pi, 0, d.target_live});
  }
  return out;
}

class ShadowLiveSet : public ::testing::TestWithParam<ShadowCase> {};

TEST_P(ShadowLiveSet, LiveIsReachableSetAfterEveryRelease) {
  const ShadowCase c = GetParam();
  Runtime rt(1 << 14);
  ShadowMutator mut({.seed = c.seed,
                     .max_pi = c.max_pi,
                     .max_delta = c.max_delta,
                     .target_live = c.target_live});
  std::size_t releases = 0;
  for (std::size_t step = 0; step < 5000; ++step) {
    const std::size_t rooted_before = mut.live_rooted();
    mut.step(rt);
    const bool released = mut.live_rooted() < rooted_before;
    releases += released ? 1 : 0;
    expect_live_contract(mut.save_image(), released, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(releases, 100u) << "the churn must actually release roots";
  EXPECT_EQ(mut.validate(rt), 0u);
}

std::string shadow_case_name(const ::testing::TestParamInfo<ShadowCase>& info) {
  return std::string(info.param.name) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Matrix, ShadowLiveSet,
                         ::testing::ValuesIn(shadow_cases()),
                         shadow_case_name);

/// A completed link the next step performs, replayed from the image taken
/// before it: the RNG draws of ShadowMutator::step's link branch.
struct Link {
  std::size_t parent;
  Word field;
  std::size_t child;
};

std::optional<Link> replay_link(const ShadowMutator::Image& before,
                                const ShadowMutator::Image& after) {
  if (after.objs.size() != before.objs.size()) return std::nullopt;  // alloc
  Rng rng;
  rng.set_state(before.rng);
  if (rng.uniform01() >= 0.65) return std::nullopt;
  const std::size_t n = before.live.size();
  const std::size_t p = before.live[rng.below(n)];
  if (!before.objs[p].rooted || before.objs[p].pi == 0) return std::nullopt;
  const std::size_t c = before.live[rng.below(n)];
  if (!before.objs[c].rooted) return std::nullopt;
  return Link{p, static_cast<Word>(rng.below(before.objs[p].pi)), c};
}

TEST(ShadowLiveSet, SelfLinkReleaseAndSameChildRelink) {
  // One rooted object at a time makes the edge cases common: a link picks
  // the same object as parent and child, a second link rewrites the field
  // with the child it already holds, and the release drops an object whose
  // only rooted in-edge is its own.
  std::size_t self_link_releases = 0;
  std::size_t same_child_relinks = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Runtime rt(1 << 12);
    ShadowMutator mut({.seed = seed, .max_pi = 1, .target_live = 1});
    ShadowMutator::Image before = mut.save_image();
    for (std::size_t step = 0; step < 3000; ++step) {
      const std::size_t rooted_before = mut.live_rooted();
      mut.step(rt);
      const ShadowMutator::Image after = mut.save_image();
      const bool released = mut.live_rooted() < rooted_before;
      expect_live_contract(after, released, step);
      if (::testing::Test::HasFatalFailure()) return;
      if (const std::optional<Link> l = replay_link(before, after)) {
        const auto& held = before.objs[l->parent].children;
        if (held[l->field] == static_cast<std::int64_t>(l->child)) {
          ++same_child_relinks;
        }
      }
      if (released) {
        for (std::size_t i = 0; i < before.objs.size(); ++i) {
          const auto& o = before.objs[i];
          if (o.rooted && !after.objs[i].rooted &&
              std::count(o.children.begin(), o.children.end(),
                         static_cast<std::int64_t>(i)) > 0) {
            ++self_link_releases;
          }
        }
      }
      before = after;
    }
    EXPECT_EQ(mut.validate(rt), 0u);
  }
  EXPECT_GT(self_link_releases, 0u);
  EXPECT_GT(same_child_relinks, 0u);
}

/// The full mark the region mark replaced, as a reference: seed every
/// unrooted slot of `live` that a rooted object links to, follow unrooted
/// children, and keep `live`'s rooted slots plus what the walk marked.
std::vector<std::size_t> full_mark(const ShadowMutator::Image& img,
                                   const std::vector<std::size_t>& live) {
  const auto& objs = img.objs;
  std::vector<char> marked(objs.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i : live) {
    if (!objs[i].rooted) continue;
    for (std::int64_t c : objs[i].children) {
      const auto ci = static_cast<std::size_t>(c);
      if (c >= 0 && !objs[ci].rooted && !marked[ci]) {
        marked[ci] = 1;
        stack.push_back(ci);
      }
    }
  }
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    for (std::int64_t c : objs[i].children) {
      const auto ci = static_cast<std::size_t>(c);
      if (c >= 0 && !objs[ci].rooted && !marked[ci]) {
        marked[ci] = 1;
        stack.push_back(ci);
      }
    }
  }
  std::vector<std::size_t> out;
  std::copy_if(live.begin(), live.end(), std::back_inserter(out),
               [&](std::size_t i) { return objs[i].rooted || marked[i]; });
  return out;
}

struct RegionCase {
  Word max_pi;
  std::size_t target_live;
};

void PrintTo(const RegionCase& c, std::ostream* os) {
  *os << "max_pi " << c.max_pi << " target_live " << c.target_live;
}

class ShadowRegionMark : public ::testing::TestWithParam<RegionCase> {};

TEST_P(ShadowRegionMark, EqualsFullMarkAfterEveryStep) {
  // The reference keeps its own live list: new slots are appended, and
  // every release (not only those after an orphan event) runs the full
  // mark over it. The mutator's live must equal it after every step. Half
  // way, the run moves into a fresh mutator and runtime through
  // save_image/restore_image, whose first mark covers every unrooted slot;
  // the moved run must end where the uninterrupted one does.
  const RegionCase c = GetParam();
  constexpr std::size_t kSteps = 2400;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ShadowMutator::Config cfg{
        .seed = seed, .max_pi = c.max_pi, .target_live = c.target_live};
    Runtime rt(1 << 16);
    ShadowMutator mut(cfg);
    Runtime moved_rt(1 << 16);
    ShadowMutator moved({.seed = seed + 100,
                         .max_pi = c.max_pi,
                         .target_live = c.target_live});
    std::vector<std::size_t> ref;
    std::size_t marks = 0;
    for (std::size_t step = 0; step < kSteps; ++step) {
      if (step == kSteps / 2) {
        moved_rt.restore_image(rt.save_image());
        moved.restore_image(mut.save_image());
      }
      ShadowMutator& m = step < kSteps / 2 ? mut : moved;
      const std::size_t rooted_before = m.live_rooted();
      const std::uint64_t slots_before = m.allocations();
      m.step(step < kSteps / 2 ? rt : moved_rt);
      if (step >= kSteps / 2) mut.step(rt);
      if (m.allocations() > slots_before) ref.push_back(slots_before);
      const ShadowMutator::Image img = m.save_image();
      if (m.live_rooted() < rooted_before) {
        ref = full_mark(img, ref);
        ++marks;
      }
      ASSERT_EQ(img.live, ref) << "after step " << step;
    }
    EXPECT_GT(marks, 20u);
    EXPECT_EQ(image_fnv(moved.save_image()), image_fnv(mut.save_image()));
    EXPECT_EQ(moved_rt.save_image().words, rt.save_image().words);
    EXPECT_EQ(moved.validate(moved_rt), 0u);
  }
}

std::string region_case_name(
    const ::testing::TestParamInfo<RegionCase>& info) {
  return "pi" + std::to_string(info.param.max_pi) + "_live" +
         std::to_string(info.param.target_live);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ShadowRegionMark,
    ::testing::Values(RegionCase{0, 1}, RegionCase{0, 8}, RegionCase{0, 256},
                      RegionCase{1, 1}, RegionCase{1, 8}, RegionCase{1, 256},
                      RegionCase{4, 1}, RegionCase{4, 8}, RegionCase{4, 256},
                      RegionCase{16, 1}, RegionCase{16, 8},
                      RegionCase{16, 256}),
    region_case_name);

// --- Hostile images: restore_image validates before it touches state -----

/// An image of a short churn with collections, releases and dead slots.
ShadowMutator::Image churned_image() {
  Runtime rt(1 << 14);
  ShadowMutator mut({.seed = 4, .target_live = 16});
  mut.run(rt, 400);
  return mut.save_image();
}

/// Restoring `img` must throw std::invalid_argument whose message contains
/// `needle`, and leave the target mutator as it was.
void expect_rejected(const ShadowMutator::Image& img,
                     const std::string& needle) {
  Runtime rt(1 << 14);
  ShadowMutator target({.seed = 11, .target_live = 16});
  target.run(rt, 100);
  const std::uint64_t before = image_fnv(target.save_image());
  try {
    target.restore_image(img);
    ADD_FAILURE() << "restore_image accepted the image (wanted: " << needle
                  << ")";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(image_fnv(target.save_image()), before)
      << "a rejected image changed the mutator";
}

/// First object index in `img` that `pred` accepts.
template <typename Pred>
std::size_t find_obj(const ShadowMutator::Image& img, Pred pred) {
  for (std::size_t i = 0; i < img.objs.size(); ++i) {
    if (pred(img.objs[i], i)) return i;
  }
  ADD_FAILURE() << "no object in the churned image fits the case";
  return 0;
}

TEST(ShadowMutatorHostileImage, ChurnedImageRestores) {
  ShadowMutator m({.seed = 11, .target_live = 16});
  EXPECT_NO_THROW(m.restore_image(churned_image()));
}

TEST(ShadowMutatorHostileImage, RejectsChildrenSizeOtherThanPi) {
  ShadowMutator::Image img = churned_image();
  const std::size_t i = find_obj(
      img, [](const auto& o, std::size_t) { return o.pi == 4; });
  img.objs[i].children.push_back(-1);  // one past max_pi as well
  expect_rejected(img, "object " + std::to_string(i) + " children: 5");
  img.objs[i].children.resize(2);
  expect_rejected(img, "object " + std::to_string(i) + " children: 2");
}

TEST(ShadowMutatorHostileImage, RejectsDataSizeOtherThanDelta) {
  ShadowMutator::Image img = churned_image();
  const std::size_t i = find_obj(
      img, [](const auto& o, std::size_t) { return o.delta == 8; });
  img.objs[i].data.push_back(7);  // one past max_delta as well
  expect_rejected(img, "object " + std::to_string(i) + " data: 9");
  img.objs[i].data.clear();
  expect_rejected(img, "object " + std::to_string(i) + " data: 0");
}

TEST(ShadowMutatorHostileImage, RejectsChildOutOfRange) {
  ShadowMutator::Image img = churned_image();
  const std::size_t i = find_obj(
      img, [](const auto& o, std::size_t) { return o.pi > 0; });
  const std::string obj = "object " + std::to_string(i) + " children[0] = ";
  img.objs[i].children[0] = static_cast<std::int64_t>(img.objs.size());
  expect_rejected(img, obj + std::to_string(img.objs.size()));
  img.objs[i].children[0] = -2;
  expect_rejected(img, obj + "-2");
}

TEST(ShadowMutatorHostileImage, RejectsLiveEntryOutOfRange) {
  ShadowMutator::Image img = churned_image();
  img.live.push_back(img.objs.size());
  expect_rejected(img, "live[" + std::to_string(img.live.size() - 1) +
                           "] = " + std::to_string(img.objs.size()) +
                           " names no object");
}

TEST(ShadowMutatorHostileImage, RejectsLiveNotStrictlyAscending) {
  ShadowMutator::Image img = churned_image();
  ASSERT_GE(img.live.size(), 3u);
  std::swap(img.live[1], img.live[2]);
  expect_rejected(img, "live[2] = object " + std::to_string(img.live[2]) +
                           " is not above live[1]");
  std::swap(img.live[1], img.live[2]);
  img.live.insert(img.live.begin() + 1, img.live[1]);  // a duplicate
  expect_rejected(img, "live[2]");
}

TEST(ShadowMutatorHostileImage, RejectsRootedObjectMissingFromLive) {
  ShadowMutator::Image img = churned_image();
  const auto it = std::find_if(img.live.begin(), img.live.end(),
                               [&](std::size_t i) {
                                 return img.objs[i].rooted;
                               });
  ASSERT_NE(it, img.live.end());
  const std::size_t i = *it;
  img.live.erase(it);
  expect_rejected(img, "object " + std::to_string(i) + " rooted");
}

TEST(ShadowMutatorHostileImage, RejectsUnlistedUnrootedChildOfListed) {
  // The region mark relies on it: an unrooted child of a listed object is
  // listed, so the region never reaches a slot outside live.
  ShadowMutator::Image img = churned_image();
  std::vector<char> listed(img.objs.size(), 0);
  for (std::size_t i : img.live) listed[i] = 1;
  const std::size_t dead = find_obj(img, [&](const auto& o, std::size_t i) {
    return !o.rooted && !listed[i];
  });
  const std::size_t parent = find_obj(img, [&](const auto& o, std::size_t i) {
    return o.pi > 0 && listed[i];
  });
  img.objs[parent].children[0] = static_cast<std::int64_t>(dead);
  expect_rejected(img, "object " + std::to_string(parent) + " children[0] = " +
                           std::to_string(dead) + ": an unrooted child");
}

TEST(ShadowMutatorConfig, RestoreRejectsImageOfWiderShapes) {
  // The flat layout reserves max_pi children and max_delta words per slot,
  // so an image from a wider config cannot be laid out.
  Runtime rt(1 << 14);
  ShadowMutator wide({.seed = 3, .max_pi = 4, .target_live = 16});
  wide.run(rt, 200);
  ShadowMutator narrow({.seed = 3, .max_pi = 1, .target_live = 16});
  EXPECT_THROW(narrow.restore_image(wide.save_image()), std::invalid_argument);
}

TEST(ShadowMutatorStream, ImageDigestsPinned) {
  // The RNG draw sequence, the live order and every Runtime call are part of
  // the simulated results (corpus traces, service goldens): pin the full
  // shadow state after a long churn for three seeds.
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {1, 0x9d88a6ee700e9f67ULL},
      {7, 0x2e3929b06e3e66e1ULL},
      {42, 0xf83365a927ee9a00ULL},
  };
  for (const auto& [seed, pin] : pins) {
    Runtime rt(1 << 14);
    ShadowMutator mut({.seed = seed});
    mut.run(rt, 20000);
    EXPECT_EQ(image_fnv(mut.save_image()), pin) << "seed " << seed;
  }
}

TEST(ShadowMutatorStream, RestoreWhileLiveIsStaleResumesTheSameStream) {
  // Capture at a step where live still holds an unreachable object (an
  // unlink or overwrite orphaned it and no release has marked since),
  // restore into a fresh mutator and runtime, and run both on.
  Runtime rt(1 << 14);
  ShadowMutator mut({.seed = 5, .target_live = 16});
  std::size_t steps = 0;
  for (; steps < 20000; ++steps) {
    mut.step(rt);
    const ShadowMutator::Image img = mut.save_image();
    if (steps > 500 && img.live != reachable(img)) break;
  }
  ASSERT_LT(steps, 20000u) << "no step left live stale";

  Runtime rt2(1 << 14);
  rt2.restore_image(rt.save_image());
  ShadowMutator copy({.seed = 99, .target_live = 16});
  copy.restore_image(mut.save_image());
  EXPECT_EQ(image_fnv(copy.save_image()), image_fnv(mut.save_image()));

  for (int i = 0; i < 3000; ++i) {
    mut.step(rt);
    copy.step(rt2);
  }
  EXPECT_EQ(image_fnv(copy.save_image()), image_fnv(mut.save_image()));
  EXPECT_EQ(rt2.save_image().words, rt.save_image().words);
  EXPECT_EQ(copy.validate(rt2), 0u);
}

}  // namespace
}  // namespace hwgc
