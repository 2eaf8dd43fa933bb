// Random object-graph generation for property-based testing.
//
// Produces arbitrary graph plans — including cycles, self-references,
// shared children, unreachable garbage and degenerate shapes — so the
// collector invariants (DESIGN.md §8) can be checked over a wide sweep of
// seeds rather than only on the benchmark shapes.
#pragma once

#include <cstdint>

#include "sim/rng.hpp"
#include "workloads/graph_plan.hpp"

namespace hwgc {

struct RandomGraphConfig {
  std::uint32_t nodes = 500;
  Word max_pi = 6;
  Word max_delta = 10;
  /// Probability that a pointer field is linked (to any node, including
  /// the object itself — cycles and self-loops are intended).
  double edge_probability = 0.6;
  /// Fraction of nodes that are never referenced and not rooted: must
  /// survive as garbage (i.e. must NOT be copied).
  double garbage_fraction = 0.15;
  std::uint32_t roots = 4;
};

/// Builds a random plan. Reachability is whatever the dice decide: some
/// "live" nodes may still end up unreachable — the verifier snapshot
/// defines ground truth, so that is fine.
GraphPlan make_random_plan(std::uint64_t seed, RandomGraphConfig cfg = {});

// Seeded hostile graphs for the schedule fuzzer (FuzzCase,
// conformance/conformance.hpp). Where make_random_plan aims for ordinary
// shapes, make_fuzz_plan aims for hostile ones: cycles and self-loops,
// shared subgraphs funneled through hub objects (header-lock contention),
// a tail of huge objects (long copies, the sub-object stripe path), and
// mid-build mutations that re-target already-wired fields and roots —
// emulating a mutator that changed the graph after construction, so the
// reachable set is decided by the final state, not the build order. The
// verifier snapshot remains the ground truth for reachability.
struct FuzzGraphConfig {
  /// Node count is drawn uniformly from [min_nodes, max_nodes].
  std::uint32_t min_nodes = 16;
  std::uint32_t max_nodes = 160;

  Word max_pi = 8;
  Word max_delta = 12;

  /// Probability that a pointer field is wired at initial construction.
  double edge_probability = 0.55;

  /// Fraction of nodes that are never referenced and never rooted.
  double garbage_fraction = 0.12;

  /// Fraction of nodes grown huge: data area uniform in
  /// [max_delta, huge_delta] words (exercises long copies and, with
  /// subobject_copy on, the stripe dispenser).
  double huge_fraction = 0.05;
  Word huge_delta = 96;

  /// Hub objects: nodes that a large share of other nodes point at,
  /// concentrating header-lock traffic the way javac's symbol hubs do.
  std::uint32_t hubs = 2;
  double hub_in_probability = 0.3;

  /// Mid-build mutation pass: this fraction of all wired fields is
  /// re-targeted after construction (later links overwrite earlier ones at
  /// materialization), and each root is re-picked with the same chance.
  double mutation_fraction = 0.15;

  /// Root count is drawn from [1, max_roots] — except with
  /// empty_root_probability the plan ships no roots at all, the
  /// empty-cycle edge case.
  std::uint32_t max_roots = 6;
  double empty_root_probability = 0.02;
};

/// Builds a fuzz plan. Deterministic: the same (seed, cfg) pair yields the
/// identical plan, so any failing case replays bit-for-bit.
GraphPlan make_fuzz_plan(std::uint64_t seed, const FuzzGraphConfig& cfg = {});

}  // namespace hwgc
