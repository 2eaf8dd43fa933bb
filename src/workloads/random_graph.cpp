#include "workloads/random_graph.hpp"

#include <algorithm>
#include <vector>

namespace hwgc {

GraphPlan make_random_plan(std::uint64_t seed, RandomGraphConfig cfg) {
  Rng rng(seed);
  GraphPlan p;
  std::vector<std::uint32_t> pool;  // linkable (non-garbage) nodes
  pool.reserve(cfg.nodes);

  for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
    const bool garbage = rng.uniform01() < cfg.garbage_fraction;
    const Word pi = static_cast<Word>(rng.below(cfg.max_pi + 1));
    const Word delta = static_cast<Word>(rng.below(cfg.max_delta + 1));
    const std::uint32_t node = p.add(pi, delta, garbage);
    if (!garbage) pool.push_back(node);
  }
  if (pool.empty()) pool.push_back(p.add(1, 1));

  // Wire pointer fields among non-garbage nodes (any to any: back edges,
  // cycles and self-loops all occur).
  for (std::uint32_t n : pool) {
    for (Word f = 0; f < p.nodes[n].pi; ++f) {
      if (rng.uniform01() < cfg.edge_probability) {
        p.link(n, f, pool[rng.below(pool.size())]);
      }
    }
  }

  for (std::uint32_t r = 0; r < cfg.roots; ++r) {
    p.add_root(pool[rng.below(pool.size())]);
  }
  return p;
}

GraphPlan make_fuzz_plan(std::uint64_t seed, const FuzzGraphConfig& cfg) {
  Rng rng(seed);
  GraphPlan p;

  const std::uint32_t nodes = static_cast<std::uint32_t>(
      rng.between(cfg.min_nodes, std::max(cfg.min_nodes, cfg.max_nodes)));

  std::vector<std::uint32_t> pool;  // linkable (non-garbage) nodes
  pool.reserve(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    const bool garbage = rng.chance(cfg.garbage_fraction);
    const Word pi = static_cast<Word>(rng.below(cfg.max_pi + 1));
    const Word delta =
        rng.chance(cfg.huge_fraction)
            ? static_cast<Word>(rng.between(
                  cfg.max_delta, std::max(cfg.max_delta, cfg.huge_delta)))
            : static_cast<Word>(rng.below(cfg.max_delta + 1));
    const std::uint32_t node = p.add(pi, delta, garbage);
    if (!garbage) pool.push_back(node);
  }
  if (pool.empty()) pool.push_back(p.add(1, 1));

  // Hubs first, so the ordinary wiring below can also hit them: a slice of
  // the pool gets a dedicated edge into each hub (shared subgraphs, and at
  // collection time a hot header-lock address).
  const std::uint32_t hub_count =
      std::min<std::uint32_t>(cfg.hubs,
                              static_cast<std::uint32_t>(pool.size()));
  for (std::uint32_t h = 0; h < hub_count; ++h) {
    const std::uint32_t hub = pool[rng.below(pool.size())];
    for (std::uint32_t n : pool) {
      if (p.nodes[n].pi == 0 || !rng.chance(cfg.hub_in_probability)) continue;
      p.link(n, static_cast<Word>(rng.below(p.nodes[n].pi)), hub);
    }
  }

  // Initial wiring: any-to-any, so back edges, cycles and self-loops all
  // occur. Later links overwrite earlier ones at materialization, so this
  // may silently re-target a hub edge — intended, the dice rule.
  for (std::uint32_t n : pool) {
    for (Word f = 0; f < p.nodes[n].pi; ++f) {
      if (rng.chance(cfg.edge_probability)) {
        p.link(n, f, pool[rng.below(pool.size())]);
      }
    }
  }

  // Roots.
  if (!rng.chance(cfg.empty_root_probability)) {
    const std::uint32_t root_count = static_cast<std::uint32_t>(
        rng.between(1, std::max<std::uint32_t>(1, cfg.max_roots)));
    for (std::uint32_t r = 0; r < root_count; ++r) {
      p.add_root(pool[rng.below(pool.size())]);
    }
  }

  // Mid-build mutation pass: re-target a fraction of the wired fields and
  // re-pick roots. Appended links win at materialization, so the final
  // graph can strand whole subgraphs that the initial wiring reached.
  const std::size_t wired = p.edges.size();
  const std::size_t mutations =
      static_cast<std::size_t>(cfg.mutation_fraction *
                               static_cast<double>(wired));
  for (std::size_t m = 0; m < mutations; ++m) {
    const GraphPlan::Edge victim = p.edges[rng.below(wired)];
    p.link(victim.src, victim.field, pool[rng.below(pool.size())]);
  }
  for (auto& r : p.roots) {
    if (rng.chance(cfg.mutation_fraction)) r = pool[rng.below(pool.size())];
  }

  return p;
}

}  // namespace hwgc
