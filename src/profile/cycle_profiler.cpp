#include "profile/cycle_profiler.hpp"

#include <algorithm>

namespace hwgc {

namespace {

/// Binding class of one cycle, from the per-class population of clocked
/// cores. Pure, so the ticked and fast-forward paths cannot diverge.
StallClass binding_of(const std::array<std::uint32_t, kStallClassCount>& pop,
                      std::uint32_t clocked) {
  if (pop[static_cast<std::size_t>(StallClass::kCompute)] > 0) {
    return StallClass::kCompute;
  }
  if (clocked == 0) return StallClass::kIdleDeconfigured;
  std::size_t best = 0;
  std::uint32_t best_pop = 0;
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    if (i == static_cast<std::size_t>(StallClass::kIdleDeconfigured)) continue;
    if (pop[i] > best_pop) {
      best_pop = pop[i];
      best = i;
    }
  }
  return static_cast<StallClass>(best);
}

}  // namespace

void CycleProfiler::on_collection_begin(std::uint32_t cores) {
  profile_ = CycleProfile{};
  profile_.cores = cores;
  profile_.per_core.assign(cores, CycleProfile::ClassTotals{});
  cls_.assign(cores, StallClass::kIdleDeconfigured);
  binding_ = StallClass::kIdleDeconfigured;
}

void CycleProfiler::commit(StallClass b, Cycle k) {
  profile_.critical[static_cast<std::size_t>(b)] += k;
  if (!profile_.segments.empty() && profile_.segments.back().binding == b) {
    profile_.segments.back().length += k;
  } else {
    profile_.segments.push_back({profile_.total_cycles, k, b});
  }
  profile_.total_cycles += k;
}

void CycleProfiler::on_cycle_end(const ClockSample& s) {
  if (s.draining) {
    // Every core halted: the store buffers are all the coprocessor waits on.
    std::fill(cls_.begin(), cls_.end(), StallClass::kIdleDeconfigured);
    binding_ = StallClass::kMemPort;
  } else {
    std::array<std::uint32_t, kStallClassCount> pop{};
    std::uint32_t clocked = 0;
    for (const StallClass cls : cls_) {
      ++pop[static_cast<std::size_t>(cls)];
      if (cls != StallClass::kIdleDeconfigured) ++clocked;
    }
    binding_ = binding_of(pop, clocked);
  }
  absorb(1);
}

void CycleProfiler::absorb(Cycle k) {
  for (std::size_t c = 0; c < cls_.size(); ++c) {
    profile_.per_core[c][static_cast<std::size_t>(cls_[c])] += k;
  }
  commit(binding_, k);
}

}  // namespace hwgc
