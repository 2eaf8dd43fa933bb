#include "profile/cycle_profiler.hpp"

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

void CycleProfiler::reset(std::uint32_t cores) {
  profile_ = CycleProfile{};
  profile_.cores = cores;
  profile_.per_core.assign(cores, CycleProfile::ClassTotals{});
  cls_.assign(cores, StallClass::kIdleDeconfigured);
  since_.assign(cores, 0);
  pop_ = {};
  pop_[static_cast<std::size_t>(StallClass::kIdleDeconfigured)] = cores;
  draining_ = false;
  stale_ = false;
  binding_ = StallClass::kIdleDeconfigured;
  bound_ = 0;
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

void CycleProfiler::settle(Cycle now) {
  if (now <= bound_) return;
  if (stale_) {
    const std::uint32_t clocked =
        profile_.cores -
        pop_[static_cast<std::size_t>(StallClass::kIdleDeconfigured)];
    // Store drain: the store buffers are all the coprocessor waits on.
    binding_ = draining_ ? StallClass::kMemPort : binding_of(pop_, clocked);
    stale_ = false;
  }
  commit(binding_, now - bound_);
  bound_ = now;
}

void CycleProfiler::on_core_run(CoreId c, Cycle now, CoreCycle rec) {
  settle(now);
  const StallClass cls = class_of(rec);
  if (cls == cls_[c]) return;
  profile_.per_core[c][static_cast<std::size_t>(cls_[c])] += now - since_[c];
  --pop_[static_cast<std::size_t>(cls_[c])];
  ++pop_[static_cast<std::size_t>(cls)];
  cls_[c] = cls;
  since_[c] = now;
  stale_ = true;
}

void CycleProfiler::on_sample(const ClockSample& s) {
  if (!s.draining || draining_) return;
  settle(s.now);
  draining_ = true;
  stale_ = true;
}

void CycleProfiler::on_collection_end(Cycle now, const CollectionAbort* abort) {
  // Whole cycles only: a cycle an abort was thrown in is not charged.
  settle(now);
  for (std::size_t c = 0; c < cls_.size(); ++c) {
    profile_.per_core[c][static_cast<std::size_t>(cls_[c])] += now - since_[c];
    since_[c] = now;
  }
  profile_.valid = abort == nullptr;
}

}  // namespace hwgc
