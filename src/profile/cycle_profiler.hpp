// CycleProfiler — per-cycle stall attribution for one collection cycle
// (DESIGN.md §15).
//
// The profiler is a subscriber of the coprocessor's per-cycle event stream
// (sim/clock_observer.hpp): every cycle the clock loop publishes one
// CoreCycle record per core — kOff for a core that missed its clock
// (done, fail-stopped, store-drain window) — and closes the cycle, so the
// attribution is *exhaustive*: for every core, the per-class totals sum to
// the collection's elapsed cycles exactly.
//
// On top of the per-core totals the profiler keeps a per-cycle *binding
// class* — which resource bound that cycle — as a run-length-encoded
// stream (profile.segments). The rule, a pure function of the cycle's
// class multiset:
//   * if any core computed, the cycle advanced the collection: kCompute;
//   * otherwise the most-populous class among clocked cores binds (ties
//     break toward the smaller enum value, i.e. the scan lock outranks
//     memory);
//   * a cycle with no clocked core at all is idle-deconfigured — except
//     the store-drain window, which is bound by the memory ports (the
//     only thing the coprocessor is waiting on is its store buffers).
// The critical path of a collection is this binding stream (see
// profile/critical_path.hpp for the walker and the validator).
//
// Fast-forward: closing a cycle charges it through absorb(1), and a
// quiescent window arrives as absorb(k) — k more copies of the cycle just
// closed — so a fast-forwarded profile is bit-identical to a ticked one
// by construction (tests/test_fast_forward.cpp checks it end to end).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "profile/stall_class.hpp"
#include "sim/clock_observer.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// Attribution of one collection cycle. `valid` is false for collections
/// that never ran on the coprocessor (the recovery ladder's sequential
/// software fallback) — such entries keep profile history aligned with
/// gc_history but carry no cycle data.
struct CycleProfile {
  using ClassTotals = std::array<Cycle, kStallClassCount>;

  /// One maximal run of cycles with the same binding class.
  struct Segment {
    Cycle begin = 0;
    Cycle length = 0;
    StallClass binding = StallClass::kIdleDeconfigured;
    bool operator==(const Segment&) const = default;
  };

  std::uint32_t cores = 0;
  Cycle total_cycles = 0;
  bool valid = false;
  std::vector<ClassTotals> per_core;  ///< [core][class] cycle totals
  ClassTotals critical{};             ///< cycles each class was binding
  std::vector<Segment> segments;      ///< RLE binding stream, tiles [0, total)

  bool operator==(const CycleProfile&) const = default;

  /// Sum of one class across all cores.
  Cycle cls_total(StallClass c) const noexcept {
    Cycle sum = 0;
    for (const auto& pc : per_core) sum += pc[static_cast<std::size_t>(c)];
    return sum;
  }

  /// Denominator of attribution shares: cores x elapsed cycles.
  Cycle core_cycles() const noexcept {
    return static_cast<Cycle>(per_core.size()) * total_cycles;
  }

  /// The collection's binding resource: the class that was binding for
  /// the most cycles (ties toward the smaller enum value).
  StallClass binding() const noexcept {
    std::size_t best = 0;
    for (std::size_t i = 1; i < kStallClassCount; ++i) {
      if (critical[i] > critical[best]) best = i;
    }
    return static_cast<StallClass>(best);
  }

  /// Fraction of cycles bound by binding() (0 for an empty profile).
  double binding_share() const noexcept {
    if (total_cycles == 0) return 0.0;
    return static_cast<double>(
               critical[static_cast<std::size_t>(binding())]) /
           static_cast<double>(total_cycles);
  }
};

class CycleProfiler final : public ClockObserver {
 public:
  /// Resets all state for a fresh collection attempt on `cores` cores.
  /// The recovery ladder runs one attempt per call, so an aborted
  /// attempt's partial attribution is discarded and only the final,
  /// successful attempt's profile survives.
  void on_collection_begin(std::uint32_t cores) override;

  /// Finalizes the profile of a completed collection; an aborted one
  /// stays invalid.
  void on_collection_end(Cycle, const CollectionAbort* abort) override {
    profile_.valid = abort == nullptr;
  }

  void on_core_cycle(CoreId c, CoreCycle rec) override {
    cls_[c] = class_of(rec);
  }

  /// Closes one cycle: computes its binding class and charges it once.
  void on_cycle_end(const ClockSample& s) override;

  /// Charges `k` more copies of the cycle just closed.
  void absorb(Cycle k) override;

  /// Marks the collection as not coprocessor-profiled (sequential
  /// fallback): the profile stays invalid and empty of cycles.
  void mark_unprofiled() { on_collection_begin(0); }

  const CycleProfile& profile() const noexcept { return profile_; }
  CycleProfile take_profile() { return std::move(profile_); }

 private:
  /// Adds `k` cycles bound by `b` to the critical totals + RLE stream.
  void commit(StallClass b, Cycle k);

  CycleProfile profile_;
  std::vector<StallClass> cls_;  ///< per-core class of the last cycle
  StallClass binding_ = StallClass::kIdleDeconfigured;  ///< of the last cycle
};

}  // namespace hwgc
