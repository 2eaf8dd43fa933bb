// CycleProfiler — per-cycle stall attribution for one collection cycle
// (DESIGN.md §15).
//
// The profiler is a subscriber of the coprocessor's event stream
// (sim/clock_observer.hpp): the clock loop publishes each core's record as
// runs — a record and the cycle from which the core repeats it, kOff for a
// core that misses its clock (done, fail-stopped, store-drain window) — so
// the attribution is *exhaustive*: for every core, the per-class totals
// sum to the collection's elapsed cycles exactly.
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
// Runs, not cycles: a core's run is charged to its class when the core's
// next run starts (or the collection ends), and the profiler keeps the
// per-class population of the current runs. The binding class changes only
// when a population does, so it is recomputed at most once per cycle that
// changed a core's class and charged as a stretch when the next one
// starts. A fast-forward jump publishes nothing and costs nothing here;
// the profile is bit-identical to a cycle-by-cycle one by construction
// (tests/test_fast_forward.cpp checks it against the ticked run).
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
  void on_collection_begin(std::uint32_t cores, const Cycle&) override {
    reset(cores);
  }

  /// Charges every open run through cycle `now` - 1 (the cycle an abort
  /// was thrown in is not charged) and finalizes the profile of a
  /// completed collection; an aborted one stays invalid.
  void on_collection_end(Cycle now, const CollectionAbort* abort) override;

  /// Ends core `c`'s previous run at `now` and starts one of class
  /// class_of(rec).
  void on_core_run(CoreId c, Cycle now, CoreCycle rec) override;

  /// The first store-drain cycle: from it on the memory ports bind.
  void on_sample(const ClockSample& s) override;

  /// Marks the collection as not coprocessor-profiled (sequential
  /// fallback): the profile stays invalid and empty of cycles.
  void mark_unprofiled() { reset(0); }

  const CycleProfile& profile() const noexcept { return profile_; }
  CycleProfile take_profile() { return std::move(profile_); }

 private:
  void reset(std::uint32_t cores);

  /// Charges the binding stretch up to cycle `now` (exclusive).
  void settle(Cycle now);

  /// Adds `k` cycles bound by `b` to the critical totals + RLE stream.
  void commit(StallClass b, Cycle k);

  CycleProfile profile_;
  std::vector<StallClass> cls_;  ///< per-core class of the current run
  std::vector<Cycle> since_;     ///< per-core first cycle of that run
  std::array<std::uint32_t, kStallClassCount> pop_{};  ///< cores per class
  bool draining_ = false;
  bool stale_ = false;  ///< pop_ moved since binding_ was computed
  StallClass binding_ = StallClass::kIdleDeconfigured;
  Cycle bound_ = 0;  ///< first cycle not yet charged to the binding stream
};

}  // namespace hwgc
