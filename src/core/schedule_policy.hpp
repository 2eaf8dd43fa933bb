// Pluggable per-cycle core step order.
//
// Within one clock cycle the simulator steps every core once; because the
// SB's per-cycle acquisition budgets make the first core to claim a lock
// win, the step order IS the arbitration policy. The prototype hard-wires
// static prioritization (lower index wins), which kFixedPriority
// reproduces. The other policies explore alternative interleavings of the
// scan/free/header protocol: a correct algorithm must produce the same
// live graph under every one of them (the property the fuzz harness in
// src/fuzz/ checks), the same way NB-FEB and SynCron validate their
// primitives against many executions of a sequential specification.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sync_block.hpp"
#include "sim/clock_observer.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace hwgc {

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;

  /// Writes the permutation of core ids to step this cycle into `out`.
  /// Called once per clock, after begin_cycle() and before any core steps;
  /// `sb` exposes the lock ownership left by the previous cycle.
  virtual void order(Cycle now, const SyncBlock& sb,
                     std::vector<CoreId>& out) = 0;
};

/// Builds the policy for `kind`. `seed` feeds the kRandom permutation
/// stream and is ignored by the deterministic policies.
std::unique_ptr<SchedulePolicy> make_schedule_policy(SchedulePolicyKind kind,
                                                     std::uint64_t seed);

/// Parses a policy name ("fixed", "rotating", "random", "adversarial") as
/// printed by to_string(SchedulePolicyKind). Returns false on unknown names.
bool parse_schedule_policy(const std::string& name, SchedulePolicyKind& out);

/// Bounded ring of the most recent step orders. The coprocessor harness
/// attaches one to Coprocessor::collect and the conformance oracle prints
/// it when it rejects a run, so the interleaving that produced the failure
/// can be read off.
class ScheduleTrace final : public ClockObserver {
 public:
  explicit ScheduleTrace(std::size_t capacity = 64) : capacity_(capacity) {}

  void record(Cycle now, const std::vector<CoreId>& order) {
    ++recorded_;
    if (ring_.size() >= capacity_) ring_.pop_front();
    ring_.emplace_back(now, order);
  }

  // --- ClockObserver: one entry per core-stepping cycle ---------------------

  void on_cycle_begin(Cycle now, const std::vector<CoreId>* order) override {
    stepping_ = order != nullptr;
    if (stepping_) record(now, *order);
  }

  /// Replays the last order for the k skipped cycles without materializing
  /// more than the ring keeps.
  void absorb(Cycle k) override {
    if (!stepping_ || ring_.empty()) return;
    const auto [last, order] = ring_.back();
    recorded_ += k;
    for (Cycle i = k > capacity_ ? k - capacity_ : 0; i < k; ++i) {
      if (ring_.size() >= capacity_) ring_.pop_front();
      ring_.emplace_back(last + 1 + i, order);
    }
  }

  std::uint64_t cycles_recorded() const noexcept { return recorded_; }
  const std::deque<std::pair<Cycle, std::vector<CoreId>>>& orders() const {
    return ring_;
  }

  /// Human-readable tail of the schedule, one line per cycle:
  /// "cycle 1234: 3 0 1 2".
  std::string dump() const;

 private:
  std::size_t capacity_;
  std::deque<std::pair<Cycle, std::vector<CoreId>>> ring_;
  std::uint64_t recorded_ = 0;
  bool stepping_ = false;  ///< the last observed cycle stepped the cores
};

}  // namespace hwgc
