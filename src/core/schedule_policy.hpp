// Pluggable per-cycle core step order.
//
// Within one clock cycle the simulator steps every core once; because the
// SB's per-cycle acquisition budgets make the first core to claim a lock
// win, the step order IS the arbitration policy. The prototype hard-wires
// static prioritization (lower index wins), which kFixedPriority
// reproduces. The other policies explore alternative interleavings of the
// scan/free/header protocol: a correct algorithm must produce the same
// live graph under every one of them (the property the schedule fuzzer's
// FuzzCase in src/conformance/ checks), the same way NB-FEB and SynCron
// validate their primitives against many executions of a sequential
// specification.
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

/// The most recent step orders, kept as runs of cycles that stepped the
/// cores in one order. The coprocessor harness attaches one to
/// Coprocessor::collect and the conformance oracle prints it when it
/// rejects a run, so the interleaving that produced the failure can be
/// read off. The clock loop publishes an order only when it changes (once
/// under the fixed policy), so a run costs one entry, however long.
class ScheduleTrace final : public ClockObserver {
 public:
  /// Keeps the runs that cover the last `capacity` stepping cycles.
  explicit ScheduleTrace(std::size_t capacity = 64) : capacity_(capacity) {}

  /// Records one cycle that stepped the cores in `order`.
  void record(Cycle now, const std::vector<CoreId>& order) {
    on_step_order(now, &order);
    close(now + 1);
  }

  // --- ClockObserver: one run per step-order change ------------------------

  void on_collection_begin(std::uint32_t, const Cycle& clock) override {
    clock_ = &clock;
  }
  void on_step_order(Cycle now, const std::vector<CoreId>* order) override {
    close(now);
    if (order == nullptr) return;
    open_ = true;
    open_since_ = now;
    if (!runs_.empty() && runs_.back().last + 1 == now &&
        runs_.back().order == *order) {
      return;  // the order of the run just closed resumes
    }
    runs_.push_back({now, now, *order});
  }
  /// The open run lasts through the clock's last edge.
  void on_collection_end(Cycle, const CollectionAbort*) override {
    close(*clock_ + 1);
    clock_ = nullptr;
  }

  std::uint64_t cycles_recorded() const noexcept { return recorded_; }

  /// The last min(capacity, cycles_recorded()) stepping cycles, one entry
  /// per cycle, oldest first.
  std::deque<std::pair<Cycle, std::vector<CoreId>>> orders() const;

  /// Human-readable tail of the schedule, one line per cycle:
  /// "cycle 1234: 3 0 1 2".
  std::string dump() const;

 private:
  struct Run {
    Cycle first = 0;
    Cycle last = 0;  ///< inclusive; set when the run closes
    std::vector<CoreId> order;
  };

  /// Ends the open run before cycle `end` and drops the runs older than
  /// the last `capacity_` cycles need.
  void close(Cycle end) {
    if (!open_) return;
    open_ = false;
    if (end <= open_since_) return;  // never ran; a resumed run keeps `last`
    runs_.back().last = end - 1;
    recorded_ += end - open_since_;
    kept_ += end - open_since_;
    while (runs_.size() > 1) {
      const Cycle front = runs_.front().last - runs_.front().first + 1;
      if (kept_ - front < capacity_) break;
      kept_ -= front;
      runs_.pop_front();
    }
  }

  std::size_t capacity_;
  std::deque<Run> runs_;
  std::uint64_t recorded_ = 0;
  std::uint64_t kept_ = 0;  ///< cycles the runs in runs_ cover
  bool open_ = false;       ///< runs_.back() is still running
  Cycle open_since_ = 0;    ///< first cycle of the open stretch
  const Cycle* clock_ = nullptr;  ///< the collection's clock, while one runs
};

}  // namespace hwgc
