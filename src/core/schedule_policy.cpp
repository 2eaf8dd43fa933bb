#include "core/schedule_policy.hpp"

#include <numeric>
#include <sstream>

#include "sim/rng.hpp"

namespace hwgc {

namespace {

/// Index order — the prototype's static prioritization.
class FixedPrioritySchedule final : public SchedulePolicy {
 public:
  void order(Cycle, const SyncBlock& sb, std::vector<CoreId>& out) override {
    out.resize(sb.num_cores());
    std::iota(out.begin(), out.end(), CoreId{0});
  }
};

/// Round-robin: the highest-priority core advances by one every cycle, so
/// no core is permanently favored by the arbiter.
class RotatingSchedule final : public SchedulePolicy {
 public:
  void order(Cycle now, const SyncBlock& sb, std::vector<CoreId>& out) override {
    const std::uint32_t n = sb.num_cores();
    out.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      out[i] = static_cast<CoreId>((now + i) % n);
    }
  }
};

/// Fresh seeded permutation every cycle (Fisher-Yates over the core ids).
class RandomSchedule final : public SchedulePolicy {
 public:
  explicit RandomSchedule(std::uint64_t seed) : rng_(seed) {}

  void order(Cycle, const SyncBlock& sb, std::vector<CoreId>& out) override {
    const std::uint32_t n = sb.num_cores();
    out.resize(n);
    std::iota(out.begin(), out.end(), CoreId{0});
    for (std::uint32_t i = n; i > 1; --i) {
      std::swap(out[i - 1], out[rng_.below(i)]);
    }
  }

 private:
  Rng rng_;
};

/// Steps every core that holds an SB lock (scan, free, or a header-lock
/// register) after all cores that hold none. A lock held at the start of a
/// cycle then stays visibly held while every contender steps first — the
/// worst case for the release/re-acquire windows of the protocol.
class AdversarialSchedule final : public SchedulePolicy {
 public:
  void order(Cycle, const SyncBlock& sb, std::vector<CoreId>& out) override {
    out.clear();
    const std::uint32_t n = sb.num_cores();
    for (CoreId c = 0; c < n; ++c) {
      if (!holds_any(sb, c)) out.push_back(c);
    }
    for (CoreId c = 0; c < n; ++c) {
      if (holds_any(sb, c)) out.push_back(c);
    }
  }

 private:
  static bool holds_any(const SyncBlock& sb, CoreId c) {
    return sb.holds_scan(c) || sb.holds_free(c) || sb.holds_header(c);
  }
};

}  // namespace

std::unique_ptr<SchedulePolicy> make_schedule_policy(SchedulePolicyKind kind,
                                                     std::uint64_t seed) {
  switch (kind) {
    case SchedulePolicyKind::kFixedPriority:
      return std::make_unique<FixedPrioritySchedule>();
    case SchedulePolicyKind::kRotating:
      return std::make_unique<RotatingSchedule>();
    case SchedulePolicyKind::kRandom:
      return std::make_unique<RandomSchedule>(seed);
    case SchedulePolicyKind::kAdversarial:
      return std::make_unique<AdversarialSchedule>();
  }
  return std::make_unique<FixedPrioritySchedule>();
}

bool parse_schedule_policy(const std::string& name, SchedulePolicyKind& out) {
  for (auto k : {SchedulePolicyKind::kFixedPriority,
                 SchedulePolicyKind::kRotating, SchedulePolicyKind::kRandom,
                 SchedulePolicyKind::kAdversarial}) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::deque<std::pair<Cycle, std::vector<CoreId>>> ScheduleTrace::orders()
    const {
  std::deque<std::pair<Cycle, std::vector<CoreId>>> tail;
  for (auto run = runs_.rbegin(); run != runs_.rend(); ++run) {
    for (Cycle c = run->last + 1; c-- > run->first;) {
      if (tail.size() == capacity_) return tail;
      tail.emplace_front(c, run->order);
    }
  }
  return tail;
}

std::string ScheduleTrace::dump() const {
  std::ostringstream os;
  const auto tail = orders();
  if (recorded_ > tail.size()) {
    os << "(" << (recorded_ - tail.size()) << " earlier cycles elided)\n";
  }
  for (const auto& [cycle, order] : tail) {
    os << "cycle " << cycle << ":";
    for (CoreId c : order) os << ' ' << c;
    os << '\n';
  }
  return os.str();
}

}  // namespace hwgc
