#include "service/scheduler.hpp"

namespace hwgc {

std::optional<GcSchedulerKind> parse_scheduler(const std::string& name) {
  for (auto k : all_schedulers()) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

std::vector<GcSchedulerKind> all_schedulers() {
  return {GcSchedulerKind::kReactive, GcSchedulerKind::kProactive,
          GcSchedulerKind::kRoundRobin};
}

namespace {

class ReactiveScheduler final : public GcScheduler {
 public:
  GcSchedulerKind kind() const noexcept override {
    return GcSchedulerKind::kReactive;
  }
  ObservationNeeds needs() const noexcept override {
    return ObservationNeeds::kFleetSize;
  }
  std::optional<std::size_t> pick(
      const std::vector<ShardObservation>&) override {
    return std::nullopt;
  }
};

class ProactiveScheduler final : public GcScheduler {
 public:
  explicit ProactiveScheduler(const SchedulerConfig& cfg) : cfg_(cfg) {}
  GcSchedulerKind kind() const noexcept override {
    return GcSchedulerKind::kProactive;
  }
  std::optional<std::size_t> pick(
      const std::vector<ShardObservation>& fleet) override {
    // Most-occupied eligible shard first: under fleet-wide pressure the
    // shard closest to exhaustion is the one whose next request would
    // otherwise eat the reactive stall.
    std::optional<std::size_t> best;
    double best_occ = 0.0;
    for (const auto& s : fleet) {
      if (s.occupancy < cfg_.occupancy_threshold) continue;
      if (s.requests_since_gc < cfg_.min_requests_between) continue;
      if (!best || s.occupancy > best_occ) {
        best = s.shard;
        best_occ = s.occupancy;
      }
    }
    return best;
  }

 private:
  SchedulerConfig cfg_;
};

class RoundRobinScheduler final : public GcScheduler {
 public:
  explicit RoundRobinScheduler(const SchedulerConfig& cfg) : cfg_(cfg) {}
  GcSchedulerKind kind() const noexcept override {
    return GcSchedulerKind::kRoundRobin;
  }
  ObservationNeeds needs() const noexcept override {
    return ObservationNeeds::kFleetSize;
  }
  std::optional<std::size_t> pick(
      const std::vector<ShardObservation>& fleet) override {
    if (fleet.empty() || cfg_.round_robin_period == 0) return std::nullopt;
    if (++since_ < cfg_.round_robin_period) return std::nullopt;
    since_ = 0;
    const std::size_t shard = next_ % fleet.size();
    next_ = (next_ + 1) % fleet.size();
    return shard;
  }

 private:
  SchedulerConfig cfg_;
  std::uint64_t since_ = 0;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<GcScheduler> make_scheduler(GcSchedulerKind kind,
                                            const SchedulerConfig& cfg) {
  switch (kind) {
    case GcSchedulerKind::kReactive:
      return std::make_unique<ReactiveScheduler>();
    case GcSchedulerKind::kProactive:
      return std::make_unique<ProactiveScheduler>(cfg);
    case GcSchedulerKind::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>(cfg);
    case GcSchedulerKind::kCount: break;
  }
  return std::make_unique<ReactiveScheduler>();
}

}  // namespace hwgc
