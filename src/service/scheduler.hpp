// Pluggable collection scheduling across the shards of a HeapService.
//
// The paper's system stops ONE application processor while the coprocessor
// collects ONE heap (Section V-E). A production service owns many
// per-shard heaps and must decide WHICH heap to collect WHEN, trading GC
// stall against allocation headroom. Three policies bracket the space:
//
//   * reactive    — never collect proactively; every cycle is triggered by
//     allocation exhaustion inside the shard's Runtime (the paper's model,
//     N-plexed). Cheapest in GC cycles, worst-case stall lands on the
//     request that happened to exhaust the semispace.
//   * proactive   — collect a shard as soon as its semispace occupancy
//     crosses a threshold (and it has absorbed a minimum number of
//     requests since its last cycle, so a large live set cannot thrash).
//     Converts rare large stalls into paced smaller ones.
//   * round-robin — budgeted pacing: every `period` fleet-wide requests,
//     the next shard in rotation is collected regardless of occupancy.
//     The fully predictable baseline the other two are judged against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace hwgc {

enum class GcSchedulerKind : std::uint8_t {
  kReactive = 0,
  kProactive,
  kRoundRobin,
  kCount
};

constexpr const char* to_string(GcSchedulerKind k) noexcept {
  switch (k) {
    case GcSchedulerKind::kReactive: return "reactive";
    case GcSchedulerKind::kProactive: return "proactive";
    case GcSchedulerKind::kRoundRobin: return "roundrobin";
    case GcSchedulerKind::kCount: break;
  }
  return "?";
}

/// Parses a scheduler name as printed by to_string; nullopt on junk.
std::optional<GcSchedulerKind> parse_scheduler(const std::string& name);

/// All policies, in enum order — for sweep drivers.
std::vector<GcSchedulerKind> all_schedulers();

/// What a scheduler may look at when deciding (one entry per shard,
/// refreshed before every dispatch).
struct ShardObservation {
  std::size_t shard = 0;
  double occupancy = 0.0;          ///< used / capacity of the active space
  std::uint64_t live_roots = 0;
  std::uint64_t root_high_water = 0;
  std::uint64_t requests_since_gc = 0;
  Cycle backlog = 0;               ///< cycles of queued work on the shard
  std::uint64_t collections = 0;
};

struct SchedulerConfig {
  /// Proactive: collect when occupancy >= threshold.
  double occupancy_threshold = 0.75;
  /// Proactive: minimum requests a shard must absorb between scheduled
  /// cycles (prevents thrash when the live set alone exceeds the
  /// threshold).
  std::uint64_t min_requests_between = 16;
  /// Round-robin: fleet-wide requests between budgeted collections.
  std::uint64_t round_robin_period = 256;
};

/// How much of the fleet a policy actually reads at each decision point.
/// The parallel conductor (heap_service.cpp, DESIGN.md §13) uses this to
/// skip building observations — and, for kFull, to know it must join every
/// shard lane first, since a full observation reads live shard state.
enum class ObservationNeeds : std::uint8_t {
  kFleetSize,  ///< pick() reads at most fleet.size() and fleet[i].shard
  kFull,       ///< pick() reads per-shard occupancy/backlog/etc.
};

/// One decision point per request dispatch: return the shard to collect
/// now, or nullopt to let allocation exhaustion take its course.
class GcScheduler {
 public:
  virtual ~GcScheduler() = default;
  virtual GcSchedulerKind kind() const noexcept = 0;
  const char* name() const noexcept { return to_string(kind()); }

  /// Contract: a policy returning less than kFull must not read the fields
  /// its tier excludes — the service passes placeholder observations then.
  virtual ObservationNeeds needs() const noexcept {
    return ObservationNeeds::kFull;
  }

  virtual std::optional<std::size_t> pick(
      const std::vector<ShardObservation>& fleet) = 0;
};

std::unique_ptr<GcScheduler> make_scheduler(GcSchedulerKind kind,
                                            const SchedulerConfig& cfg = {});

}  // namespace hwgc
