// Latency accounting for the multi-tenant heap service.
//
// Every request the service completes is accounted end-to-end in simulated
// clock cycles, split into three exclusive components whose sum is the
// request's total latency:
//
//   * service  — cycles the request itself spent executing (mutator steps,
//     data-word reads),
//   * queue    — cycles spent waiting behind earlier requests on the same
//     shard (backlog that is NOT collection work),
//   * stall    — GC-induced cycles: collections that ran between the
//     request's arrival and its completion, whether scheduled by the
//     GcScheduler, triggered by allocation exhaustion mid-request, or
//     inherited as backlog from an earlier dispatch. Each collection cycle
//     is charged to AT MOST one request — never two. Exhaustion-triggered
//     cycles always land on the request that triggered them (so under the
//     reactive policy, fleet-wide stall equals fleet-wide collection
//     time); scheduled cycles that drain while their shard sits idle delay
//     nobody and are charged to nobody — that hidden remainder is exactly
//     the win proactive pacing buys.
//
// Distributions are kept in a deterministic log2 histogram (8 linear
// sub-buckets per power of two — HdrHistogram's trick, shrunk): quantiles
// are reproducible bit-for-bit from a seed, which the determinism suite
// relies on, and the memory footprint is fixed regardless of run length.
#pragma once

#include <bit>
#include <cstdint>

#include "sim/types.hpp"

namespace hwgc {

/// Fixed-footprint log2 latency histogram over Cycle values.
class LatencyHistogram {
 public:
  static constexpr std::uint32_t kSubBits = 3;  ///< 8 sub-buckets / octave
  static constexpr std::uint32_t kSub = 1u << kSubBits;
  static constexpr std::uint32_t kOctaves = 64;
  static constexpr std::uint32_t kBuckets = kOctaves * kSub;

  void record(Cycle v) noexcept {
    ++counts_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    if (count_ == 1 || v < min_) min_ = v;
  }

  /// Folds another histogram in (per-shard -> fleet aggregation).
  void merge(const LatencyHistogram& o) noexcept {
    for (std::uint32_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    if (o.count_ > 0) {
      if (count_ == 0 || o.min_ < min_) min_ = o.min_;
      if (o.max_ > max_) max_ = o.max_;
    }
    count_ += o.count_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const noexcept { return count_; }
  Cycle sum() const noexcept { return sum_; }
  Cycle max() const noexcept { return max_; }
  Cycle min() const noexcept { return count_ == 0 ? 0 : min_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Nearest-rank quantile, reported as the lower bound of the bucket the
  /// rank falls into (so percentile(p) <= an exact-sample percentile and
  /// percentiles are monotone in p by construction). p in [0, 1].
  Cycle percentile(double p) const noexcept {
    if (count_ == 0) return 0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        p * static_cast<double>(count_ - 1) + 0.5);
    if (rank >= count_) rank = count_ - 1;
    std::uint64_t seen = 0;
    for (std::uint32_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen > rank) return bucket_floor(b);
    }
    return max_;
  }

 private:
  static std::uint32_t bucket_of(Cycle v) noexcept {
    if (v < kSub) return static_cast<std::uint32_t>(v);
    const std::uint32_t msb =
        63u - static_cast<std::uint32_t>(std::countl_zero(v));
    const std::uint32_t sub =
        static_cast<std::uint32_t>(v >> (msb - kSubBits)) & (kSub - 1);
    return msb * kSub + sub;
  }
  static Cycle bucket_floor(std::uint32_t b) noexcept {
    const std::uint32_t msb = b / kSub, sub = b % kSub;
    if (msb == 0) return sub;
    return (Cycle{1} << msb) | (Cycle{sub} << (msb - kSubBits));
  }

  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t count_ = 0;
  Cycle sum_ = 0;
  Cycle min_ = 0;
  Cycle max_ = 0;
};

/// Per-shard (and, merged, fleet-wide) service-level statistics.
///
/// Request-accounting partition (validator-enforced in service_metrics):
/// every admitted request ends in exactly one of completed / rejected /
/// failed, so completed + rejected + failed == offered; and every
/// completion was served either on its home shard or via failover, so
/// served + retried == completed (served = completed - retried is derived
/// at report time). rolled_back counts completions later undone by a
/// checkpoint restore — informational, NOT part of the partition (those
/// requests were answered; the restore rewinds shard state, not history).
struct SloStats {
  std::uint64_t offered = 0;    ///< requests routed to the shard
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   ///< shed: admission control or deadline

  LatencyHistogram latency;     ///< end-to-end completed-request latency
  Cycle service_cycles = 0;     ///< sums of the three exclusive components;
  Cycle queue_cycles = 0;       ///< service + queue + stall == latency.sum()
  Cycle stall_cycles = 0;

  std::uint64_t slo_violations = 0;  ///< completions above the SLO bound

  std::uint64_t collections = 0;       ///< GC cycles run on the shard
  std::uint64_t scheduled_collections = 0;  ///< subset the scheduler forced
  Cycle gc_cycle_total = 0;            ///< simulated cycles spent collecting

  std::uint64_t recovered_collections = 0;  ///< went through fault recovery
  std::uint64_t oracle_failures = 0;   ///< post-structure oracle findings
  std::uint64_t read_mismatches = 0;   ///< probe reads diverging from shadow

  // --- Fleet resilience (supervisor / checkpoint / fault storm) ----------
  std::uint64_t retried = 0;      ///< completions served by a failover shard
  std::uint64_t failed = 0;       ///< admitted but terminally failed
  std::uint64_t crashes = 0;      ///< storm crash events (subset of failed)
  std::uint64_t rolled_back = 0;  ///< completions undone by a restore
  std::uint64_t checkpoints = 0;  ///< verified-clean checkpoints taken
  std::uint64_t restores = 0;     ///< checkpoint restores performed
  std::uint64_t checkpoint_digest_failures = 0;  ///< must stay 0
  std::uint64_t degradations = 0; ///< health transitions into degraded
  std::uint64_t quarantines = 0;  ///< health transitions into quarantined

  /// Completions served first-try on their home shard (the partition's
  /// derived member: served + retried == completed).
  std::uint64_t served() const noexcept { return completed - retried; }

  void merge(const SloStats& o) noexcept {
    offered += o.offered;
    completed += o.completed;
    rejected += o.rejected;
    latency.merge(o.latency);
    service_cycles += o.service_cycles;
    queue_cycles += o.queue_cycles;
    stall_cycles += o.stall_cycles;
    slo_violations += o.slo_violations;
    collections += o.collections;
    scheduled_collections += o.scheduled_collections;
    gc_cycle_total += o.gc_cycle_total;
    recovered_collections += o.recovered_collections;
    oracle_failures += o.oracle_failures;
    read_mismatches += o.read_mismatches;
    retried += o.retried;
    failed += o.failed;
    crashes += o.crashes;
    rolled_back += o.rolled_back;
    checkpoints += o.checkpoints;
    restores += o.restores;
    checkpoint_digest_failures += o.checkpoint_digest_failures;
    degradations += o.degradations;
    quarantines += o.quarantines;
  }
};

}  // namespace hwgc
