// Hardware performance counters.
//
// The FPGA prototype exposes "a range of hardware performance counters"
// through its monitoring framework (Section VI-A). We reproduce the exact
// taxonomy of Table II — per-core stall counters for the two pointer locks,
// the header-lock CAM and the four memory buffers — plus the worklist-empty
// counter behind Table I.
//
// The profiler (src/profile/stall_class.hpp) folds these per-reason
// counters into its coarser exclusive StallClass taxonomy via
// class_of(StallReason) — that map must stay total, so any new
// StallReason added here needs a StallClass assignment there.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace hwgc {

/// Reasons a GC core can be stalled for one clock cycle. A core is stalled
/// for at most one reason per cycle (the first blocking condition it hits),
/// matching how the prototype's counters attribute cycles.
enum class StallReason : std::uint8_t {
  kNone = 0,
  kScanLock,     ///< waiting for the SB scan-pointer lock
  kFreeLock,     ///< waiting for the SB free-pointer lock
  kHeaderLock,   ///< header-lock CAM reported a conflict
  kBodyLoad,     ///< body-load buffer data not yet available
  kBodyStore,    ///< body-store buffer still busy with the previous store
  kHeaderLoad,   ///< header-load buffer data not yet available
  kHeaderStore,  ///< header-store buffer still busy
  kBarrier,      ///< waiting at a synchronizing micro-instruction
  kFault,        ///< injected transient stall / fail-stop (src/fault/)
  kCount
};

constexpr std::size_t kStallReasonCount =
    static_cast<std::size_t>(StallReason::kCount);

constexpr std::string_view to_string(StallReason r) noexcept {
  switch (r) {
    case StallReason::kNone: return "none";
    case StallReason::kScanLock: return "scan-lock";
    case StallReason::kFreeLock: return "free-lock";
    case StallReason::kHeaderLock: return "header-lock";
    case StallReason::kBodyLoad: return "body-load";
    case StallReason::kBodyStore: return "body-store";
    case StallReason::kHeaderLoad: return "header-load";
    case StallReason::kHeaderStore: return "header-store";
    case StallReason::kBarrier: return "barrier";
    case StallReason::kFault: return "fault";
    case StallReason::kCount: break;
  }
  return "?";
}

/// What a core did during one clock cycle. kOff: it missed its clock
/// (finished, fail-stopped, or halted for the store drain).
enum class CoreActivity : std::uint8_t { kBusy, kIdle, kStall, kOff };

/// One core's record of one clock cycle; `reason` is set only for kStall.
struct CoreCycle {
  CoreActivity activity = CoreActivity::kOff;
  StallReason reason = StallReason::kNone;
  bool operator==(const CoreCycle&) const = default;
};

/// Per-core cycle accounting for one collection cycle.
struct CoreCounters {
  std::array<Cycle, kStallReasonCount> stalls{};
  Cycle busy_cycles = 0;      ///< cycles spent executing (not stalled)
  Cycle idle_cycles = 0;      ///< cycles spinning on an empty worklist
  Cycle objects_scanned = 0;  ///< gray objects this core blackened
  Cycle objects_evacuated = 0;
  Cycle pointers_processed = 0;
  Cycle fifo_hits = 0;    ///< scan headers served from the header FIFO
  Cycle fifo_misses = 0;  ///< scan headers that required a memory load

  /// Charges `k` cycles of `c`: the single path by which both ticked
  /// cycles (k = 1) and fast-forwarded windows reach the cycle counters.
  void add(CoreCycle c, Cycle k = 1) noexcept {
    switch (c.activity) {
      case CoreActivity::kBusy: busy_cycles += k; break;
      case CoreActivity::kIdle: idle_cycles += k; break;
      case CoreActivity::kStall:
        stalls[static_cast<std::size_t>(c.reason)] += k;
        break;
      case CoreActivity::kOff: break;
    }
  }
  Cycle stall(StallReason r) const noexcept {
    return stalls[static_cast<std::size_t>(r)];
  }
  /// Saturating sum: a counter driven near the Cycle ceiling (hardware
  /// counters latch at all-ones) must not wrap the total back to a small
  /// number.
  Cycle total_stalls() const noexcept {
    Cycle sum = 0;
    for (auto s : stalls) {
      if (s > ~Cycle{0} - sum) return ~Cycle{0};
      sum += s;
    }
    return sum;
  }
};

/// Whole-coprocessor statistics for one collection cycle. This is what the
/// bench harness turns into the paper's tables and figures.
struct GcCycleStats {
  Cycle total_cycles = 0;          ///< wall clock of the collection cycle
  Cycle worklist_empty_cycles = 0; ///< cycles during which scan == free
  std::uint64_t objects_copied = 0;
  std::uint64_t words_copied = 0;
  std::uint64_t pointers_forwarded = 0;
  std::uint64_t fifo_overflows = 0;  ///< evacuations that bypassed the FIFO
  std::uint64_t mem_requests = 0;
  std::uint64_t fifo_hits = 0;
  std::uint64_t fifo_misses = 0;

  /// Cycles spent between the last core halting and the store buffers
  /// draining — the Section V-E restart condition window.
  Cycle drain_cycles = 0;

  /// True when every store had committed at the moment the main processor
  /// was (logically) restarted. Always true unless the
  /// skip_store_drain_for_test backdoor defeated the drain wait; the
  /// Runtime refuses to restart the mutator when this is false.
  bool restart_stores_drained = true;

  /// Fault events that fired during this cycle (0 without injection).
  std::uint64_t faults_fired = 0;

  /// Clock cycles the coprocessor skipped by fast-forward instead of
  /// ticking. Host-side only: every other field is identical either way.
  Cycle fast_forwarded_cycles = 0;

  std::vector<CoreCounters> per_core;

  /// Lock-order audit findings; must be empty (DESIGN.md invariant 6).
  std::vector<std::string> lock_order_violations;

  /// Fraction of cycles with an empty worklist — Table I. Clamped to
  /// [0, 1]: the empty-cycle counter is only incremented during the scan
  /// phase, but an aborted or hand-assembled stats object could hold
  /// inconsistent counters and a fraction > 1 would corrupt downstream
  /// aggregation (JSONL schema validation rejects it).
  double worklist_empty_fraction() const noexcept {
    if (total_cycles == 0) return 0.0;
    if (worklist_empty_cycles >= total_cycles) return 1.0;
    return static_cast<double>(worklist_empty_cycles) /
           static_cast<double>(total_cycles);
  }

  /// Mean per-core stall count for one reason — Table II columns.
  double mean_stall(StallReason r) const noexcept {
    if (per_core.empty()) return 0.0;
    Cycle sum = 0;
    for (const auto& c : per_core) sum += c.stall(r);
    return static_cast<double>(sum) / static_cast<double>(per_core.size());
  }
};

}  // namespace hwgc
