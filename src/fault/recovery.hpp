// Abort-and-retry recovery orchestration (tentpole of the robustness work).
//
// The stop-the-world design gives a free crash-consistency property the
// paper never exploits: fromspace is intact until the flip, so a detected
// fault at ANY point of a collection cycle can be recovered by restoring
// the pre-cycle image and re-running the whole collection. The escalation
// ladder, bounded at every level:
//
//   1. abort-and-retry on the same core configuration (max_retries times);
//   2. deconfigure the suspect core (watchdog activity monitor / stuck-busy
//      consistency check) and re-run on N-1 cores;
//   3. last resort: the software sequential Cheney collector runs on the
//      main processor, bypassing the (faulty) coprocessor entirely.
//
// Detection sources feeding the ladder (sim/abort.hpp AbortReason):
//   * per-collection watchdog with a cycle budget derived from live bytes,
//   * header ECC verification on every header load,
//   * bounds checks on every functional memory access,
//   * the end-of-cycle heap verifier — run before the mutator is restarted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "heap/heap.hpp"
#include "heap/verifier.hpp"
#include "sim/abort.hpp"
#include "sim/config.hpp"
#include "sim/counters.hpp"
#include "sim/trace.hpp"

namespace hwgc {

class CycleProfiler;

/// Outcome of one collection attempt inside the recovery loop.
struct AttemptRecord {
  std::uint32_t attempt = 0;
  std::uint32_t num_cores = 0;      ///< active cores during the attempt
  bool success = false;
  AbortReason abort_reason = AbortReason::kWatchdog;  ///< valid when !success
  std::string detail;               ///< abort message / verifier findings
  CoreId suspect_logical = kNoCore; ///< as reported by the detector
  CoreId suspect_physical = kNoCore;
  Cycle cycles = 0;                 ///< clock cycles the attempt consumed
  std::uint64_t faults_fired = 0;   ///< fault events fired in this attempt
};

/// Full account of one recovered (or failed) collection.
struct RecoveryReport {
  bool ok = false;                  ///< heap verified and mutator restarted
  GcCycleStats stats;               ///< stats of the successful attempt
  std::vector<AttemptRecord> attempts;
  std::vector<CoreId> deconfigured; ///< physical cores dropped along the way
  bool used_sequential_fallback = false;

  std::uint64_t faults_requested = 0; ///< events cfg.fault asked for
  std::uint64_t faults_injected = 0;  ///< events in the plan
  std::uint64_t faults_fired = 0;     ///< firings across all attempts
  /// Events that fired during the final, successful attempt — by
  /// definition masked, since the verifier accepted the resulting heap.
  std::uint64_t faults_masked = 0;

  /// Every fired fault event, with attempt and cycle ("the trace").
  std::vector<std::string> fault_log;

  std::uint32_t aborts(AbortReason r) const noexcept {
    std::uint32_t n = 0;
    for (const auto& a : attempts) {
      if (!a.success && a.abort_reason == r) ++n;
    }
    return n;
  }

  std::string summary() const;
};

/// Runs collections through the detection-and-recovery machinery. One
/// instance per heap; collect() may be called repeatedly (one call per GC).
class RecoveringCollector {
 public:
  /// The fault plan defaults to the one derived from cfg.fault; pass an
  /// explicit plan to inject hand-crafted events (tests do this).
  RecoveringCollector(const SimConfig& cfg, Heap& heap);
  RecoveringCollector(const SimConfig& cfg, Heap& heap, FaultPlan plan);

  /// Runs one fully recovered collection cycle. Returns a report whose
  /// `ok` is true iff the final heap passed verification; on `ok` the heap
  /// has been flipped and the roots updated exactly as Coprocessor::collect
  /// would have. Never lets a detectably corrupt heap reach the mutator:
  /// if every escalation level fails, `ok` is false and the heap holds the
  /// restored pre-cycle image.
  ///
  /// `telemetry`, when non-null, records every attempt as its own epoch
  /// plus recovery-track instants for image restores, core deconfigurations
  /// and the sequential fallback.
  ///
  /// `profiler`, when non-null, is threaded into every coprocessor attempt;
  /// each attempt resets it, so on return it holds the attribution of the
  /// final successful attempt only. The sequential fallback runs on the
  /// main processor, outside the coprocessor clock, so it marks the
  /// profile unprofiled instead of inventing cycle classes.
  RecoveryReport collect(SignalTrace* trace = nullptr,
                         TelemetryBus* telemetry = nullptr,
                         CycleProfiler* profiler = nullptr);

  const FaultInjector& injector() const noexcept { return injector_; }

 private:
  /// Derived watchdog budget for a live set of `live_words`.
  Cycle watchdog_budget(Word live_words) const noexcept;

  SimConfig cfg_;
  Heap& heap_;
  FaultInjector injector_;
};

}  // namespace hwgc
