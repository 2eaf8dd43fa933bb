// TelemetryBus — the unified observability substrate (software counterpart
// of the prototype's Section VI-A monitoring framework, generalized).
//
// The bus subscribes to the coprocessor's event stream
// (sim/clock_observer.hpp) and records it as typed events:
//   * collection phases (root evacuation / parallel scan / store drain),
//     the flip or the abort, and the gray-object word count,
//   * each core's per-cycle activity (busy / idle / stalled with a
//     StallReason), coalesced into spans,
//   * scan- and free-lock hold spans (SyncBlock),
//   * header-FIFO occupancy and overflow events (HeaderFifo),
//   * the in-flight memory transaction count (MemorySystem).
// The fault/recovery layer publishes injected faults, aborts,
// deconfigurations and fallbacks directly as instant events.
//
// Exporters (trace_export.hpp) turn the recorded events into a
// Chrome-trace/Perfetto timeline; the MetricsRegistry (metrics.hpp)
// aggregates the per-cycle statistics across collections and runs.
//
// Overhead contract: the bus is pure observation — it never feeds back
// into simulated timing, so cycle counts are bit-identical with and
// without it (tested in tests/test_telemetry.cpp). As a subscriber it is
// paid per change: a core run opens a span that lasts until the core's
// next run, and a fast-forward jump publishes nothing. Publishing is
// guarded by an `enabled()` flag.
//
// Time base: each collection runs its own clock from cycle 0. The bus maps
// collection-local cycles onto one monotone global timeline: a
// begin_collection() epoch starts where the previous collection ended, so
// multi-collection runs (Runtime churn, recovery retries) render as one
// continuous trace with every attempt visible.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/clock_observer.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// Event category, carried into the exported trace's `cat` field.
enum class TelemetryCategory : std::uint8_t {
  kPhase,
  kCore,
  kLock,
  kFifo,
  kMemory,
  kFault,
  kRecovery,
  kRuntime,
};

constexpr const char* to_string(TelemetryCategory c) noexcept {
  switch (c) {
    case TelemetryCategory::kPhase: return "phase";
    case TelemetryCategory::kCore: return "core";
    case TelemetryCategory::kLock: return "lock";
    case TelemetryCategory::kFifo: return "fifo";
    case TelemetryCategory::kMemory: return "memory";
    case TelemetryCategory::kFault: return "fault";
    case TelemetryCategory::kRecovery: return "recovery";
    case TelemetryCategory::kRuntime: return "runtime";
  }
  return "?";
}

inline constexpr std::size_t kTelemetryCategoryCount =
    static_cast<std::size_t>(TelemetryCategory::kRuntime) + 1;

/// A duration event on one track, global cycles, half-open [begin, end).
/// The name is interned: `name` indexes the bus's span_names() table (read
/// it back with TelemetryBus::span_name).
struct TelemetrySpan {
  std::uint32_t track = 0;
  std::uint32_t name = 0;
  Cycle begin = 0;
  Cycle end = 0;
  TelemetryCategory cat = TelemetryCategory::kCore;
};

/// A point event on one track.
struct TelemetryInstant {
  std::uint32_t track = 0;
  Cycle at = 0;
  TelemetryCategory cat = TelemetryCategory::kFault;
  std::string name;
};

/// A sample of a named counter series.
struct TelemetryCounter {
  std::uint32_t series = 0;
  Cycle at = 0;
  std::uint64_t value = 0;
};

/// One collection recorded on the bus (for labeling the timeline).
struct TelemetryEpoch {
  Cycle begin = 0;   ///< global cycle the collection's cycle 0 maps to
  Cycle end = 0;     ///< global cycle of the collection's last cycle + 1
  std::string label;
};

class TelemetryBus final : public ClockObserver {
 public:
  TelemetryBus() = default;

  void enable(std::size_t max_events = std::size_t{1} << 20) {
    enabled_ = true;
    max_events_ = max_events;
  }
  void disable() noexcept { enabled_ = false; }
  bool enabled() const noexcept { return enabled_; }

  // --- time base ----------------------------------------------------------

  /// Opens a new collection epoch: the collection's local cycle 0 maps to
  /// the first free global cycle. Safe to call repeatedly (recovery runs
  /// one epoch per attempt).
  void begin_collection(std::string label);

  /// Clock edge: stamps all events published during this simulated cycle.
  /// (During a coprocessor collection the loop's clock stamps them.)
  void begin_cycle(Cycle local) noexcept { now_ = epoch_ + local; }

  /// Closes the epoch at local cycle `local_end`: flushes every open core,
  /// lock and phase span and advances the global cursor.
  void end_collection(Cycle local_end);

  /// Global cycle the next published event will be stamped with.
  Cycle now() const noexcept {
    return clock_ != nullptr ? epoch_ + *clock_ : now_;
  }

  // --- track / counter-series interning ------------------------------------

  std::uint32_t track(const std::string& name);
  std::uint32_t counter_series(const std::string& name);
  std::uint32_t core_track(CoreId core);

  const std::vector<std::string>& track_names() const noexcept {
    return track_names_;
  }
  const std::vector<std::string>& counter_names() const noexcept {
    return counter_names_;
  }
  /// Interned span names, indexed by TelemetrySpan::name. Each distinct
  /// name is stored once, however many spans carry it.
  const std::vector<std::string>& span_names() const noexcept {
    return span_names_;
  }
  const std::string& span_name(const TelemetrySpan& s) const {
    return span_names_[s.name];
  }

  // --- publishers (all no-ops when disabled) -------------------------------

  /// Per-core per-cycle activity; consecutive same-state cycles coalesce
  /// into one span. A clock gap (a fail-stopped core missing its clock)
  /// closes the open span, so holes are visible in the timeline.
  void core_cycle(CoreId core, CoreActivity activity,
                  StallReason reason = StallReason::kNone);

  /// Phase transition at the current cycle; closes the previous phase.
  void phase(GcPhase p);

  void lock_acquired(SbLock lock, CoreId core);
  void lock_released(SbLock lock, CoreId core);

  void instant(std::uint32_t track_id, TelemetryCategory cat,
               std::string name);
  void counter_sample(std::uint32_t series, std::uint64_t value);

  // --- ClockObserver: one epoch per collection attempt ---------------------

  /// Enables the bus if needed, opens the epoch, interns the main tracks
  /// and counter series in canonical order and stamps events by `clock`.
  void on_collection_begin(std::uint32_t cores, const Cycle& clock) override;
  /// Closes the epoch with a flip instant, or an abort instant naming the
  /// reason.
  void on_collection_end(Cycle now, const CollectionAbort* abort) override;
  void on_phase(GcPhase p) override { phase(p); }
  /// Ends the core's previous run; a kOff run is a clock gap, any other
  /// opens (or, right after a same-state span, extends) a span that lasts
  /// until the next run.
  void on_core_run(CoreId core, Cycle now, CoreCycle rec) override;
  /// Samples the gray-object word count on change.
  void on_sample(const ClockSample& s) override;
  void on_lock_acquired(SbLock lock, CoreId core) override {
    lock_acquired(lock, core);
  }
  void on_lock_released(SbLock lock, CoreId core) override {
    lock_released(lock, core);
  }
  void on_fifo_push(std::size_t depth) override {
    counter_sample(fifo_depth_series_, depth);
  }
  void on_fifo_pop(std::size_t depth) override {
    counter_sample(fifo_depth_series_, depth);
  }
  void on_fifo_overflow(std::uint64_t overflows,
                        std::uint32_t capacity) override;
  /// Samples the in-flight transaction count (published on change).
  void on_mem_inflight(std::uint64_t count) override {
    counter_sample(inflight_series_, count);
  }

  // --- recorded data (exporter interface) ----------------------------------

  const std::vector<TelemetrySpan>& spans() const noexcept { return spans_; }
  const std::vector<TelemetryInstant>& instants() const noexcept {
    return instants_;
  }
  const std::vector<TelemetryCounter>& counters() const noexcept {
    return counters_;
  }
  const std::vector<TelemetryEpoch>& epochs() const noexcept {
    return epochs_;
  }

  /// Events discarded after the max_events cap was hit (never silently:
  /// exporters surface this number).
  std::uint64_t dropped() const noexcept { return dropped_; }

  void clear();

 private:
  struct OpenCoreSpan {
    bool open = false;
    bool running = false;  ///< a core run: `last` is set when the run ends
    CoreActivity activity = CoreActivity::kBusy;
    StallReason reason = StallReason::kNone;
    Cycle begin = 0;
    Cycle last = 0;
  };
  struct OpenLockSpan {
    bool open = false;
    CoreId owner = kNoCore;
    Cycle begin = 0;
  };
  struct OpenPhaseSpan {
    bool open = false;
    GcPhase phase = GcPhase::kRootEvacuation;
    Cycle begin = 0;
  };

  bool room() noexcept {
    if (spans_.size() + instants_.size() + counters_.size() < max_events_) {
      return true;
    }
    ++dropped_;
    return false;
  }

  void push_span(std::uint32_t track_id, Cycle begin, Cycle end,
                 TelemetryCategory cat, std::uint32_t name);
  /// Core `core` was `activity`/`reason` in global cycle `at`.
  void core_span_at(CoreId core, Cycle at, CoreActivity activity,
                    StallReason reason);
  void close_core_span(CoreId core);
  void close_lock_span(SbLock lock);
  void close_phase_span(Cycle end);

  std::uint32_t span_name_id(std::string_view name);
  static std::string activity_name(CoreActivity a, StallReason r);

  bool enabled_ = false;
  std::size_t max_events_ = std::size_t{1} << 20;
  Cycle epoch_ = 0;   ///< global cycle local 0 of the current epoch maps to
  Cycle cursor_ = 0;  ///< first free global cycle after everything recorded
  Cycle now_ = 0;
  const Cycle* clock_ = nullptr;  ///< the collection's clock, while one runs

  std::vector<std::string> track_names_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> span_names_;
  std::vector<std::uint32_t> core_tracks_;  ///< core id -> track id (+1; 0 = none)

  // Interning caches, all +1 (0 = not yet interned) and reset by clear().
  // They are filled on first use, so ids come out in the same order as if
  // every lookup went through the name tables.
  std::array<std::array<std::uint32_t, kStallReasonCount>, 4>
      activity_names_{};  ///< [CoreActivity][StallReason] -> span name
  std::array<std::uint32_t, 3> phase_names_{};   ///< GcPhase -> span name
  std::vector<std::uint32_t> holder_names_;     ///< owner core -> span name
  std::array<std::uint32_t, 2> lock_tracks_{};  ///< SbLock -> track
  std::uint32_t fifo_overflow_series_ = 0;

  std::vector<TelemetrySpan> spans_;
  std::vector<TelemetryInstant> instants_;
  std::vector<TelemetryCounter> counters_;
  std::vector<TelemetryEpoch> epochs_;
  std::uint64_t dropped_ = 0;

  std::vector<OpenCoreSpan> open_cores_;
  OpenLockSpan open_locks_[2];
  OpenPhaseSpan open_phase_;
  std::uint32_t phase_track_ = 0;  ///< +1; 0 = not yet interned

  // Counter series of the current collection, sampled on change.
  std::uint32_t gray_series_ = 0;
  std::uint32_t fifo_depth_series_ = 0;
  std::uint32_t inflight_series_ = 0;
  std::uint64_t prev_gray_ = 0;
};

}  // namespace hwgc
