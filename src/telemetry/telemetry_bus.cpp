#include "telemetry/telemetry_bus.hpp"

#include <utility>

#include "sim/abort.hpp"

namespace hwgc {

void TelemetryBus::begin_collection(std::string label) {
  if (!enabled_) return;
  epoch_ = cursor_;
  now_ = epoch_;
  TelemetryEpoch e;
  e.begin = epoch_;
  e.end = epoch_;
  e.label = std::move(label);
  epochs_.push_back(std::move(e));
}

void TelemetryBus::end_collection(Cycle local_end) {
  if (!enabled_) return;
  const Cycle global_end = epoch_ + local_end;
  for (CoreId c = 0; c < open_cores_.size(); ++c) close_core_span(c);
  close_lock_span(SbLock::kScan);
  close_lock_span(SbLock::kFree);
  close_phase_span(global_end);
  if (!epochs_.empty()) epochs_.back().end = global_end;
  // One idle cycle of daylight between collections keeps adjacent epochs
  // visually separable in the exported timeline.
  cursor_ = global_end + 1;
  now_ = cursor_;
}

void TelemetryBus::core_cycle(CoreId core, CoreActivity activity,
                              StallReason reason) {
  if (!enabled_) return;
  if (core >= open_cores_.size()) open_cores_.resize(core + 1);
  OpenCoreSpan& st = open_cores_[core];
  if (st.open && st.activity == activity && st.reason == reason &&
      now_ == st.last + 1) {
    st.last = now_;
    return;
  }
  close_core_span(core);
  st.open = true;
  st.activity = activity;
  st.reason = reason;
  st.begin = now_;
  st.last = now_;
}

void TelemetryBus::phase(GcPhase p) {
  if (!enabled_) return;
  close_phase_span(now_);
  open_phase_.open = true;
  open_phase_.phase = p;
  open_phase_.begin = now_;
}

void TelemetryBus::lock_acquired(SbLock lock, CoreId core) {
  if (!enabled_) return;
  OpenLockSpan& st = open_locks_[static_cast<std::size_t>(lock)];
  if (st.open) close_lock_span(lock);  // same-cycle hand-off
  st.open = true;
  st.owner = core;
  st.begin = now_;
}

void TelemetryBus::lock_released(SbLock lock, CoreId core) {
  if (!enabled_) return;
  OpenLockSpan& st = open_locks_[static_cast<std::size_t>(lock)];
  if (st.open && st.owner == core) close_lock_span(lock);
}

void TelemetryBus::instant(std::uint32_t track_id, TelemetryCategory cat,
                           std::string name) {
  if (!enabled_ || !room()) return;
  TelemetryInstant e;
  e.track = track_id;
  e.at = now_;
  e.cat = cat;
  e.name = std::move(name);
  instants_.push_back(std::move(e));
}

void TelemetryBus::counter_sample(std::uint32_t series, std::uint64_t value) {
  if (!enabled_ || !room()) return;
  counters_.push_back(TelemetryCounter{series, now_, value});
}

void TelemetryBus::on_collection_begin(std::uint32_t cores) {
  if (!enabled_) enable();
  begin_collection("collection (" + std::to_string(cores) + " cores)");
  // Intern the main tracks in canonical order so exports list the
  // coprocessor first, then the cores, then the shared locks —
  // independent of which module happens to publish first.
  (void)track("coprocessor");
  for (CoreId id = 0; id < cores; ++id) (void)core_track(id);
  (void)track(to_string(SbLock::kScan));
  (void)track(to_string(SbLock::kFree));
  gray_series_ = counter_series("gray_words");
  fifo_depth_series_ = counter_series("fifo_depth");
  inflight_series_ = counter_series("mem_inflight");
  prev_gray_ = prev_inflight_ = ~std::uint64_t{0};
}

void TelemetryBus::on_collection_end(Cycle now, const CollectionAbort* abort) {
  // An aborted attempt still renders as a complete, labeled slice of the
  // timeline.
  if (abort != nullptr) {
    instant(track("coprocessor"), TelemetryCategory::kFault,
            std::string("abort [") + to_string(abort->reason()) +
                "]: " + abort->what());
  } else {
    begin_cycle(now);
    instant(track("coprocessor"), TelemetryCategory::kPhase, "flip");
  }
  end_collection(now);
}

void TelemetryBus::on_cycle_end(const ClockSample& s) {
  if (s.draining) return;
  const std::uint64_t gray = s.free - s.scan;
  if (gray != prev_gray_) {
    prev_gray_ = gray;
    counter_sample(gray_series_, gray);
  }
}

void TelemetryBus::absorb(Cycle k) {
  // A repeated cycle changes nothing but the clock: every core clocked in
  // the observed cycle stays in its span.
  for (OpenCoreSpan& st : open_cores_) {
    if (st.open && st.last == now_) st.last += k;
  }
  now_ += k;
}

void TelemetryBus::on_fifo_overflow(std::uint64_t overflows,
                                    std::uint32_t capacity) {
  // The first overflow is the interesting state change; later ones only
  // move the counter (cup overflows tens of thousands of times).
  if (overflows == 1) {
    instant(track("header-fifo"), TelemetryCategory::kFifo,
            "header FIFO overflow (capacity " + std::to_string(capacity) +
                ")");
  }
  if (fifo_overflow_series_ == 0) {
    fifo_overflow_series_ = counter_series("fifo_overflows") + 1;
  }
  counter_sample(fifo_overflow_series_ - 1, overflows);
}

void TelemetryBus::on_mem_inflight(std::uint64_t count) {
  if (count != prev_inflight_) {
    prev_inflight_ = count;
    counter_sample(inflight_series_, count);
  }
}

std::uint32_t TelemetryBus::track(const std::string& name) {
  for (std::uint32_t i = 0; i < track_names_.size(); ++i) {
    if (track_names_[i] == name) return i;
  }
  track_names_.push_back(name);
  return static_cast<std::uint32_t>(track_names_.size() - 1);
}

std::uint32_t TelemetryBus::counter_series(const std::string& name) {
  for (std::uint32_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) return i;
  }
  counter_names_.push_back(name);
  return static_cast<std::uint32_t>(counter_names_.size() - 1);
}

std::uint32_t TelemetryBus::core_track(CoreId core) {
  if (core >= core_tracks_.size()) core_tracks_.resize(core + 1, 0);
  if (core_tracks_[core] == 0) {
    core_tracks_[core] = track("core " + std::to_string(core)) + 1;
  }
  return core_tracks_[core] - 1;
}

void TelemetryBus::clear() {
  spans_.clear();
  instants_.clear();
  counters_.clear();
  epochs_.clear();
  track_names_.clear();
  counter_names_.clear();
  span_names_.clear();
  core_tracks_.clear();
  activity_names_ = {};
  phase_names_ = {};
  holder_names_.clear();
  lock_tracks_ = {};
  fifo_overflow_series_ = 0;
  open_cores_.clear();
  open_locks_[0] = OpenLockSpan{};
  open_locks_[1] = OpenLockSpan{};
  open_phase_ = OpenPhaseSpan{};
  phase_track_ = 0;
  epoch_ = cursor_ = now_ = 0;
  dropped_ = 0;
}

void TelemetryBus::push_span(std::uint32_t track_id, Cycle begin, Cycle end,
                             TelemetryCategory cat, std::uint32_t name) {
  if (!room()) return;
  spans_.push_back(TelemetrySpan{track_id, name, begin, end, cat});
}

std::uint32_t TelemetryBus::span_name_id(std::string_view name) {
  for (std::uint32_t i = 0; i < span_names_.size(); ++i) {
    if (span_names_[i] == name) return i;
  }
  span_names_.emplace_back(name);
  return static_cast<std::uint32_t>(span_names_.size() - 1);
}

void TelemetryBus::close_core_span(CoreId core) {
  if (core >= open_cores_.size()) return;
  OpenCoreSpan& st = open_cores_[core];
  if (!st.open) return;
  st.open = false;
  std::uint32_t& name = activity_names_[static_cast<std::size_t>(st.activity)]
                                       [static_cast<std::size_t>(st.reason)];
  if (name == 0) name = span_name_id(activity_name(st.activity, st.reason)) + 1;
  push_span(core_track(core), st.begin, st.last + 1, TelemetryCategory::kCore,
            name - 1);
}

void TelemetryBus::close_lock_span(SbLock lock) {
  OpenLockSpan& st = open_locks_[static_cast<std::size_t>(lock)];
  if (!st.open) return;
  st.open = false;
  std::uint32_t& track_id = lock_tracks_[static_cast<std::size_t>(lock)];
  if (track_id == 0) track_id = track(to_string(lock)) + 1;
  if (st.owner >= holder_names_.size()) holder_names_.resize(st.owner + 1, 0);
  std::uint32_t& name = holder_names_[st.owner];
  if (name == 0) {
    name = span_name_id("held by core " + std::to_string(st.owner)) + 1;
  }
  // A hold acquired and released within one cycle still spans that cycle.
  push_span(track_id - 1, st.begin, now_ + 1, TelemetryCategory::kLock,
            name - 1);
}

void TelemetryBus::close_phase_span(Cycle end) {
  if (!open_phase_.open) return;
  open_phase_.open = false;
  if (phase_track_ == 0) phase_track_ = track("coprocessor") + 1;
  std::uint32_t& name =
      phase_names_[static_cast<std::size_t>(open_phase_.phase)];
  if (name == 0) name = span_name_id(to_string(open_phase_.phase)) + 1;
  push_span(phase_track_ - 1, open_phase_.begin, end, TelemetryCategory::kPhase,
            name - 1);
}

std::string TelemetryBus::activity_name(CoreActivity a, StallReason r) {
  switch (a) {
    case CoreActivity::kBusy: return "busy";
    case CoreActivity::kIdle: return "idle";
    case CoreActivity::kStall: return "stall:" + std::string(to_string(r));
    case CoreActivity::kOff: break;
  }
  return "?";
}

}  // namespace hwgc
