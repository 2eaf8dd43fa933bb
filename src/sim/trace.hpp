// Signal tracing — software stand-in for the prototype's on-FPGA monitoring
// framework (Section VI-A: "trace up to 32 internal signals in each clock
// cycle", streamed over a dedicated Gigabit Ethernet link).
//
// We write named signal samples to an in-memory ring and optionally to a
// CSV file for offline analysis, mirroring their measurement flow. As a
// ClockObserver the trace samples the coprocessor's scan and free pointers,
// gray-object word count and busy-core count on change; the clock loop
// publishes a sample only in the cycles that change one of them.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock_observer.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// One sampled signal transition.
struct TraceEvent {
  Cycle cycle = 0;
  std::uint16_t signal = 0;
  std::uint64_t value = 0;
};

/// Records signal samples with bounded memory. Disabled tracers compile to
/// near-no-ops on the hot path.
class SignalTrace final : public ClockObserver {
 public:
  static constexpr std::size_t kMaxSignals = 32;  // as in the prototype

  SignalTrace() = default;

  /// Registers a signal name and returns its id; registering a name again
  /// returns the id it already has. Throws std::length_error for a new
  /// name once all kMaxSignals channels of the hardware monitor are taken.
  std::uint16_t register_signal(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint16_t>(i);
    }
    if (names_.size() >= kMaxSignals) {
      throw std::length_error("SignalTrace: cannot register signal '" + name +
                              "': all " + std::to_string(kMaxSignals) +
                              " monitor channels are in use");
    }
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  // --- ClockObserver -------------------------------------------------------

  void on_collection_begin(std::uint32_t, const Cycle&) override {
    sig_scan_ = register_signal("scan");
    sig_free_ = register_signal("free");
    sig_gray_ = register_signal("gray_words");
    sig_busy_ = register_signal("busy_cores");
    if (!enabled_) enable();
    prev_scan_ = prev_free_ = prev_busy_ = ~std::uint64_t{0};
  }

  /// Samples on change only, so the ring stays useful for long cycles.
  void on_sample(const ClockSample& s) override {
    if (s.draining) return;
    if (s.scan != prev_scan_) {
      prev_scan_ = s.scan;
      sample(s.now, sig_scan_, s.scan);
    }
    if (s.free != prev_free_) {
      prev_free_ = s.free;
      sample(s.now, sig_free_, s.free);
      sample(s.now, sig_gray_, s.free - s.scan);
    }
    if (s.busy_cores != prev_busy_) {
      prev_busy_ = s.busy_cores;
      sample(s.now, sig_busy_, s.busy_cores);
    }
  }

  void enable(std::size_t max_events = 1u << 20) {
    enabled_ = true;
    max_events_ = max_events;
  }
  void disable() { enabled_ = false; }
  bool enabled() const noexcept { return enabled_; }

  void sample(Cycle cycle, std::uint16_t signal, std::uint64_t value) {
    if (!enabled_) return;
    if (events_.size() >= max_events_) events_.pop_front();
    events_.push_back(TraceEvent{cycle, signal, value});
  }

  const std::deque<TraceEvent>& events() const noexcept { return events_; }
  const std::vector<std::string>& signal_names() const noexcept {
    return names_;
  }
  void clear() {
    events_.clear();
    notes_.clear();
  }

  /// Timestamped free-form annotation — the software counterpart of the
  /// monitor's event markers. The fault subsystem notes every injected
  /// fault, abort, deconfiguration and fallback here so a trace tells the
  /// full recovery story alongside the signal samples.
  void note(Cycle cycle, std::string text) {
    if (!enabled_) return;
    if (notes_.size() >= max_events_) notes_.pop_front();
    notes_.emplace_back(cycle, std::move(text));
  }
  const std::deque<std::pair<Cycle, std::string>>& notes() const noexcept {
    return notes_;
  }

  /// Dumps the trace as CSV (cycle,signal,value,note). Signal samples
  /// leave the note column empty; notes become their own rows with signal
  /// `note` and an empty value, merged into the sample stream by cycle so
  /// fault/recovery annotations land next to the samples they explain.
  /// Returns false on I/O failure (checked after an explicit flush).
  bool write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "cycle,signal,value,note\n";
    auto ev = events_.begin();
    auto nt = notes_.begin();
    const auto put_event = [&] {
      const auto& name = ev->signal < names_.size()
                             ? names_[ev->signal]
                             : std::string("sig") + std::to_string(ev->signal);
      out << ev->cycle << ',' << name << ',' << ev->value << ",\n";
      ++ev;
    };
    const auto put_note = [&] {
      out << nt->first << ",note,," << csv_quote(nt->second) << '\n';
      ++nt;
    };
    while (ev != events_.end() && nt != notes_.end()) {
      if (nt->first < ev->cycle) {
        put_note();
      } else {
        put_event();
      }
    }
    while (ev != events_.end()) put_event();
    while (nt != notes_.end()) put_note();
    out.flush();
    return static_cast<bool>(out);
  }

  /// Dumps the trace as a Value Change Dump for waveform viewers
  /// (GTKWave etc.) — the natural habitat of an FPGA prototype's signals.
  /// Signals are emitted as 64-bit vectors. Returns false on I/O failure.
  bool write_vcd(const std::string& path,
                 const std::string& module = "hwgc") const {
    std::ofstream out(path);
    if (!out) return false;
    out << "$timescale 1ns $end\n$scope module " << module << " $end\n";
    for (std::size_t i = 0; i < names_.size(); ++i) {
      out << "$var wire 64 " << vcd_id(i) << ' ' << names_[i] << " $end\n";
    }
    out << "$upscope $end\n$enddefinitions $end\n";
    Cycle current = ~Cycle{0};
    auto nt = notes_.begin();
    const auto emit_notes_up_to = [&](Cycle cycle) {
      // Notes ride along as $comment events at their cycle's timestamp —
      // the only annotation mechanism VCD viewers tolerate mid-dump.
      for (; nt != notes_.end() && nt->first <= cycle; ++nt) {
        if (nt->first != current) {
          current = nt->first;
          out << '#' << current << '\n';
        }
        out << "$comment " << vcd_sanitize(nt->second) << " $end\n";
      }
    };
    for (const auto& e : events_) {
      emit_notes_up_to(e.cycle);
      if (e.cycle != current) {
        current = e.cycle;
        out << '#' << current << '\n';
      }
      out << 'b';
      for (int bit = 63; bit >= 0; --bit) {
        out << ((e.value >> bit) & 1u);
      }
      out << ' ' << vcd_id(e.signal) << '\n';
    }
    emit_notes_up_to(~Cycle{0});
    out.flush();
    return static_cast<bool>(out);
  }

 private:
  /// RFC-4180 quoting: the field is wrapped in double quotes and internal
  /// quotes are doubled, so notes with commas/newlines stay one field.
  static std::string csv_quote(const std::string& text) {
    std::string q;
    q.reserve(text.size() + 2);
    q.push_back('"');
    for (char c : text) {
      if (c == '"') q.push_back('"');
      q.push_back(c);
    }
    q.push_back('"');
    return q;
  }

  /// A literal "$end" inside a comment would terminate the $comment block
  /// early and desynchronize the parser; break the token.
  static std::string vcd_sanitize(const std::string& text) {
    std::string s = text;
    for (std::size_t pos = 0; (pos = s.find("$end", pos)) != std::string::npos;
         pos += 5) {
      s.insert(pos + 1, " ");
    }
    return s;
  }

  /// Short printable VCD identifier for a signal index.
  static std::string vcd_id(std::size_t i) {
    std::string id;
    do {
      id.push_back(static_cast<char>('!' + i % 94));
      i /= 94;
    } while (i != 0);
    return id;
  }

  bool enabled_ = false;
  std::size_t max_events_ = 1u << 20;
  std::deque<TraceEvent> events_;
  std::deque<std::pair<Cycle, std::string>> notes_;
  std::vector<std::string> names_;

  std::uint16_t sig_scan_ = 0, sig_free_ = 0, sig_gray_ = 0, sig_busy_ = 0;
  std::uint64_t prev_scan_ = 0, prev_free_ = 0, prev_busy_ = 0;
};

}  // namespace hwgc
