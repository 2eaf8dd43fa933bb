#include "telemetry/trace_export.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <string_view>
#include <vector>

namespace hwgc {

namespace {

/// Upper bound on any event's text besides its escaped strings and cached
/// fragments: the fixed JSON keys plus up to three 20-digit numbers.
constexpr std::size_t kEventBound = 128;

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void append_escaped(std::string& out, std::string_view s) {
  if (std::none_of(s.begin(), s.end(), needs_escape)) {
    out += s;
    return;
  }
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[c >> 4];
          out += "0123456789abcdef"[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

/// Longest text `s` can escape to (a control character takes six bytes).
std::size_t escaped_bound(std::string_view s) { return 6 * s.size(); }

void u64(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Catapult reserved color name for a span, keyed off its name/category —
/// this is what makes stall reasons visually distinct in the timeline.
const char* cname_for(TelemetryCategory cat, std::string_view name) {
  if (cat == TelemetryCategory::kCore) {
    if (name == "busy") return "thread_state_running";
    if (name == "idle") return "grey";
    if (name == "stall:fault") return "terrible";
    if (name == "stall:scan-lock" || name == "stall:free-lock" ||
        name == "stall:header-lock") {
      return "bad";
    }
    if (name == "stall:barrier") return "white";
    return "thread_state_iowait";  // memory waits (loads/stores)
  }
  if (cat == TelemetryCategory::kPhase) {
    if (name == "root-evacuation") return "startup";
    if (name == "parallel-scan") return "rail_animation";
    return "rail_idle";  // drain
  }
  if (cat == TelemetryCategory::kLock) return "generic_work";
  if (cat == TelemetryCategory::kRecovery) return "cq_build_failed";
  return "generic_work";
}

/// Everything of a span event after its numbers, separator included.
std::string span_fragment(TelemetryCategory cat, std::string_view name) {
  std::string f = ",\"cat\":\"";
  f += to_string(cat);
  f += "\",\"name\":\"";
  append_escaped(f, name);
  f += "\",\"cname\":\"";
  f += cname_for(cat, name);
  f += "\"},\n";
  return f;
}

/// Everything of a counter event between its timestamp and its value.
std::string counter_fragment(std::string_view prefix, std::string_view name) {
  std::string f = ",\"name\":\"";
  f += prefix;
  append_escaped(f, name);
  f += "\",\"args\":{\"value\":";
  return f;
}

/// Longest string in `v`, or 0 for an empty `v`.
std::size_t max_size(const std::vector<std::string>& v) {
  std::size_t n = 0;
  for (const std::string& s : v) n = std::max(n, s.size());
  return n;
}

}  // namespace

std::string chrome_trace_json(const TelemetryBus& bus,
                              const ChromeTraceOptions& opt) {
  // Each distinct name is escaped and rendered once: span fragments per
  // (name id, category), counter fragments per series, signal fragments per
  // signal. The event loops only add numbers and copy fragments.
  const auto& span_names = bus.span_names();
  std::vector<std::string> span_frags(span_names.size() *
                                      kTelemetryCategoryCount);
  for (std::size_t n = 0; n < span_names.size(); ++n) {
    for (std::size_t c = 0; c < kTelemetryCategoryCount; ++c) {
      span_frags[n * kTelemetryCategoryCount + c] =
          span_fragment(static_cast<TelemetryCategory>(c), span_names[n]);
    }
  }
  const auto& counter_names = bus.counter_names();
  std::vector<std::string> counter_frags;
  counter_frags.reserve(counter_names.size());
  for (const std::string& name : counter_names) {
    counter_frags.push_back(counter_fragment("", name));
  }
  std::vector<std::string> signal_frags;
  if (opt.signals != nullptr) {
    for (const std::string& name : opt.signals->signal_names()) {
      signal_frags.push_back(counter_fragment("sig:", name));
    }
  }

  // One reservation from the event counts; the text never outgrows it.
  std::size_t bound = 2 * kEventBound;  // header, footer, dropped marker
  for (const std::string& t : bus.track_names()) {
    bound += 2 * kEventBound + escaped_bound(t);
  }
  for (const TelemetryEpoch& e : bus.epochs()) {
    bound += kEventBound + escaped_bound(e.label) + 10;  // "collection"
  }
  bound += bus.spans().size() * (kEventBound + max_size(span_frags));
  for (const TelemetryInstant& i : bus.instants()) {
    bound += kEventBound + escaped_bound(i.name);
  }
  // A counter event's fixed text and numbers take at most 67 bytes, so one
  // with a fallback name ("counter N", "sig:sigN") fits in kEventBound too.
  bound += bus.counters().size() * (kEventBound + max_size(counter_frags));
  if (opt.signals != nullptr) {
    bound += opt.signals->events().size() *
             (kEventBound + max_size(signal_frags));
    for (const auto& note : opt.signals->notes()) {
      bound += kEventBound + escaped_bound(note.second);
    }
  }

  std::string out;
  out.reserve(bound);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const std::size_t header = out.size();
  // Every event ends in ",\n"; the last one's is cut before the footer.

  // Track naming + ordering (one "thread" per track, pid 1).
  const auto& tracks = bus.track_names();
  for (std::uint32_t t = 0; t < tracks.size(); ++t) {
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    u64(out, t);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(out, tracks[t]);
    out += "\"}},\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    u64(out, t);
    out += ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":";
    u64(out, t);
    out += "}},\n";
  }

  // Collection epoch markers.
  for (const TelemetryEpoch& e : bus.epochs()) {
    out += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":";
    u64(out, e.begin);
    out += ",\"cat\":\"runtime\",\"name\":\"";
    append_escaped(out, e.label.empty() ? "collection" : e.label);
    out += "\"},\n";
  }

  for (const TelemetrySpan& s : bus.spans()) {
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    u64(out, s.track);
    out += ",\"ts\":";
    u64(out, s.begin);
    out += ",\"dur\":";
    u64(out, s.end - s.begin);
    out += span_frags[s.name * kTelemetryCategoryCount +
                      static_cast<std::size_t>(s.cat)];
  }

  for (const TelemetryInstant& i : bus.instants()) {
    out += "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
    u64(out, i.track);
    out += ",\"ts\":";
    u64(out, i.at);
    out += ",\"cat\":\"";
    out += to_string(i.cat);
    out += "\",\"name\":\"";
    append_escaped(out, i.name);
    out += "\"},\n";
  }

  for (const TelemetryCounter& c : bus.counters()) {
    out += "{\"ph\":\"C\",\"pid\":1,\"ts\":";
    u64(out, c.at);
    if (c.series < counter_frags.size()) {
      out += counter_frags[c.series];
    } else {
      out += counter_fragment("", "counter " + std::to_string(c.series));
    }
    u64(out, c.value);
    out += "}},\n";
  }

  // Legacy SignalTrace merge: the 32-signal monitor's samples as counter
  // series, its notes as global instants. Signal cycles are relative to
  // the first recorded epoch (cycle 0 of the first collection).
  if (opt.signals != nullptr) {
    const Cycle base = bus.epochs().empty() ? 0 : bus.epochs().front().begin;
    for (const TraceEvent& e : opt.signals->events()) {
      out += "{\"ph\":\"C\",\"pid\":1,\"ts\":";
      u64(out, base + e.cycle);
      if (e.signal < signal_frags.size()) {
        out += signal_frags[e.signal];
      } else {
        out += counter_fragment("sig:", "sig" + std::to_string(e.signal));
      }
      u64(out, e.value);
      out += "}},\n";
    }
    for (const auto& [cycle, text] : opt.signals->notes()) {
      out += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":";
      u64(out, base + cycle);
      out += ",\"cat\":\"note\",\"name\":\"";
      append_escaped(out, text);
      out += "\"},\n";
    }
  }

  if (bus.dropped() != 0) {
    out += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":0,"
           "\"cat\":\"telemetry\",\"name\":\"telemetry: ";
    u64(out, bus.dropped());
    out += " event(s) dropped past the max_events cap\"},\n";
  }

  if (out.size() > header) out.resize(out.size() - 2);  // last ",\n"
  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const TelemetryBus& bus, const std::string& path,
                        const ChromeTraceOptions& opt) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::string json = chrome_trace_json(bus, opt);
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  f.flush();
  return f.good();
}

}  // namespace hwgc
