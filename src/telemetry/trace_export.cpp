#include "telemetry/trace_export.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <memory>
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

/// Longest text `s` can escape to (a control character takes six bytes).
std::size_t escaped_bound(std::string_view s) { return 6 * s.size(); }

/// Writes escaped `s` at `p` (room for escaped_bound(s) bytes) and returns
/// the end.
char* put_escaped(char* p, std::string_view s) {
  for (char c : s) {
    if (!needs_escape(c)) {
      *p++ = c;
      continue;
    }
    *p++ = '\\';
    switch (c) {
      case '"': *p++ = '"'; break;
      case '\\': *p++ = '\\'; break;
      case '\n': *p++ = 'n'; break;
      case '\t': *p++ = 't'; break;
      default:
        p = std::copy_n("u00", 3, p);
        *p++ = "0123456789abcdef"[c >> 4];
        *p++ = "0123456789abcdef"[c & 0xf];
    }
  }
  return p;
}

void append_escaped(std::string& out, std::string_view s) {
  const std::size_t at = out.size();
  out.resize(at + escaped_bound(s));
  out.resize(static_cast<std::size_t>(put_escaped(out.data() + at, s) -
                                      out.data()));
}

char* put(char* p, std::string_view s) {
  return std::copy(s.begin(), s.end(), p);
}

char* put_u64(char* p, std::uint64_t v) {
  return std::to_chars(p, p + 20, v).ptr;
}

/// Event text goes through a fixed 64 KB chunk that is appended to the
/// output when the next event might not fit, so an event checks for room
/// once and its pieces are plain copies.
class ChunkedOut {
 public:
  explicit ChunkedOut(std::string& out) : out_(out) {}

  /// The write position, with room for `n` bytes. An event longer than the
  /// chunk (a huge escaped name) gets a chunk of its own size.
  char* room(std::size_t n) {
    if (size_ - len_ < n) {
      flush();
      if (n > size_) {
        size_ = n;
        buf_.reset(new char[n]);
      }
    }
    return buf_.get() + len_;
  }
  /// Ends the event written at room()'s position.
  void commit(char* end) { len_ = static_cast<std::size_t>(end - buf_.get()); }
  /// Appends the chunk to the output; call once more after the last event.
  void flush() {
    out_.append(buf_.get(), len_);
    len_ = 0;
  }

 private:
  std::string& out_;
  std::size_t size_ = 64 * 1024;
  std::unique_ptr<char[]> buf_{new char[size_]};
  std::size_t len_ = 0;
};

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

/// Everything of a note event between its timestamp and its number (a
/// numbered note) or its closing quote.
std::string note_fragment(std::string_view text) {
  std::string f = ",\"cat\":\"note\",\"name\":\"";
  append_escaped(f, text);
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
  const std::size_t max_span_frag = max_size(span_frags);
  const std::size_t max_counter_frag = max_size(counter_frags);
  const std::size_t max_signal_frag = max_size(signal_frags);
  std::size_t bound = 2 * kEventBound;  // header, footer, dropped marker
  for (const std::string& t : bus.track_names()) {
    bound += 2 * kEventBound + escaped_bound(t);
  }
  for (const TelemetryEpoch& e : bus.epochs()) {
    bound += kEventBound + escaped_bound(e.label) + 10;  // "collection"
  }
  bound += bus.spans().size() * (kEventBound + max_span_frag);
  for (const TelemetryInstant& i : bus.instants()) {
    bound += kEventBound + escaped_bound(i.name);
  }
  // A counter event's fixed text and numbers take at most 67 bytes, so one
  // with a fallback name ("counter N", "sig:sigN") fits in kEventBound too.
  bound += bus.counters().size() * (kEventBound + max_counter_frag);
  if (opt.signals != nullptr) {
    bound += opt.signals->events().size() * (kEventBound + max_signal_frag);
    for (const TraceNote& n : opt.signals->notes()) {
      bound += kEventBound + escaped_bound(opt.signals->note_prefix(n));
    }
  }

  std::string out;
  out.reserve(bound);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const std::size_t header = out.size();
  // Every event ends in ",\n"; the last one's is cut before the footer.
  ChunkedOut w(out);

  // Track naming + ordering (one "thread" per track, pid 1).
  const auto& tracks = bus.track_names();
  for (std::uint32_t t = 0; t < tracks.size(); ++t) {
    char* p = w.room(2 * kEventBound + escaped_bound(tracks[t]));
    p = put(p, "{\"ph\":\"M\",\"pid\":1,\"tid\":");
    p = put_u64(p, t);
    p = put(p, ",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    p = put_escaped(p, tracks[t]);
    p = put(p, "\"}},\n{\"ph\":\"M\",\"pid\":1,\"tid\":");
    p = put_u64(p, t);
    p = put(p, ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":");
    p = put_u64(p, t);
    w.commit(put(p, "}},\n"));
  }

  // Collection epoch markers.
  for (const TelemetryEpoch& e : bus.epochs()) {
    char* p = w.room(kEventBound + escaped_bound(e.label) + 10);
    p = put(p, "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":");
    p = put_u64(p, e.begin);
    p = put(p, ",\"cat\":\"runtime\",\"name\":\"");
    p = put_escaped(p, e.label.empty() ? "collection" : e.label);
    w.commit(put(p, "\"},\n"));
  }

  for (const TelemetrySpan& s : bus.spans()) {
    char* p = w.room(kEventBound + max_span_frag);
    p = put(p, "{\"ph\":\"X\",\"pid\":1,\"tid\":");
    p = put_u64(p, s.track);
    p = put(p, ",\"ts\":");
    p = put_u64(p, s.begin);
    p = put(p, ",\"dur\":");
    p = put_u64(p, s.end - s.begin);
    w.commit(put(p, span_frags[s.name * kTelemetryCategoryCount +
                               static_cast<std::size_t>(s.cat)]));
  }

  for (const TelemetryInstant& i : bus.instants()) {
    char* p = w.room(kEventBound + escaped_bound(i.name));
    p = put(p, "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":");
    p = put_u64(p, i.track);
    p = put(p, ",\"ts\":");
    p = put_u64(p, i.at);
    p = put(p, ",\"cat\":\"");
    p = put(p, to_string(i.cat));
    p = put(p, "\",\"name\":\"");
    p = put_escaped(p, i.name);
    w.commit(put(p, "\"},\n"));
  }

  for (const TelemetryCounter& c : bus.counters()) {
    char* p = w.room(kEventBound + max_counter_frag);
    p = put(p, "{\"ph\":\"C\",\"pid\":1,\"ts\":");
    p = put_u64(p, c.at);
    if (c.series < counter_frags.size()) {
      p = put(p, counter_frags[c.series]);
    } else {
      p = put(p, counter_fragment("", "counter " + std::to_string(c.series)));
    }
    p = put_u64(p, c.value);
    w.commit(put(p, "}},\n"));
  }

  // Legacy SignalTrace merge: the 32-signal monitor's samples as counter
  // series, its notes as global instants. Signal cycles are relative to
  // the first recorded epoch (cycle 0 of the first collection).
  if (opt.signals != nullptr) {
    const Cycle base = bus.epochs().empty() ? 0 : bus.epochs().front().begin;
    for (const TraceEvent& e : opt.signals->events()) {
      char* p = w.room(kEventBound + max_signal_frag);
      p = put(p, "{\"ph\":\"C\",\"pid\":1,\"ts\":");
      p = put_u64(p, base + e.cycle);
      if (e.signal < signal_frags.size()) {
        p = put(p, signal_frags[e.signal]);
      } else {
        p = put(p,
                counter_fragment("sig:", "sig" + std::to_string(e.signal)));
      }
      p = put_u64(p, e.value);
      w.commit(put(p, "}},\n"));
    }
    // A numbered note copies its prefix's fragment, built once per prefix,
    // and appends the number.
    std::vector<std::string> prefix_frags;
    std::string plain_frag;
    for (const TraceNote& n : opt.signals->notes()) {
      std::string* frag = &plain_frag;
      if (n.numbered) {
        if (n.text >= prefix_frags.size()) prefix_frags.resize(n.text + 1);
        frag = &prefix_frags[n.text];
      }
      if (!n.numbered || frag->empty()) {
        *frag = note_fragment(opt.signals->note_prefix(n));
      }
      char* p = w.room(kEventBound + frag->size());
      p = put(p, "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":");
      p = put_u64(p, base + n.cycle);
      p = put(p, *frag);
      if (n.numbered) p = put_u64(p, n.number);
      w.commit(put(p, "\"},\n"));
    }
  }

  if (bus.dropped() != 0) {
    char* p = w.room(2 * kEventBound);
    p = put(p,
            "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":0,"
            "\"cat\":\"telemetry\",\"name\":\"telemetry: ");
    p = put_u64(p, bus.dropped());
    w.commit(put(p, " event(s) dropped past the max_events cap\"},\n"));
  }
  w.flush();

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
