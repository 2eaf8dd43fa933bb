#include "profile/request_trace.hpp"

#include <algorithm>
#include <fstream>

namespace hwgc {

std::vector<SpanRecord> exemplar_spans(const RequestExemplar& e) {
  const long long shard = static_cast<long long>(e.shard);
  // Phase boundaries on the virtual-time axis (monotone by construction:
  // start >= arrival + penalty, and the inherited window is clamped into
  // the wait).
  const Cycle b0 = e.arrival;
  const Cycle b1 = e.arrival + e.penalty;
  const Cycle b3 = e.start;
  const Cycle b2 = std::max(b1, b3 - std::min(e.inherited_stall, b3));
  const Cycle b4 = e.start + e.own_gc;
  const Cycle b5 = e.completion;

  std::vector<SpanRecord> out;
  std::uint64_t next_id = 0;
  const auto emit = [&](std::uint64_t parent, const char* name, Cycle begin,
                        Cycle end, long long gc_collection,
                        Cycle gc_cycles) -> std::uint64_t {
    SpanRecord s;
    s.shard = shard;
    s.trace = e.request_id;
    s.span = ++next_id;
    s.parent = parent;
    s.name = name;
    s.begin = begin;
    s.end = end;
    s.gc_collection = gc_collection;
    s.gc_cycles = gc_cycles;
    out.push_back(std::move(s));
    return next_id;
  };

  const std::uint64_t root = emit(0, "request", b0, b5, -1, 0);
  const std::uint64_t admission = emit(root, "admission", b0, b1, -1, 0);
  if (e.hops > 0) {
    // Tile the backoff window with one span per failover hop (the last
    // hop absorbs the integer-division remainder).
    Cycle at = b0;
    for (std::uint32_t h = 0; h < e.hops; ++h) {
      const Cycle end = h + 1 == e.hops ? b1 : at + e.penalty / e.hops;
      emit(admission, "hop", at, end, -1, 0);
      at = end;
    }
  }
  emit(root, "queue", b1, b2, -1, 0);
  const std::uint64_t gi = emit(root, "gc-inherited", b2, b3, -1, 0);
  if (!e.inherited.empty()) {
    // Inherited collections drained immediately before `start`; lay them
    // back-to-back ending at b3 and clamp the display into [b2, b3] (the
    // request only inherited min(wait, backlog) as stall). gc_cycles
    // keeps each collection's uncut charge.
    std::vector<Cycle> begins(e.inherited.size());
    Cycle end = b3;
    for (std::size_t i = e.inherited.size(); i-- > 0;) {
      const Cycle begin =
          std::max(b2, end - std::min(e.inherited[i].cycles, end));
      begins[i] = begin;
      end = begin;
    }
    for (std::size_t i = 0; i < e.inherited.size(); ++i) {
      const Cycle seg_end = i + 1 < e.inherited.size() ? begins[i + 1] : b3;
      emit(gi, "gc-charge", begins[i], seg_end, e.inherited[i].collection,
           e.inherited[i].cycles);
    }
  }
  const std::uint64_t go = emit(root, "gc-own", b3, b4, -1, 0);
  Cycle at = b3;
  for (const GcCharge& c : e.own) {
    emit(go, "gc-charge", at, at + c.cycles, c.collection, c.cycles);
    at += c.cycles;
  }
  emit(root, "service", b4, b5, -1, 0);
  return out;
}

std::string exemplar_spans_jsonl(const std::vector<RequestExemplar>& exemplars,
                                 const std::string& suite) {
  std::string out;
  for (const RequestExemplar& e : exemplars) {
    for (const SpanRecord& s : exemplar_spans(e)) {
      out += span_record_jsonl(s, suite);
    }
  }
  return out;
}

bool write_exemplar_flame(const std::vector<RequestExemplar>& exemplars,
                          const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const RequestExemplar& e : exemplars) {
    for (const SpanRecord& s : exemplar_spans(e)) {
      if (!first) out += ",";
      first = false;
      out += "\n{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":" +
             std::to_string(s.shard) + ",\"tid\":" + std::to_string(s.trace) +
             ",\"ts\":" + std::to_string(s.begin) +
             ",\"dur\":" + std::to_string(s.end - s.begin) +
             ",\"args\":{\"span\":" + std::to_string(s.span) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"gc_collection\":" + std::to_string(s.gc_collection) +
             ",\"gc_cycles\":" + std::to_string(s.gc_cycles) + "}}";
    }
  }
  out += "\n]}\n";
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  f.flush();
  return f.good();
}

void insert_exemplar(std::vector<RequestExemplar>& top, std::size_t k,
                     RequestExemplar e) {
  if (k == 0) return;
  const auto pos =
      std::lower_bound(top.begin(), top.end(), e, RequestExemplar::slower);
  if (pos == top.end() && top.size() >= k) return;
  top.insert(pos, std::move(e));
  if (top.size() > k) top.pop_back();
}

}  // namespace hwgc
