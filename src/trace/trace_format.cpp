#include "trace/trace_format.hpp"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/schedule_policy.hpp"
#include "heap/object_model.hpp"
#include "telemetry/metrics.hpp"

namespace hwgc {

namespace {

constexpr char kMagic[8] = {'H', 'W', 'G', 'C', 'T', 'R', 'C', '1'};
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_u8(std::uint64_t& h, std::uint8_t byte) {
  h = (h ^ byte) * kFnvPrime;
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    fnv_u8(h, static_cast<std::uint8_t>(v & 0xffu));
    v >>= 8;
  }
}

[[noreturn]] void fail(const std::string& msg) {
  throw TraceError("hwgc-trace-v1: " + msg);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

bool parse_u64_str(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-' || s[0] == '"') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

/// Strips the string-typed marker quotes parse_flat_json_object adds.
std::string unquote(const std::string& v) {
  if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
    return v.substr(1, v.size() - 2);
  }
  return v;
}

/// Both loaders read semispace_words as u64 on the wire but store a Word;
/// reject out-of-range values instead of silently truncating to a tiny
/// semispace that fails later with a confusing object-does-not-fit error.
Word checked_semispace_words(std::uint64_t v) {
  if (v > std::numeric_limits<Word>::max()) {
    fail("semispace_words " + std::to_string(v) + " out of range (max " +
         std::to_string(std::numeric_limits<Word>::max()) + ")");
  }
  return static_cast<Word>(v);
}

/// A header field read from its wire width, checked against its declared
/// range (sim/config.hpp) before it is narrowed: a hostile value fails by
/// name instead of replaying truncated, exhausting host memory or running
/// into the watchdog.
std::uint64_t checked_field(const char* field, std::uint64_t v,
                            std::uint64_t lo, std::uint64_t hi) {
  if (v < lo || v > hi) {
    fail(std::string(field) + " " + std::to_string(v) + " out of range [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

std::uint32_t checked_cores(std::uint64_t v) {
  return static_cast<std::uint32_t>(checked_field("cores", v, 1, kMaxCores));
}
std::uint32_t checked_fifo(std::uint64_t v) {
  return static_cast<std::uint32_t>(
      checked_field("fifo", v, 0, kMaxHeaderFifoCapacity));
}
Cycle checked_jitter(std::uint64_t v) {
  return checked_field("jitter", v, 0, kMaxLatencyJitter);
}

bool parse_kind(const std::string& name, TraceOp::Kind& out) {
  for (std::uint8_t k = 0;
       k < static_cast<std::uint8_t>(TraceOp::Kind::kCount); ++k) {
    if (name == to_string(static_cast<TraceOp::Kind>(k))) {
      out = static_cast<TraceOp::Kind>(k);
      return true;
    }
  }
  return false;
}

/// Writer-side name hygiene: the JSONL emitter never needs escapes because
/// anything outside this set is replaced on save.
std::string sanitize_name(const std::string& name) {
  std::string out;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out += ok ? c : '_';
  }
  return out.empty() ? "trace" : out;
}

}  // namespace

const char* to_string(TraceOp::Kind k) noexcept {
  switch (k) {
    case TraceOp::Kind::kAlloc: return "alloc";
    case TraceOp::Kind::kData: return "data";
    case TraceOp::Kind::kLink: return "link";
    case TraceOp::Kind::kRetain: return "retain";
    case TraceOp::Kind::kLoad: return "load";
    case TraceOp::Kind::kRelease: return "release";
    case TraceOp::Kind::kRead: return "read";
    case TraceOp::Kind::kCollect: return "collect";
    case TraceOp::Kind::kCount: break;
  }
  return "?";
}

HarnessConfig TraceHeader::harness_config() const {
  HarnessConfig hc;
  hc.threads = cores;
  hc.header_fifo_capacity = header_fifo_capacity;
  hc.schedule = schedule;
  hc.schedule_seed = schedule_seed;
  hc.torture.seed = schedule_seed;
  hc.latency_jitter = latency_jitter;
  hc.subobject_copy = subobject_copy;
  hc.markbit_early_read = markbit_early_read;
  return hc;
}

std::uint64_t Trace::digest() const {
  std::uint64_t h = kFnvOffset;
  for (const TraceOp& op : ops) {
    fnv_u8(h, static_cast<std::uint8_t>(op.kind));
    fnv_u64(h, op.a);
    fnv_u64(h, op.b);
    fnv_u64(h, op.c);
  }
  return h;
}

std::uint64_t Trace::objects() const {
  std::uint64_t n = 0;
  for (const TraceOp& op : ops) {
    if (op.kind == TraceOp::Kind::kAlloc) ++n;
  }
  return n;
}

std::uint64_t Trace::collect_hints() const {
  std::uint64_t n = 0;
  for (const TraceOp& op : ops) {
    if (op.kind == TraceOp::Kind::kCollect) ++n;
  }
  return n;
}

std::vector<std::string> check_trace(const Trace& trace) {
  std::vector<std::string> findings;
  const auto note = [&](std::size_t seq, const std::string& msg) {
    if (findings.size() < 64) {
      findings.push_back(msg + " at seq " + std::to_string(seq));
    }
  };
  struct ObjState {
    Word pi = 0;
    Word delta = 0;
    std::uint64_t live_roots = 0;
    std::vector<std::uint64_t> children;  ///< link-stream mirror
  };
  std::vector<ObjState> objs;
  const auto id_ok = [&](std::size_t seq, std::uint64_t id) {
    if (id < objs.size()) return true;
    note(seq, "out-of-range object id " + std::to_string(id) + " (only " +
                  std::to_string(objs.size()) + " objects allocated by then)");
    return false;
  };
  const auto live_ok = [&](std::size_t seq, std::uint64_t id) {
    if (!id_ok(seq, id)) return false;
    if (objs[id].live_roots > 0) return true;
    note(seq, "operation on unrooted object id " + std::to_string(id));
    return false;
  };
  for (std::size_t seq = 0; seq < trace.ops.size(); ++seq) {
    const TraceOp& op = trace.ops[seq];
    switch (op.kind) {
      case TraceOp::Kind::kAlloc: {
        if (op.a != objs.size()) {
          note(seq, "non-sequential allocation id " + std::to_string(op.a) +
                        " (expected " + std::to_string(objs.size()) + ")");
        }
        if (op.b > kMaxPi || op.c > kMaxDelta) {
          note(seq, "object shape pi=" + std::to_string(op.b) +
                        " delta=" + std::to_string(op.c) +
                        " exceeds the header encoding");
        } else if (object_words(static_cast<Word>(op.b),
                                static_cast<Word>(op.c)) >
                   trace.header.semispace_words) {
          note(seq, "object of " +
                        std::to_string(object_words(static_cast<Word>(op.b),
                                                    static_cast<Word>(op.c))) +
                        " words cannot fit the declared semispace");
        }
        ObjState st;
        // An out-of-encoding shape was noted above; record it as a zero
        // shape so later field/index checks bound against the children
        // mirror actually allocated instead of a truncated pi.
        const bool shape_ok = op.b <= kMaxPi && op.c <= kMaxDelta;
        st.pi = shape_ok ? static_cast<Word>(op.b) : 0;
        st.delta = shape_ok ? static_cast<Word>(op.c) : 0;
        st.live_roots = 1;
        st.children.assign(st.pi, kNoTraceId);
        objs.push_back(std::move(st));
        break;
      }
      case TraceOp::Kind::kData:
        if (live_ok(seq, op.a) && op.b >= objs[op.a].delta) {
          note(seq, "data index " + std::to_string(op.b) +
                        " out of range for object id " + std::to_string(op.a));
        }
        break;
      case TraceOp::Kind::kLink:
        if (live_ok(seq, op.a)) {
          if (op.b >= objs[op.a].pi) {
            note(seq, "pointer field " + std::to_string(op.b) +
                          " out of range for object id " +
                          std::to_string(op.a));
          } else if (op.c == kNoTraceId || id_ok(seq, op.c)) {
            objs[op.a].children[op.b] = op.c;
          }
        }
        if (op.c != kNoTraceId) live_ok(seq, op.c);
        break;
      case TraceOp::Kind::kRetain:
        if (live_ok(seq, op.a)) ++objs[op.a].live_roots;
        break;
      case TraceOp::Kind::kLoad:
        if (live_ok(seq, op.a)) {
          if (op.b >= objs[op.a].pi) {
            note(seq, "pointer field " + std::to_string(op.b) +
                          " out of range for object id " +
                          std::to_string(op.a));
          } else if (objs[op.a].children[op.b] != op.c ||
                     op.c == kNoTraceId) {
            note(seq, "load through field " + std::to_string(op.b) +
                          " of object id " + std::to_string(op.a) +
                          " resolves to id " +
                          (objs[op.a].children[op.b] == kNoTraceId
                               ? std::string("null")
                               : std::to_string(objs[op.a].children[op.b])) +
                          " per the link stream, trace says " +
                          std::to_string(op.c));
          } else {
            ++objs[op.c].live_roots;
          }
        }
        break;
      case TraceOp::Kind::kRelease:
        if (live_ok(seq, op.a)) {
          if (op.b >= objs[op.a].live_roots) {
            note(seq, "release index " + std::to_string(op.b) +
                          " out of range for object id " +
                          std::to_string(op.a));
          }
          --objs[op.a].live_roots;
        }
        break;
      case TraceOp::Kind::kRead:
        if (live_ok(seq, op.a) && op.b != objs[op.a].delta) {
          note(seq, "read word count " + std::to_string(op.b) +
                        " does not match object delta " +
                        std::to_string(objs[op.a].delta));
        }
        break;
      case TraceOp::Kind::kCollect:
        break;
      case TraceOp::Kind::kCount:
        note(seq, "unknown event kind");
        break;
    }
  }
  return findings;
}

Trace scale_trace_sizes(const Trace& trace, double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument(
        "scale_trace_sizes: factor must be > 0, got " +
        std::to_string(factor));
  }
  Trace out;
  out.header = trace.header;
  out.ops.reserve(trace.ops.size());
  // Replay-state shadow of the transformed stream: per-id rescaled delta
  // and current data words (allocation zero-fills), so every kRead can be
  // re-derived exactly as Runtime::read_probe would observe it.
  std::vector<std::uint64_t> deltas;
  std::vector<std::vector<std::uint64_t>> data;
  Word max_object = 0;
  for (const TraceOp& op : trace.ops) {
    switch (op.kind) {
      case TraceOp::Kind::kAlloc: {
        std::uint64_t scaled = static_cast<std::uint64_t>(
            static_cast<double>(op.c) * factor + 0.5);
        if (scaled > kMaxDelta) scaled = kMaxDelta;
        deltas.push_back(scaled);
        data.emplace_back(scaled, 0);
        if (op.b <= kMaxPi) {
          const Word words =
              object_words(static_cast<Word>(op.b), static_cast<Word>(scaled));
          if (words > max_object) max_object = words;
        }
        out.ops.push_back({op.kind, op.a, op.b, scaled});
        break;
      }
      case TraceOp::Kind::kData:
        if (op.a < data.size() && op.b < deltas[op.a]) {
          data[op.a][op.b] = op.c;
          out.ops.push_back(op);
        }
        break;
      case TraceOp::Kind::kRead: {
        std::uint64_t digest = kFnvOffset;
        if (op.a < data.size()) {
          for (std::uint64_t w : data[op.a]) fnv_u64(digest, w);
          out.ops.push_back({op.kind, op.a, deltas[op.a], digest});
        }
        break;
      }
      default:
        out.ops.push_back(op);
        break;
    }
  }
  // Grow the declared semispace with the workload so the scaled stream
  // still fits: proportionally for factor > 1, and never below the largest
  // single object (check_trace's fit invariant). Shrinking traces keep
  // their original semispace — less occupancy just means fewer implicit
  // collections, which is always replayable.
  if (factor > 1.0) {
    const double grown =
        static_cast<double>(trace.header.semispace_words) * factor;
    out.header.semispace_words = static_cast<Word>(grown + 0.5);
  }
  if (out.header.semispace_words < max_object) {
    out.header.semispace_words = max_object;
  }
  return out;
}

std::string trace_to_jsonl(const Trace& trace) {
  const TraceHeader& h = trace.header;
  std::ostringstream os;
  os << "{\"schema\":\"hwgc-trace-v1\",\"record\":\"header\",\"name\":\""
     << sanitize_name(h.name) << "\",\"version\":" << h.version
     << ",\"semispace_words\":" << h.semispace_words
     << ",\"cores\":" << h.cores << ",\"fifo\":" << h.header_fifo_capacity
     << ",\"schedule\":\"" << to_string(h.schedule) << "\""
     << ",\"schedule_seed\":" << h.schedule_seed
     << ",\"jitter\":" << h.latency_jitter
     << ",\"subobject\":" << (h.subobject_copy ? 1 : 0)
     << ",\"earlyread\":" << (h.markbit_early_read ? 1 : 0)
     << ",\"events\":" << trace.ops.size() << ",\"digest\":" << trace.digest()
     << "}\n";
  for (std::size_t seq = 0; seq < trace.ops.size(); ++seq) {
    const TraceOp& op = trace.ops[seq];
    os << "{\"schema\":\"hwgc-trace-v1\",\"record\":\"op\",\"seq\":" << seq
       << ",\"k\":\"" << to_string(op.kind) << "\",\"a\":" << op.a
       << ",\"b\":" << op.b << ",\"c\":" << op.c << "}\n";
  }
  return os.str();
}

namespace {

const std::string* find_key(
    const std::vector<std::pair<std::string, std::string>>& kv,
    const std::string& key) {
  for (const auto& [k, v] : kv) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t need_u64(
    const std::vector<std::pair<std::string, std::string>>& kv,
    const std::string& key, const std::string& where) {
  const std::string* v = find_key(kv, key);
  if (v == nullptr) fail("missing field \"" + key + "\" in " + where);
  std::uint64_t out = 0;
  if (!parse_u64_str(*v, out)) {
    fail("field \"" + key + "\" is not an unsigned number in " + where);
  }
  return out;
}

std::string need_str(
    const std::vector<std::pair<std::string, std::string>>& kv,
    const std::string& key, const std::string& where) {
  const std::string* v = find_key(kv, key);
  if (v == nullptr) fail("missing field \"" + key + "\" in " + where);
  if (v->empty() || v->front() != '"') {
    fail("field \"" + key + "\" is not a string in " + where);
  }
  return unquote(*v);
}

/// Shared tail of both loaders: event count, digest, structure — in that
/// order, so a truncated stream is named as truncation rather than as the
/// digest mismatch it would also produce.
void finish_load(Trace& trace, std::size_t declared_events,
                 std::uint64_t declared_digest) {
  if (trace.ops.size() < declared_events) {
    fail("truncated stream (header declares " +
         std::to_string(declared_events) + " events, found " +
         std::to_string(trace.ops.size()) + ")");
  }
  if (trace.ops.size() > declared_events) {
    fail("trailing events beyond the declared count (header declares " +
         std::to_string(declared_events) + " events, found " +
         std::to_string(trace.ops.size()) + ")");
  }
  const std::uint64_t computed = trace.digest();
  if (computed != declared_digest) {
    fail("stream digest mismatch (header declares " + hex(declared_digest) +
         ", stream is " + hex(computed) + ")");
  }
  const std::vector<std::string> findings = check_trace(trace);
  if (!findings.empty()) fail(findings.front());
}

}  // namespace

Trace trace_from_jsonl(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  Trace trace;
  bool have_header = false;
  std::size_t declared_events = 0;
  std::uint64_t declared_digest = 0;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::vector<std::pair<std::string, std::string>> kv;
    std::string perr;
    if (!parse_flat_json_object(line, kv, &perr)) {
      fail("malformed JSONL line " + std::to_string(lineno) + " (" + perr +
           ")");
    }
    const std::string where = "line " + std::to_string(lineno);
    const std::string* schema = find_key(kv, "schema");
    if (schema == nullptr || unquote(*schema) != "hwgc-trace-v1") {
      fail("line " + std::to_string(lineno) +
           " does not carry the hwgc-trace-v1 schema");
    }
    const std::string record = need_str(kv, "record", where);
    if (record == "header") {
      if (have_header) fail("duplicate header at line " + std::to_string(lineno));
      const std::uint64_t version = need_u64(kv, "version", where);
      if (version != 1) {
        fail("unsupported hwgc-trace version " + std::to_string(version) +
             " (this build reads version 1)");
      }
      TraceHeader h;
      h.name = need_str(kv, "name", where);
      h.version = 1;
      h.semispace_words =
          checked_semispace_words(need_u64(kv, "semispace_words", where));
      h.cores = checked_cores(need_u64(kv, "cores", where));
      h.header_fifo_capacity = checked_fifo(need_u64(kv, "fifo", where));
      const std::string sched = need_str(kv, "schedule", where);
      if (!parse_schedule_policy(sched, h.schedule)) {
        fail("unknown schedule policy '" + sched + "' in " + where);
      }
      h.schedule_seed = need_u64(kv, "schedule_seed", where);
      h.latency_jitter = checked_jitter(need_u64(kv, "jitter", where));
      h.subobject_copy = need_u64(kv, "subobject", where) != 0;
      h.markbit_early_read = need_u64(kv, "earlyread", where) != 0;
      declared_events =
          static_cast<std::size_t>(need_u64(kv, "events", where));
      declared_digest = need_u64(kv, "digest", where);
      trace.header = h;
      have_header = true;
      continue;
    }
    if (record != "op") {
      fail("unknown record type '" + record + "' at line " +
           std::to_string(lineno));
    }
    if (!have_header) {
      fail("op record before the header at line " + std::to_string(lineno));
    }
    TraceOp op;
    const std::string kind = need_str(kv, "k", where);
    if (!parse_kind(kind, op.kind)) {
      fail("unknown event kind '" + kind + "' at seq " +
           std::to_string(need_u64(kv, "seq", where)));
    }
    op.a = need_u64(kv, "a", where);
    op.b = need_u64(kv, "b", where);
    op.c = need_u64(kv, "c", where);
    trace.ops.push_back(op);
  }
  if (!have_header) fail("truncated stream (no header line)");
  finish_load(trace, declared_events, declared_digest);
  return trace;
}

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out += static_cast<char>(v & 0xffu);
    v >>= 8;
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>(v & 0xffu);
    v >>= 8;
  }
}

struct ByteReader {
  const std::string& bytes;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > bytes.size()) {
      fail("truncated stream (binary record cut short at byte " +
           std::to_string(bytes.size()) + ")");
    }
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes[pos++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::string str(std::size_t n) {
    need(n);
    std::string s = bytes.substr(pos, n);
    pos += n;
    return s;
  }
};

}  // namespace

std::string trace_to_binary(const Trace& trace) {
  const TraceHeader& h = trace.header;
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, h.version);
  const std::string name = sanitize_name(h.name);
  put_u32(out, static_cast<std::uint32_t>(name.size()));
  out += name;
  put_u64(out, h.semispace_words);
  put_u32(out, h.cores);
  put_u32(out, h.header_fifo_capacity);
  out += static_cast<char>(h.schedule);
  put_u64(out, h.schedule_seed);
  put_u64(out, h.latency_jitter);
  out += static_cast<char>(h.subobject_copy ? 1 : 0);
  out += static_cast<char>(h.markbit_early_read ? 1 : 0);
  put_u64(out, trace.ops.size());
  put_u64(out, trace.digest());
  for (const TraceOp& op : trace.ops) {
    out += static_cast<char>(op.kind);
    put_u64(out, op.a);
    put_u64(out, op.b);
    put_u64(out, op.c);
  }
  return out;
}

Trace trace_from_binary(const std::string& bytes) {
  ByteReader r{bytes};
  if (r.str(sizeof(kMagic)) != std::string(kMagic, sizeof(kMagic))) {
    fail("not an hwgc trace (bad magic)");
  }
  const std::uint32_t version = r.u32();
  if (version != 1) {
    fail("unsupported hwgc-trace version " + std::to_string(version) +
         " (this build reads version 1)");
  }
  Trace trace;
  TraceHeader& h = trace.header;
  h.version = 1;
  h.name = r.str(r.u32());
  h.semispace_words = checked_semispace_words(r.u64());
  h.cores = checked_cores(r.u32());
  h.header_fifo_capacity = checked_fifo(r.u32());
  const std::uint8_t sched = r.u8();
  if (sched > static_cast<std::uint8_t>(SchedulePolicyKind::kAdversarial)) {
    fail("unknown schedule policy byte " + std::to_string(sched));
  }
  h.schedule = static_cast<SchedulePolicyKind>(sched);
  h.schedule_seed = r.u64();
  h.latency_jitter = checked_jitter(r.u64());
  h.subobject_copy = r.u8() != 0;
  h.markbit_early_read = r.u8() != 0;
  const std::uint64_t declared_events = r.u64();
  const std::uint64_t declared_digest = r.u64();
  for (std::uint64_t seq = 0; seq < declared_events; ++seq) {
    TraceOp op;
    const std::uint8_t kind = r.u8();
    if (kind >= static_cast<std::uint8_t>(TraceOp::Kind::kCount)) {
      fail("unknown event kind " + std::to_string(kind) + " at seq " +
           std::to_string(seq));
    }
    op.kind = static_cast<TraceOp::Kind>(kind);
    op.a = r.u64();
    op.b = r.u64();
    op.c = r.u64();
    trace.ops.push_back(op);
  }
  if (r.pos != bytes.size()) {
    fail("trailing events beyond the declared count (header declares " +
         std::to_string(declared_events) + " events, stream has " +
         std::to_string(bytes.size() - r.pos) + " extra bytes)");
  }
  finish_load(trace, static_cast<std::size_t>(declared_events),
              declared_digest);
  return trace;
}

void save_trace(const std::string& path, const Trace& trace, bool binary) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open '" + path + "' for writing");
  const std::string body =
      binary ? trace_to_binary(trace) : trace_to_jsonl(trace);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!out) fail("short write to '" + path + "'");
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string body = buf.str();
  if (body.size() >= sizeof(kMagic) &&
      body.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) == 0) {
    return trace_from_binary(body);
  }
  return trace_from_jsonl(body);
}

bool validate_trace_jsonl_line(const std::string& line, std::string* error) {
  std::vector<std::pair<std::string, std::string>> kv;
  if (!parse_flat_json_object(line, kv, error)) return false;
  const auto err = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const auto str_field = [&](const char* key, std::string& out) {
    const std::string* v = find_key(kv, key);
    if (v == nullptr || v->empty() || v->front() != '"') return false;
    out = unquote(*v);
    return true;
  };
  const auto u64_field = [&](const char* key, std::uint64_t& out) {
    const std::string* v = find_key(kv, key);
    return v != nullptr && parse_u64_str(*v, out);
  };
  std::string schema;
  if (!str_field("schema", schema) || schema != "hwgc-trace-v1") {
    return err("missing or wrong \"schema\"");
  }
  std::string record;
  if (!str_field("record", record)) return err("missing \"record\"");
  std::uint64_t u = 0;
  if (record == "header") {
    std::string name;
    if (!str_field("name", name) || name.empty()) {
      return err("header: missing \"name\"");
    }
    if (!u64_field("version", u) || u != 1) {
      return err("header: \"version\" must be 1");
    }
    if (!u64_field("semispace_words", u) || u == 0) {
      return err("header: \"semispace_words\" must be a positive number");
    }
    if (!u64_field("cores", u) || u == 0) {
      return err("header: \"cores\" must be a positive number");
    }
    if (!u64_field("fifo", u)) {
      return err("header: \"fifo\" must be a number");
    }
    std::string sched;
    SchedulePolicyKind kind;
    if (!str_field("schedule", sched) || !parse_schedule_policy(sched, kind)) {
      return err("header: unknown \"schedule\" policy");
    }
    for (const char* key : {"schedule_seed", "jitter", "events", "digest"}) {
      if (!u64_field(key, u)) {
        return err(std::string("header: \"") + key + "\" must be a number");
      }
    }
    for (const char* key : {"subobject", "earlyread"}) {
      if (!u64_field(key, u) || u > 1) {
        return err(std::string("header: \"") + key + "\" must be 0 or 1");
      }
    }
    return true;
  }
  if (record == "op") {
    if (!u64_field("seq", u)) return err("op: \"seq\" must be a number");
    std::string kind;
    TraceOp::Kind k;
    if (!str_field("k", kind) || !parse_kind(kind, k)) {
      return err("op: unknown event kind \"" + kind + "\"");
    }
    for (const char* key : {"a", "b", "c"}) {
      if (!u64_field(key, u)) {
        return err(std::string("op: \"") + key + "\" must be a number");
      }
    }
    return true;
  }
  return err("unknown \"record\" type \"" + record + "\"");
}

}  // namespace hwgc
