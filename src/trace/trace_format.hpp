// hwgc-trace-v1: recorded mutator workloads as a first-class scenario
// source (ROADMAP open item 4).
//
// A trace is a deterministic, collector-independent mutator program: a
// header naming the runtime configuration it was recorded under, followed
// by a flat stream of object-id-level operations (allocate, data store,
// pointer store, root retain/release, read probe, collection hint). Object
// ids are assigned in allocation order starting at 0, so a trace never
// mentions heap addresses or root-slot indices — which is exactly what
// makes one trace replayable under every collector in the repository,
// whose object layouts differ.
//
// Two serializations share one FNV-1a 64 stream digest computed over the
// canonical binary encoding of the operations:
//   * JSONL ("hwgc-trace-v1" schema, gated by bench_validate like the
//     bench/service/profile schemas): one header line, one line per op;
//   * binary ("HWGCTRC1" magic): fixed-width little-endian records, ~6x
//     smaller, natural truncation detection.
// Loading verifies the digest and the structural invariants before
// returning, so a trace that loads at all is safe to replay: every op
// references an id that was allocated earlier and still has a live root,
// fields/indices are in shape bounds, and release indices are valid.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "conformance/harness.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// Any load/parse failure of a trace stream. The message always starts
/// with "hwgc-trace-v1:" and names the specific defect (truncation, digest
/// mismatch, unknown event kind, out-of-range object id, version skew...).
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Null object id in kLink operations (a pointer-field clear).
inline constexpr std::uint64_t kNoTraceId = ~std::uint64_t{0};

/// One recorded mutator operation. `a`/`b`/`c` are interpreted per kind:
///   kAlloc    a=id (sequential from 0)  b=pi           c=delta
///   kData     a=id                      b=word index   c=value
///   kLink     a=src id                  b=field        c=dst id | kNoTraceId
///   kRetain   a=id   (dup: root an already-rooted object in one more slot)
///   kLoad     a=parent id  b=field  c=child id (load_ptr: roots the child,
///             which may have no other root — reachable through the parent)
///   kRelease  a=id   b=index into the id's live-root list (creation order)
///   kRead     a=id   b=data words       c=FNV-1a data digest at record time
///   kCollect  explicit collection request (exhaustion cycles are implicit)
struct TraceOp {
  enum class Kind : std::uint8_t {
    kAlloc = 0,
    kData,
    kLink,
    kRetain,
    kLoad,
    kRelease,
    kRead,
    kCollect,
    kCount
  };
  Kind kind = Kind::kCollect;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  friend bool operator==(const TraceOp& x, const TraceOp& y) noexcept {
    return x.kind == y.kind && x.a == y.a && x.b == y.b && x.c == y.c;
  }
};

const char* to_string(TraceOp::Kind k) noexcept;

/// The runtime configuration a trace was recorded under — enough to
/// reconstruct the exact SimConfig (and heap size) for bit-identical
/// replay on the coprocessor path.
struct TraceHeader {
  std::string name = "trace";
  std::uint32_t version = 1;
  Word semispace_words = 4096;
  std::uint32_t cores = 8;
  std::uint32_t header_fifo_capacity = 32 * 1024;
  SchedulePolicyKind schedule = SchedulePolicyKind::kFixedPriority;
  std::uint64_t schedule_seed = 0;
  Cycle latency_jitter = 0;
  bool subobject_copy = false;
  bool markbit_early_read = false;

  /// The one configuration a trace header describes: cores, FIFO,
  /// schedule and seed, jitter and collector features, with the schedule
  /// seed also seeding the software baselines' torture stream.
  /// sim_config_from() of it is the coprocessor configuration the trace
  /// was recorded under; a replay builds its collector plugin from the
  /// same value.
  HarnessConfig harness_config() const;

  friend bool operator==(const TraceHeader& x, const TraceHeader& y) noexcept {
    return x.name == y.name && x.version == y.version &&
           x.semispace_words == y.semispace_words && x.cores == y.cores &&
           x.header_fifo_capacity == y.header_fifo_capacity &&
           x.schedule == y.schedule && x.schedule_seed == y.schedule_seed &&
           x.latency_jitter == y.latency_jitter &&
           x.subobject_copy == y.subobject_copy &&
           x.markbit_early_read == y.markbit_early_read;
  }
};

struct Trace {
  TraceHeader header;
  std::vector<TraceOp> ops;

  /// FNV-1a 64 over the canonical binary op encoding (kind byte + three
  /// 8-byte little-endian operands per op). Identical for the JSONL and
  /// binary serializations of the same trace.
  std::uint64_t digest() const;

  /// Number of distinct objects the trace allocates.
  std::uint64_t objects() const;

  /// Explicit kCollect hints (implicit exhaustion cycles not included).
  std::uint64_t collect_hints() const;

  friend bool operator==(const Trace& x, const Trace& y) noexcept {
    return x.header == y.header && x.ops == y.ops;
  }
};

/// Structural validation: simulates root accounting over the op stream and
/// returns every defect found (empty = replayable). load_trace* run this
/// and throw on the first finding, so a successfully loaded trace never
/// needs re-checking.
std::vector<std::string> check_trace(const Trace& trace);

/// JSONL serialization (hwgc-trace-v1 schema; trailing newline included).
std::string trace_to_jsonl(const Trace& trace);
Trace trace_from_jsonl(const std::string& text);

/// Compact binary serialization ("HWGCTRC1" magic, little-endian).
std::string trace_to_binary(const Trace& trace);
Trace trace_from_binary(const std::string& bytes);

/// File round trip. load_trace autodetects the serialization from the
/// leading bytes; both loaders verify digest + structure before returning
/// (TraceError otherwise), so nothing downstream sees a malformed trace.
void save_trace(const std::string& path, const Trace& trace,
                bool binary = false);
Trace load_trace(const std::string& path);

/// Size-scaling transform (`tracectl transform --scale-sizes F`): returns
/// a copy of `trace` whose object data areas are `factor` times larger.
/// Every kAlloc delta is rescaled (rounded, clamped to kMaxDelta), kData
/// stores whose word index falls outside the rescaled area are dropped,
/// and every kRead probe is re-derived — its word count and FNV-1a data
/// digest are recomputed against the transformed stream, so the scaled
/// trace still replays with zero read mismatches. Pointer shapes (pi) and
/// the link topology are untouched: the live graph keeps its structure,
/// only its memory footprint changes. The header's semispace grows when
/// the scaled allocations need the room. Throws std::invalid_argument
/// unless factor > 0; factor == 1 is the identity.
Trace scale_trace_sizes(const Trace& trace, double factor);

/// Schema gate for one hwgc-trace-v1 JSONL line — same contract as
/// validate_bench_jsonl_line, dispatched by schema from bench_validate.
bool validate_trace_jsonl_line(const std::string& line, std::string* error);

}  // namespace hwgc
