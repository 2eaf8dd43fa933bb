// Fleet request tracing — per-request span trees with GC stall links
// (piece 2 of the observability tentpole).
//
// The heap service's latency identity (service + queue + stall ==
// latency, DESIGN.md §12) says *how long* a request took; the span tree
// says *where*. Every exemplar request decomposes into five consecutive
// phases on the virtual-time axis, children of one root span:
//
//   request                      [arrival, completion]
//   ├─ admission                 [arrival, arrival+penalty]   failover
//   │   └─ hop ...               one span per failover hop      backoff
//   ├─ queue                     non-GC wait behind the shard backlog
//   ├─ gc-inherited              backlog collection debt charged as stall
//   │   └─ gc-charge ...         one span per linked collection
//   ├─ gc-own                    collections triggered during execution
//   │   └─ gc-charge ...         one span per linked collection
//   └─ service                   [completion-service, completion]
//
// gc-charge spans carry the shard collection index they link to — the
// join key into the same run's CycleProfile history and hwgc-profile-v1
// attribution records — plus the exact cycles that collection charged
// (gc_cycles). Displayed inherited spans are clamped into the queue
// window (a request only inherits min(wait, backlog) as stall), but the
// gc_cycles field keeps the uncut charge.
//
// Exemplar capture is deterministic: each shard's lane keeps its K
// slowest completions (latency desc, request id asc — ids are assigned by
// the serial conductor), and the fleet-level merge re-sorts the union by
// the same key, so serial and shard-pool runs export byte-identical span
// trees at any host thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "profile/profile_metrics.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// One collection's contribution to a request's GC stall.
struct GcCharge {
  long long collection = -1;  ///< shard collection index (gc_history slot)
  Cycle cycles = 0;
  bool operator==(const GcCharge&) const = default;
};

/// One captured slow request, everything needed to rebuild its span tree.
struct RequestExemplar {
  std::uint64_t request_id = 0;  ///< conductor-assigned, fleet-unique
  std::size_t shard = 0;         ///< shard that completed the request
  Cycle arrival = 0;
  Cycle start = 0;       ///< execution start (backlog drained)
  Cycle completion = 0;
  Cycle penalty = 0;     ///< failover retry backoff (inside the wait)
  Cycle inherited_stall = 0;
  Cycle own_gc = 0;
  Cycle service = 0;
  std::uint32_t hops = 0;  ///< failover hops taken (0 = served at home)
  std::vector<GcCharge> own;        ///< collections during execution
  std::vector<GcCharge> inherited;  ///< backlog collections inherited

  Cycle latency() const noexcept { return completion - arrival; }

  /// The deterministic exemplar order: slowest first, ties by request id.
  static bool slower(const RequestExemplar& a, const RequestExemplar& b) {
    if (a.latency() != b.latency()) return a.latency() > b.latency();
    return a.request_id < b.request_id;
  }
};

/// Expands one exemplar into its span tree (root first, ids 1..N, every
/// parent before its children). All five phase spans are always present —
/// zero-length phases keep the tree shape stable for tooling.
std::vector<SpanRecord> exemplar_spans(const RequestExemplar& e);

/// All exemplars' spans as hwgc-profile-v1 JSONL (exemplars must already
/// be in RequestExemplar::slower order).
std::string exemplar_spans_jsonl(const std::vector<RequestExemplar>& exemplars,
                                 const std::string& suite);

/// Chrome-trace flame view of the exemplars ({"traceEvents":[...]}, "X"
/// complete events; pid = shard, tid = request id, 1 cycle = 1 us).
/// Deterministic byte-for-byte. Returns false on I/O failure.
bool write_exemplar_flame(const std::vector<RequestExemplar>& exemplars,
                          const std::string& path);

/// Maintains a bounded top-K set in RequestExemplar::slower order (the
/// per-shard capture buffer; also used for the fleet merge).
void insert_exemplar(std::vector<RequestExemplar>& top, std::size_t k,
                     RequestExemplar e);

}  // namespace hwgc
