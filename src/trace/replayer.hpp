// TraceReplayer: drives a recorded hwgc-trace-v1 op stream against a live
// Runtime — under any collector in the inventory — and verifies it as it goes.
//
// Determinism argument (DESIGN.md §16): a trace is a closed mutator
// program over allocation-order object ids. Replay keeps, per id, the live
// Refs in creation order; every op resolves through that table, and release
// ops name the creation-order position of the slot to free, so the
// runtime's root table and slot freelist evolve bit-identically to the
// recording run. Collections — explicit (kCollect) or allocation-triggered
// (implicit, unrecorded) — therefore happen at the same op boundaries with
// the same root sets, which is why record -> replay -> re-record is a
// byte-identical round trip and why per-cycle GcCycleStats and SignalTrace
// streams reproduce bit-for-bit on the coprocessor path.
//
// Self-verification: every collection is checked by the per-cycle oracle
// (CycleOracle, conformance/harness.hpp; heapd shards use it too), and every
// kRead op recomputes the FNV-1a data digest recorded at capture time — a
// replay that passes has proven the collector under test preserved the
// recorded workload's entire observable behavior.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "conformance/conformance.hpp"
#include "conformance/harness.hpp"
#include "runtime/runtime.hpp"
#include "trace/trace_format.hpp"

namespace hwgc {

/// Incremental trace application — the heapd session driver. Owns the
/// per-id Ref table; apply() advances through the op stream in request-
/// sized budgets. With wrapping enabled the cursor releases every live
/// ref at end-of-trace and restarts (the released graph becomes garbage
/// for the next cycle), so one finite trace models an arbitrarily long
/// session deterministically.
class TraceCursor {
 public:
  /// `trace` must outlive the cursor (heapd keeps the corpus alive in the
  /// ServiceConfig; replay_trace keeps it on the stack).
  explicit TraceCursor(const Trace* trace, bool wrap = true);

  /// Applies up to `max_ops` operations; returns the number applied
  /// (short only when wrapping is off and the stream ends).
  std::size_t apply(Runtime& rt, std::size_t max_ops);

  bool done() const noexcept {
    return !wrap_ && pos_ >= trace_->ops.size();
  }
  std::uint64_t wraps() const noexcept { return wraps_; }
  std::uint64_t read_mismatches() const noexcept { return read_mismatches_; }
  std::uint64_t explicit_collects() const noexcept {
    return explicit_collects_;
  }

  /// Number of ids currently holding at least one live root.
  std::uint64_t live_ids() const noexcept;

  /// Canonical digest of the live-rooted graph: per id in id order —
  /// shape, heap data words, and link topology (trace ids, not
  /// addresses). Identical across collectors iff they all preserved the
  /// replayed workload's observable state.
  std::uint64_t live_graph_digest(Runtime& rt) const;

 private:
  void apply_one(Runtime& rt, const TraceOp& op);
  void wrap_around(Runtime& rt);

  const Trace* trace_;
  bool wrap_;
  std::size_t pos_ = 0;
  std::uint64_t wraps_ = 0;
  std::uint64_t read_mismatches_ = 0;
  std::uint64_t explicit_collects_ = 0;
  std::vector<std::vector<Runtime::Ref>> refs_;       ///< per id, creation order
  std::vector<std::vector<std::uint64_t>> children_;  ///< link-stream mirror
};

struct ReplayConfig {
  CollectorId collector = CollectorId::kCoprocessor;
  /// Worker threads for the threaded software baselines.
  std::uint32_t threads = 4;
  /// Overrides the header's schedule seed (simulators: step order + memory
  /// jitter; baselines: torture stream). ~0 keeps the header's seed.
  std::uint64_t schedule_seed = ~std::uint64_t{0};
  /// Overrides the header's semispace size (0 keeps it).
  Word semispace_words = 0;
  /// Run the conformance post-structure oracle around every cycle.
  bool oracle = true;
  /// Re-record the replay through a fresh TraceRecorder (round-trip
  /// identity proof); the result lands in ReplayResult::rerecorded.
  bool rerecord = false;
  /// Sampled by every coprocessor-path collection when non-null (the
  /// SignalTrace bit-identity proof). Ignored for harness collectors.
  SignalTrace* signal_trace = nullptr;
};

struct ReplayResult {
  bool ok = true;
  std::vector<std::string> findings;
  std::uint64_t ops_applied = 0;
  std::uint64_t collections = 0;         ///< total cycles (incl. implicit)
  std::uint64_t explicit_collects = 0;
  std::uint64_t read_mismatches = 0;
  std::uint64_t live_ids = 0;
  std::uint64_t live_graph_digest = 0;
  std::vector<GcCycleStats> gc_history;
  Trace rerecorded;  ///< filled when ReplayConfig::rerecord

  std::string summary() const;
};

/// Replays a whole trace against a fresh Runtime built from the trace
/// header's harness_config() (semispace, cores, FIFO, schedule, jitter,
/// collector features), with ReplayConfig's seed override applied to the
/// coprocessor and the plugin alike. The trace must have
/// come through load_trace/check_trace — replay assumes structural
/// validity.
ReplayResult replay_trace(const Trace& trace, const ReplayConfig& cfg = {});

}  // namespace hwgc
