// Snapshot-at-the-beginning (SATB) copying collector — the eighth
// collector, and the only one that runs while real mutator threads keep
// allocating and mutating the heap (ROADMAP item 1). It exists to exercise
// the oracle under real races: the conformance matrix, torture_gc
// --concurrent-mutator and trace replay run it. Its cycles run on host
// threads, not on the coprocessor clock, so it reports no simulated cycle
// counts.
//
// Design (DESIGN.md §17). Every pointer slot is a double slot: the live
// half is the heap word, the snapshot half lives in a SnapshotSpace
// mirror. The cycle is two short safe-point pauses around a long
// concurrent phase:
//
//   pause 1 (snapshot) : all mutators park; the collector captures the
//     root set and freezes the snapshot half. Mutators resume in
//     kSnapshot phase: stores hit the live half only and append a raw
//     (object, offset) record to a per-thread reconciliation log.
//   concurrent phase   : worker threads evacuate the snapshot-reachable
//     closure into tospace with the familiar scan/free pointer pair (the
//     software analogue of the paper's hardware worklist) and the
//     sentinel-CAS forwarding protocol from the software baselines.
//     Pointer fields are read from the *frozen snapshot half*, so the
//     trace is immune to racing mutator stores. Mutators meanwhile keep
//     bump-allocating fromspace (Heap::allocate_shared) — nobody touches
//     tospace but the collector, so no read barrier is needed.
//   pause 2 (reconcile): all mutators park again; the collector drains the
//     logs (re-reading each mutated slot's live half and repairing the
//     evacuated copy), translates the current root values — evacuating
//     any newly allocated objects that became reachable, with a bounded
//     Cheney pass over just those — flips the heap, and publishes the
//     allocation pointer. Mutator threads observe kFinished and unwind
//     their RAII safe-point scopes.
//
// SATB gives the oracle a stronger property than the incremental-update
// concurrent cycle has: every object live at the snapshot is evacuated, so
// the forwarding map is *total* over the pre-cycle live set (see
// check_post_structure's concurrent_mutator branch).
#pragma once

#include <cstdint>

#include "baselines/parallel_common.hpp"
#include "heap/heap.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// Counters for one snapshot cycle. The barrier/reconciliation counters
/// (dual_writes, snapshot_stores, reconciliation_repairs, safe_point_waits)
/// are the ones hwgc-bench-v1 surfaces for this collector family.
struct SnapshotGcStats {
  std::uint64_t objects_copied = 0;
  std::uint64_t words_copied = 0;
  std::uint64_t cas_ops = 0;
  std::uint64_t cas_failures = 0;
  /// Pointer stores that wrote both halves (outside the cycle window).
  std::uint64_t dual_writes = 0;
  /// Stores the barrier diverted to the live half + log during the cycle.
  std::uint64_t snapshot_stores = 0;
  /// Log records replayed onto evacuated copies in the reconcile pause.
  std::uint64_t reconciliation_repairs = 0;
  /// Park events mutator threads served across both pauses.
  std::uint64_t safe_point_waits = 0;
  std::uint64_t mutator_ops = 0;
  std::uint64_t mutator_allocations = 0;
  /// Allocation attempts that found fromspace exhausted and backed off.
  std::uint64_t alloc_backoffs = 0;
  /// Objects evacuated during the reconcile pause (newly reachable).
  std::uint64_t pause_evacuations = 0;
  /// Shadow-graph mismatches found by the mutator validation; must be 0.
  std::size_t validation_mismatches = 0;
  std::uint32_t threads = 0;
  std::uint32_t mutator_threads = 0;
};

class SnapshotCollector {
 public:
  struct Config {
    /// Collector worker threads for the concurrent phase.
    std::uint32_t threads = 4;
    /// Real mutator threads that allocate and mutate during the cycle.
    /// 0 runs the cycle quiescent — deterministic with threads == 1, which
    /// is the trace replayer's mode.
    std::uint32_t mutator_threads = 2;
    /// Root-table slots each mutator owns (its register file). 0 also
    /// means quiescent, mirroring the concurrent cycle's convention.
    std::uint32_t mutator_registers = 16;
    std::uint64_t mutator_seed = 1;
    /// Ops each mutator must complete in kIdle phase before the snapshot
    /// pause opens (exercises the dual-write barrier deterministically).
    std::uint32_t mutator_warmup_ops = 32;
    TortureKnobs torture{};
  };

  explicit SnapshotCollector(const Config& cfg) : cfg_(cfg) {}

  /// Runs one full snapshot cycle: spawns the mutator threads (if
  /// configured), collects, reconciles, flips the heap, redirects every
  /// root slot and publishes the allocation pointer. Throws on tospace
  /// exhaustion. After return the mutator threads have been joined and
  /// their shadow graphs validated (stats.validation_mismatches).
  SnapshotGcStats collect(Heap& heap);

 private:
  Config cfg_;
};

}  // namespace hwgc
