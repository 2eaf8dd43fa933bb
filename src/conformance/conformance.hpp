// Property-based conformance oracle, shared by every collector.
//
// The one oracle of the repository: the conformance matrix, the torture
// driver, the schedule fuzzer (src/fuzz/oracle.hpp) and the fault matrix
// all run their cases through run_conformance_case, and every Runtime
// collection in heapd and trace replay goes through the one per-cycle
// oracle, CycleOracle (harness.hpp), which applies check_post_structure to
// the cycle's report — a recovered cycle's RecoveryReport included. One
// case = one graph plan + one harness configuration; the oracle
// materializes the plan, runs the collector behind its CollectorHarness,
// and checks the properties the collector's traits promise:
//
//   * forwarding-map bijectivity — total over the pre-live set and
//     injective (image-preserving collectors), injective over the
//     evacuated subset (concurrent, whose mutator may disconnect objects
//     mid-cycle so totality is not guaranteed by design);
//   * liveness preservation — verify_collection's graph isomorphism walk;
//   * dense tospace packing where the collector promises it, fragmentation
//     accounting (words_copied + wasted_words == consumed extent) where it
//     does not (chunk/LAB collectors);
//   * single-evacuation counters — the collector's own evacuation count
//     equals the pre-live object count (injectivity rules out doubles, the
//     counter rules out phantom or lost evacuations);
//   * cross-collector image equivalence against the sequential Cheney
//     reference run over the same plan;
//   * idempotence of immediate re-collection — a second cycle over the
//     freshly collected heap must preserve the graph again and copy
//     exactly the same live set;
//   * fault accounting for fault-injected coprocessor runs — the recovery
//     ladder succeeded, and every planned, fired and logged fault event is
//     accounted for (an injected fault is masked or recovered, never
//     silently corrupting).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "conformance/harness.hpp"
#include "heap/verifier.hpp"
#include "workloads/graph_plan.hpp"

namespace hwgc {

struct ConformanceCase {
  GraphPlan plan;
  HarnessConfig harness{};
  /// Re-collect the collected heap and re-verify (skipped for the
  /// concurrent collector, where the second cycle goes through the
  /// sequential reference instead — its mutator would change the graph).
  bool check_idempotence = true;
  /// Compare the tospace image against a sequential Cheney run over the
  /// same plan (image-preserving collectors only).
  bool cross_compare = true;
  /// Extra heap headroom multiplier on top of the computed factor — the
  /// torture driver raises it for heavy oversubscription sweeps.
  double extra_heap_factor = 1.0;
};

struct ConformanceVerdict {
  bool ok = true;
  std::vector<std::string> errors;
  std::size_t live_objects = 0;
  std::uint64_t live_words = 0;
  CycleReport report;

  void fail(std::string msg) {
    ok = false;
    if (errors.size() < 64) errors.push_back(std::move(msg));
  }
  std::string summary() const;
};

/// Heap sizing for a case: the paper's 2x rule of thumb, widened for
/// chunk/LAB collectors under heavy thread counts so per-thread allocation
/// slack cannot exhaust tospace on small graphs.
double conformance_heap_factor(CollectorId id, const ConformanceCase& c);

/// Structural post-state checks on an already-collected heap: recovery
/// outcome and fault accounting (when report.recovery is set), liveness
/// (verify_collection), forwarding bijectivity, density or fragmentation
/// accounting, and counter consistency — everything that can be judged
/// from (pre snapshot, post heap, report). Shared by run_conformance_case
/// and the negative tests, which seed deliberate corruptions into the post
/// heap and expect these checks to name them specifically. Returns the
/// forwarding table every check read, for further checks over the same
/// heap; empty when the recovery ladder failed and nothing was collected.
std::optional<ForwardingTable> check_post_structure(
    CollectorId id, const HeapSnapshot& pre, const Heap& post,
    const CycleReport& report, std::vector<std::string>& errors);

/// Equivalence of two collectors' tospace images modulo copy order: each
/// pre-live object's two copies must agree in shape, data words and the
/// pre-cycle child each pointer field denotes (through each heap's own
/// table). Objects pair up by slot, so both snapshots must list the same
/// addresses in the same order, else the one diagnostic is
/// "materialization diverged between the two heaps". `a_name`/`b_name`
/// label the collectors. Call only with total, injective tables.
void cross_compare_images(const char* a_name, const char* b_name,
                          const HeapSnapshot& pre_a, const Heap& a,
                          const ForwardingTable& fwd_a,
                          const HeapSnapshot& pre_b, const Heap& b,
                          const ForwardingTable& fwd_b,
                          std::vector<std::string>& errors);

/// Runs one full conformance case for `id`.
ConformanceVerdict run_conformance_case(CollectorId id,
                                        const ConformanceCase& c);

}  // namespace hwgc
