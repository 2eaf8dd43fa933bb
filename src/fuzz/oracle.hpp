// Schedule-exploration fuzzing on top of the conformance oracle.
//
// A FuzzCase fixes one (graph × schedule × hardware-knob) configuration:
// a seeded hostile graph (fuzz_graph.hpp) plus the coprocessor's harness
// knobs — core count, step-order policy and seed, FIFO capacity, latency
// jitter, collector features and optional fault injection. run_fuzz_case
// runs it through run_conformance_case (conformance/conformance.hpp):
// structure checks, the cross-compare against the sequential Cheney
// reference, and, for fault-free cases, immediate re-collection.
// Everything is deterministic: the same FuzzCase reproduces the same run
// bit-for-bit, which is what makes minimized reproducers possible.
#pragma once

#include <cstdint>
#include <string>

#include "conformance/conformance.hpp"
#include "fuzz/fuzz_graph.hpp"

namespace hwgc {

struct FuzzCase {
  std::uint64_t graph_seed = 1;
  FuzzGraphConfig graph{};
  /// Coprocessor knobs; a fault config that is enabled() routes the case
  /// through the detection-and-recovery ladder.
  HarnessConfig harness{.threads = 8};

  /// Replayable one-line description in `fuzz_gc` flag syntax.
  std::string summary() const;
};

/// Runs one case through the conformance oracle as the coprocessor.
ConformanceVerdict run_fuzz_case(const FuzzCase& fc);

/// Expands a single master seed into a full case: graph seed, schedule
/// policy and seed, core count, FIFO capacity, latency jitter and the
/// optional collector features are all derived from `master_seed` via
/// splitmix64, so `fuzz_gc --seed N` is a complete reproducer.
FuzzCase case_from_seed(std::uint64_t master_seed);

/// Greedy reproducer minimization: repeatedly tries to shrink the graph,
/// drop collector features and reduce the core count while the oracle
/// still fails, spending at most `budget` oracle runs. Returns the
/// smallest still-failing case found (the input itself in the worst case).
FuzzCase minimize_case(const FuzzCase& failing, std::uint32_t budget = 48);

}  // namespace hwgc
