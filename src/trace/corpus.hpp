// The committed trace corpus (traces/): every canonical workload of the
// repository, recorded once as hwgc-trace-v1 and regenerable bit-for-bit.
//
// Four generator families feed it:
//   * the eight benchmark shapes of the paper (workloads/benchmarks.hpp),
//     recorded at a small scale — shape, not magnitude, is what the replay
//     matrix exercises;
//   * adversarial graphs from the schedule fuzzer's generator (cycles,
//     hubs, huge objects, mid-build mutation), with the fuzz case's
//     hardware knobs carried into the trace header;
//   * shadow-mutator churn (allocate/link/unlink/release across many
//     collection cycles, with digest-verified read probes);
//   * a Lisp interpreter session (the jlisp stand-in running real
//     programs against the Runtime façade).
//
// Every generator is deterministic: regenerating the corpus from the same
// repository state yields byte-identical files — which `tracectl corpus`
// does and the corpus regeneration test proves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "conformance/conformance.hpp"
#include "trace/trace_format.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/graph_plan.hpp"

namespace hwgc {

/// Records a trace that builds the plan's graph through a fresh Runtime:
/// allocate every node (data words seeded deterministically), wire every
/// edge, drop the build roots of everything the plan does not root, then
/// probe, collect, reload and re-probe so the replay exercises reads and
/// explicit cycles over both live and garbage populations. The header's
/// semispace is sized so the fully-rooted build phase cannot exhaust the
/// heap, but explicit collections still run with real garbage to reclaim.
Trace trace_from_plan(const GraphPlan& plan, TraceHeader header);

/// One of the paper's eight benchmark shapes, default corpus scale.
Trace trace_from_benchmark(BenchmarkId id, double scale = 0.002,
                           std::uint64_t seed = 42);

/// Adversarial graph + hardware knobs from a fuzzer master seed
/// (case_from_seed): the graph is hostile by construction and the case's
/// schedule/FIFO/jitter/feature knobs land in the trace header.
Trace trace_from_fuzz_case(const FuzzCase& fc);
Trace trace_from_fuzz_seed(std::uint64_t master_seed);

/// Shadow-mutator churn: `steps` mutation steps with periodic read probes
/// and explicit collections interleaved.
Trace trace_from_churn(std::uint64_t seed, std::size_t steps = 600);

/// A recorded Lisp session (fib + range/sum, scaled down from the demo).
Trace trace_from_lisp(unsigned fib_n = 8, unsigned range_n = 16);

/// The full canonical corpus, in committed order: 8 benchmarks, 3
/// adversarial fuzz graphs, 1 churn, 1 lisp.
std::vector<Trace> build_corpus();

/// Writes the corpus to `<dir>/<name>.jsonl` (or `.bin` for bulky traces);
/// returns the number of files written. Byte-identical on every run
/// (determinism of the generators + canonical serialization).
std::size_t write_corpus(const std::string& dir);

}  // namespace hwgc
