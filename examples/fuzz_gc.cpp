// fuzz_gc — schedule-exploration fuzzing driver.
//
// Runs fuzzed (graph × schedule × core-count) configurations through the
// conformance oracle (FuzzCase, src/conformance/conformance.hpp): every
// case is collected by the coprocessor simulator under a pluggable
// step-order policy and cross-checked against the sequential Cheney
// reference.
//
// Modes:
//   fuzz_gc --seed 7 --count 100        # 100 cases derived from seeds 7..106
//   fuzz_gc --seed 7 --count 1 -v       # one case, full stats digest
//   fuzz_gc --graph-seed 9 --schedule adversarial --cores 3 ...
//                                       # replay an explicit (minimized) case
//
// Every run is deterministic: the same flags reproduce the same collection
// bit-for-bit. On failure the driver minimizes the reproducer (greedy
// shrinking while the oracle still fails), prints the failing schedule
// tail and exits nonzero.
#include <cstdint>
#include <iostream>
#include <string>

#include "cli/flags.hpp"
#include "conformance/conformance.hpp"
#include "core/schedule_policy.hpp"
#include "trace/corpus.hpp"

namespace {

struct Options {
  std::uint64_t seed = 1;
  std::uint32_t count = 25;
  bool minimize = true;
  bool verbose = false;
  bool explicit_case = false;
  std::string emit_trace;
  hwgc::FuzzCase fc;
};

void parse_args(int argc, char** argv, Options& opt) {
  hwgc::FuzzCase& fc = opt.fc;
  hwgc::HarnessConfig& h = fc.harness;
  using Policy = hwgc::SchedulePolicyKind;
  hwgc::cli::Parser p("fuzz_gc", "[options]");
  p.value("--seed N", opt.seed, "master seed; the whole case derives from it")
      .value("--count N", opt.count,
             "cases to run (seeds N..N+count-1, default 25)")
      .flag("--no-minimize", opt.minimize,
            "skip reproducer minimization on failure", false)
      .value("--emit-trace FILE", opt.emit_trace,
             "write the (minimized) reproducer of the first failing\n"
             "case as an hwgc-trace-v1 file; with no failure, the\n"
             "last case's trace (always a replayable artifact)")
      .flag("-v, --verbose", opt.verbose,
            "print a stats digest for passing cases too");
  p.section("explicit-case flags (replay a minimized reproducer; disable "
            "derivation):",
            &opt.explicit_case)
      .value("--graph-seed N", fc.graph_seed, "object-graph seed")
      .value("--schedule NAME", h.schedule,
             "fixed|rotating|random|adversarial",
             hwgc::cli::one_of(
                 std::vector<Policy>{Policy::kFixedPriority, Policy::kRotating,
                                     Policy::kRandom, Policy::kAdversarial},
                 [](Policy k) { return hwgc::to_string(k); }))
      .value("--schedule-seed N", h.schedule_seed, "schedule policy seed")
      .value("--cores N", h.threads,
             "coprocessor cores (0 forces a failing case)",
             hwgc::cli::cores(0))
      .value("--fifo N", h.header_fifo_capacity, "header FIFO capacity",
             hwgc::cli::range<std::uint32_t>(0, hwgc::kMaxHeaderFifoCapacity))
      .value("--jitter N", h.latency_jitter, "memory latency jitter",
             hwgc::cli::range<hwgc::Cycle>(0, hwgc::kMaxLatencyJitter))
      .flag("--subobject", h.subobject_copy, "sub-object copying")
      .flag("--earlyread", h.markbit_early_read, "mark-bit early read")
      .value("--min-nodes N", fc.graph.min_nodes, "graph size floor")
      .value("--max-nodes N", fc.graph.max_nodes, "graph size cap")
      .value("--max-pi N", fc.graph.max_pi, "max pointer fields")
      .value("--max-delta N", fc.graph.max_delta, "max data words")
      .value("--edge-prob X", fc.graph.edge_probability, "edge probability")
      .value("--garbage X", fc.graph.garbage_fraction, "garbage fraction")
      .value("--huge-frac X", fc.graph.huge_fraction, "huge-object fraction")
      .value("--huge-delta N", fc.graph.huge_delta, "huge-object data words")
      .value("--hubs N", fc.graph.hubs, "hub objects")
      .value("--mutation X", fc.graph.mutation_fraction, "mutation fraction")
      .value("--max-roots N", fc.graph.max_roots, "max roots");
  p.section("fault-injection flags (route the case through recovery; see "
            "fault_lab\nfor whole sweeps):",
            &opt.explicit_case)
      .value("--fault-events N", h.fault.events,
             "inject N seeded fault events (0 = off)")
      .value("--fault-seed N", h.fault.seed, "fault plan seed")
      .value("--fault-mask M", h.fault.class_mask,
             "bitmask of fault classes (bit i = class i)")
      .value("--fault-persistent X", h.fault.persistent_fraction,
             "fraction of events that are hard faults")
      .value("--fault-scale N", h.fault.trigger_scale,
             "trigger-point scale (cycles / transaction counts)");
  p.parse(argc, argv);
}

/// Runs one case; on failure prints the verdict, minimizes and prints the
/// replay flags. Returns true when the oracle passed; `repro` (when
/// non-null) receives the minimized reproducer on failure.
bool run_one(const hwgc::FuzzCase& fc, const std::string& label,
             const Options& opt, hwgc::FuzzCase* repro = nullptr) {
  const hwgc::ConformanceVerdict v = hwgc::run_fuzz_case(fc);
  if (v.ok) {
    if (opt.verbose) {
      const hwgc::GcCycleStats& s = *v.report.coproc;
      std::cout << label << " ok: live=" << v.live_objects
                << " cycles=" << s.total_cycles << " words=" << s.words_copied
                << " mem=" << s.mem_requests << " fifo_miss=" << s.fifo_misses
                << "  [" << fc.summary() << "]\n";
      if (v.report.recovery) {
        std::cout << "  recovery: " << v.report.recovery->summary() << "\n";
      }
    }
    return true;
  }
  std::cout << label << " FAILED\n" << v.summary() << "\n";
  std::cout << "repro: fuzz_gc " << fc.summary() << "\n";
  if (repro != nullptr) *repro = fc;
  if (opt.minimize) {
    const hwgc::FuzzCase small = hwgc::minimize_case(fc);
    std::cout << "minimized: fuzz_gc " << small.summary() << "\n";
    const hwgc::ConformanceVerdict mv = hwgc::run_fuzz_case(small);
    if (!mv.ok) std::cout << mv.summary() << "\n";
    if (repro != nullptr) *repro = small;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  parse_args(argc, argv, opt);

  std::uint32_t failures = 0;
  // The case whose trace --emit-trace writes: the (minimized) reproducer of
  // the first failure, or the last case run when everything passed.
  hwgc::FuzzCase emit_fc;
  bool emit_is_failure = false;
  if (opt.explicit_case) {
    emit_fc = opt.fc;
    if (!run_one(opt.fc, "case[explicit]", opt, &emit_fc)) {
      ++failures;
      emit_is_failure = true;
    }
  } else {
    for (std::uint32_t k = 0; k < opt.count; ++k) {
      const std::uint64_t master = opt.seed + k;
      const hwgc::FuzzCase fc = hwgc::case_from_seed(master);
      hwgc::FuzzCase repro;
      if (!run_one(fc, "case[seed=" + std::to_string(master) + "]", opt,
                   &repro)) {
        ++failures;
        if (!emit_is_failure) {
          emit_fc = repro;
          emit_is_failure = true;
        }
      } else if (!emit_is_failure) {
        emit_fc = fc;
      }
    }
  }
  if (!opt.emit_trace.empty()) {
    // The fault config is not carried into the trace (replay runs a
    // pluggable collector, not the recovery ladder); everything else —
    // graph, schedule, cores, FIFO, jitter, feature knobs — is.
    const hwgc::Trace trace = hwgc::trace_from_fuzz_case(emit_fc);
    hwgc::save_trace(opt.emit_trace, trace);
    std::cout << "emitted " << (emit_is_failure ? "reproducer" : "last-case")
              << " trace: " << opt.emit_trace << " (" << trace.ops.size()
              << " events, digest 0x" << std::hex << trace.digest()
              << std::dec << ")\n";
  }
  if (failures == 0) {
    std::cout << "fuzz_gc: all "
              << (opt.explicit_case ? 1u : opt.count)
              << " case(s) passed the differential oracle\n";
    return 0;
  }
  std::cout << "fuzz_gc: " << failures << " case(s) FAILED\n";
  return 1;
}
