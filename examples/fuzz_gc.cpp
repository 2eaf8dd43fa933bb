// fuzz_gc — schedule-exploration fuzzing driver.
//
// Runs fuzzed (graph × schedule × core-count) configurations through the
// conformance oracle (src/fuzz/oracle.hpp): every case is collected by the
// coprocessor simulator under a pluggable step-order policy and
// cross-checked against the sequential Cheney reference.
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
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/schedule_policy.hpp"
#include "fuzz/oracle.hpp"
#include "trace/corpus.hpp"

namespace {

void usage() {
  std::cout <<
      "usage: fuzz_gc [options]\n"
      "  --seed N           master seed; the whole case derives from it\n"
      "  --count N          number of cases to run (seeds N..N+count-1, default 25)\n"
      "  --no-minimize      skip reproducer minimization on failure\n"
      "  --emit-trace FILE  write the (minimized) reproducer of the first\n"
      "                     failing case as an hwgc-trace-v1 file; with no\n"
      "                     failure, the last case's trace is written so the\n"
      "                     flag always yields a replayable artifact\n"
      "  -v, --verbose      print a stats digest for passing cases too\n"
      "explicit-case flags (replay a minimized reproducer; disable derivation):\n"
      "  --graph-seed N --schedule fixed|rotating|random|adversarial\n"
      "  --schedule-seed N --cores N --fifo N --jitter N --subobject --earlyread\n"
      "  --min-nodes N --max-nodes N --max-pi N --max-delta N --edge-prob X\n"
      "  --garbage X --huge-frac X --huge-delta N --hubs N --mutation X\n"
      "  --max-roots N\n"
      "fault-injection flags (route the case through recovery; see fault_lab\n"
      "for whole sweeps):\n"
      "  --fault-events N    inject N seeded fault events (0 = off)\n"
      "  --fault-seed N      fault plan seed\n"
      "  --fault-mask M      bitmask of fault classes (bit i = class i)\n"
      "  --fault-persistent X  fraction of events that are hard faults\n"
      "  --fault-scale N     trigger-point scale (cycles / transaction counts)\n";
}

struct Options {
  std::uint64_t seed = 1;
  std::uint32_t count = 25;
  bool minimize = true;
  bool verbose = false;
  bool explicit_case = false;
  std::string emit_trace;
  hwgc::FuzzCase fc;
};

bool parse_args(int argc, char** argv, Options& opt) {
  const auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto u64 = [&] { return std::strtoull(next(i), nullptr, 0); };
    const auto f64 = [&] { return std::strtod(next(i), nullptr); };
    if (a == "--seed") {
      opt.seed = u64();
    } else if (a == "--count") {
      opt.count = static_cast<std::uint32_t>(u64());
    } else if (a == "--no-minimize") {
      opt.minimize = false;
    } else if (a == "--emit-trace") {
      opt.emit_trace = next(i);
    } else if (a == "-v" || a == "--verbose") {
      opt.verbose = true;
    } else if (a == "--graph-seed") {
      opt.fc.graph_seed = u64();
      opt.explicit_case = true;
    } else if (a == "--schedule") {
      if (!hwgc::parse_schedule_policy(next(i), opt.fc.harness.schedule)) {
        std::cerr << "unknown schedule policy\n";
        return false;
      }
      opt.explicit_case = true;
    } else if (a == "--schedule-seed") {
      opt.fc.harness.schedule_seed = u64();
      opt.explicit_case = true;
    } else if (a == "--cores") {
      opt.fc.harness.threads = static_cast<std::uint32_t>(u64());
      opt.explicit_case = true;
    } else if (a == "--fifo") {
      opt.fc.harness.header_fifo_capacity = static_cast<std::uint32_t>(u64());
      opt.explicit_case = true;
    } else if (a == "--jitter") {
      opt.fc.harness.latency_jitter = u64();
      opt.explicit_case = true;
    } else if (a == "--subobject") {
      opt.fc.harness.subobject_copy = true;
      opt.explicit_case = true;
    } else if (a == "--earlyread") {
      opt.fc.harness.markbit_early_read = true;
      opt.explicit_case = true;
    } else if (a == "--min-nodes") {
      opt.fc.graph.min_nodes = static_cast<std::uint32_t>(u64());
      opt.explicit_case = true;
    } else if (a == "--max-nodes") {
      opt.fc.graph.max_nodes = static_cast<std::uint32_t>(u64());
      opt.explicit_case = true;
    } else if (a == "--max-pi") {
      opt.fc.graph.max_pi = static_cast<hwgc::Word>(u64());
      opt.explicit_case = true;
    } else if (a == "--max-delta") {
      opt.fc.graph.max_delta = static_cast<hwgc::Word>(u64());
      opt.explicit_case = true;
    } else if (a == "--edge-prob") {
      opt.fc.graph.edge_probability = f64();
      opt.explicit_case = true;
    } else if (a == "--garbage") {
      opt.fc.graph.garbage_fraction = f64();
      opt.explicit_case = true;
    } else if (a == "--huge-frac") {
      opt.fc.graph.huge_fraction = f64();
      opt.explicit_case = true;
    } else if (a == "--huge-delta") {
      opt.fc.graph.huge_delta = static_cast<hwgc::Word>(u64());
      opt.explicit_case = true;
    } else if (a == "--hubs") {
      opt.fc.graph.hubs = static_cast<std::uint32_t>(u64());
      opt.explicit_case = true;
    } else if (a == "--mutation") {
      opt.fc.graph.mutation_fraction = f64();
      opt.explicit_case = true;
    } else if (a == "--max-roots") {
      opt.fc.graph.max_roots = static_cast<std::uint32_t>(u64());
      opt.explicit_case = true;
    } else if (a == "--fault-events") {
      opt.fc.harness.fault.events = static_cast<std::uint32_t>(u64());
      opt.explicit_case = true;
    } else if (a == "--fault-seed") {
      opt.fc.harness.fault.seed = u64();
      opt.explicit_case = true;
    } else if (a == "--fault-mask") {
      opt.fc.harness.fault.class_mask = static_cast<std::uint32_t>(u64());
      opt.explicit_case = true;
    } else if (a == "--fault-persistent") {
      opt.fc.harness.fault.persistent_fraction = f64();
      opt.explicit_case = true;
    } else if (a == "--fault-scale") {
      opt.fc.harness.fault.trigger_scale = static_cast<std::uint32_t>(u64());
      opt.explicit_case = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      std::cerr << "unknown option " << a << "\n";
      return false;
    }
  }
  return true;
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
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }

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
