// fault_lab — hardware fault-injection sweep driver.
//
// Sweeps the fault matrix (fault class × event rate × core count × seeds)
// through the conformance oracle: every run injects a seeded fault plan,
// collects through the detection-and-recovery machinery and cross-checks
// the result against the sequential Cheney reference. Per run the outcome
// is classified as
//   masked        collection succeeded on the first attempt,
//   retried       recovered by abort-and-retry on the same cores,
//   deconfigured  recovered after dropping at least one suspect core,
//   fallback      recovered by the sequential software collector,
//   FAILED        oracle rejected the run — silent corruption or an
//                 unrecoverable collection; the driver exits nonzero.
//
// The sweep recipe from EXPERIMENTS.md:
//   fault_lab                         # default matrix, ~1 minute
//   fault_lab --classes mem-corrupt --cores 8 --events 4 --seeds 10 -v
//   fault_lab --graph-seed 3 --max-nodes 64   # smaller, faster graphs
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "fuzz/oracle.hpp"
#include "telemetry/trace_export.hpp"

namespace {

struct Options {
  std::vector<hwgc::FaultKind> classes;
  std::vector<std::uint32_t> cores{2, 4, 8};
  std::vector<std::uint32_t> events{1, 4};
  std::uint32_t seeds = 3;
  std::uint64_t base_seed = 1;
  std::uint64_t graph_seed = 42;
  std::uint32_t max_nodes = 96;
  std::uint32_t fault_scale = 48;
  std::string trace_json;
  bool verbose = false;
};

void parse_args(int argc, char** argv, Options& opt) {
  std::vector<hwgc::FaultKind> kinds;
  for (std::size_t k = 0; k < hwgc::kFaultKindCount; ++k) {
    kinds.push_back(static_cast<hwgc::FaultKind>(k));
  }
  opt.classes = kinds;
  hwgc::cli::Parser p("fault_lab", "[options]");
  p.list("--classes a,b,..", opt.classes,
         "fault classes to sweep (default: all); names:\n"
         "mem-drop mem-dup mem-delay mem-corrupt lock-delay\n"
         "stuck-busy core-stall core-failstop",
         hwgc::cli::one_of(kinds, [](hwgc::FaultKind k) {
           return hwgc::to_string(k);
         }))
      .list("--cores a,b,..", opt.cores, "core counts to sweep (default 2,4,8)",
            hwgc::cli::cores())
      .list("--events a,b,..", opt.events,
            "events per run, the fault rate axis (default 1,4)")
      .value("--seeds N", opt.seeds, "seeds per matrix cell (default 3)")
      .value("--base-seed N", opt.base_seed,
             "first fault/schedule seed (default 1)")
      .value("--graph-seed N", opt.graph_seed,
             "first object-graph seed (default 42; +1 per seed)")
      .value("--max-nodes N", opt.max_nodes,
             "object-graph size cap (default 96)")
      .value("--fault-scale N", opt.fault_scale,
             "trigger-point scale (default 48; small keeps the\n"
             "trigger points inside these short collections)")
      .value("--trace-json PATH", opt.trace_json,
             "re-run the most interesting case (first one that\n"
             "needed recovery, else first that fired a fault) with\n"
             "telemetry and export its timeline (every attempt,\n"
             "injected fault, abort and recovery action) as\n"
             "Chrome-trace JSON")
      .flag("-v, --verbose", opt.verbose,
            "print every run, not just the matrix");
  p.parse(argc, argv);
}

struct Tally {
  std::uint64_t runs = 0;
  std::uint64_t masked = 0;
  std::uint64_t retried = 0;
  std::uint64_t deconfigured = 0;
  std::uint64_t fallback = 0;
  std::uint64_t failed = 0;
  std::uint64_t injected = 0;
  std::uint64_t fired = 0;
};

const char* classify(bool ok, const hwgc::RecoveryReport& r) {
  if (!ok) return "FAILED";
  if (r.used_sequential_fallback) return "fallback";
  if (!r.deconfigured.empty()) return "deconfigured";
  if (r.attempts.size() > 1) return "retried";
  return "masked";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  parse_args(argc, argv, opt);

  // The schedule policies rotate with the seed index so every matrix cell
  // also explores different core interleavings.
  static constexpr hwgc::SchedulePolicyKind kSchedules[] = {
      hwgc::SchedulePolicyKind::kFixedPriority,
      hwgc::SchedulePolicyKind::kRotating,
      hwgc::SchedulePolicyKind::kRandom,
      hwgc::SchedulePolicyKind::kAdversarial,
  };

  std::vector<Tally> per_class(hwgc::kFaultKindCount);
  Tally total;
  bool any_failed = false;

  // The case re-run for --trace-json: prefer the first run that actually
  // exercised recovery, then the first whose faults at least fired, then
  // the first run at all. Runs are seeded, so the re-run is exact.
  hwgc::FuzzCase interesting{};
  std::string interesting_outcome;
  int interesting_rank = -1;

  for (const hwgc::FaultKind kind : opt.classes) {
    Tally& t = per_class[static_cast<std::size_t>(kind)];
    for (const std::uint32_t cores : opt.cores) {
      for (const std::uint32_t events : opt.events) {
        for (std::uint32_t s = 0; s < opt.seeds; ++s) {
          hwgc::FuzzCase fc;
          fc.graph_seed = opt.graph_seed + s;
          fc.graph.max_nodes = opt.max_nodes;
          // A floor of half the cap keeps the collection long enough that
          // trigger points drawn from [0, fault_scale) actually land in it.
          fc.graph.min_nodes = std::max(opt.max_nodes / 2, 1u);
          hwgc::HarnessConfig& h = fc.harness;
          h.threads = cores;
          h.schedule = kSchedules[s % 4];
          h.schedule_seed = opt.base_seed + s;
          h.fault.seed = opt.base_seed + s;
          h.fault.events = events;
          h.fault.trigger_scale = opt.fault_scale;
          h.fault.class_mask = 1u << static_cast<std::uint32_t>(kind);
          const hwgc::ConformanceVerdict v = hwgc::run_fuzz_case(fc);
          const hwgc::RecoveryReport rec =
              v.report.recovery.value_or(hwgc::RecoveryReport{});

          ++t.runs;
          t.injected += rec.faults_injected;
          t.fired += rec.faults_fired;
          const std::string outcome = classify(v.ok, rec);
          const int rank = outcome != "masked"   ? 2
                           : rec.faults_fired > 0 ? 1
                                                  : 0;
          if (rank > interesting_rank) {
            interesting = fc;
            interesting_outcome = outcome;
            interesting_rank = rank;
          }
          if (outcome == "FAILED") {
            ++t.failed;
            any_failed = true;
            std::cout << "FAILED: " << to_string(kind) << " cores=" << cores
                      << " events=" << events << " seed=" << h.fault.seed
                      << "\n"
                      << v.summary() << "\nrepro: fuzz_gc " << fc.summary()
                      << "\n";
          } else if (outcome == "fallback") {
            ++t.fallback;
          } else if (outcome == "deconfigured") {
            ++t.deconfigured;
          } else if (outcome == "retried") {
            ++t.retried;
          } else {
            ++t.masked;
          }
          if (opt.verbose) {
            std::cout << to_string(kind) << " cores=" << cores
                      << " events=" << events << " seed=" << h.fault.seed
                      << ": " << outcome << " (" << rec.attempts.size()
                      << " attempt(s), " << rec.faults_fired << " fired)\n";
          }
        }
      }
    }
  }

  std::cout << "\nfault class      runs  masked retried deconf fallbk FAILED"
               "  injected fired\n";
  for (std::size_t k = 0; k < hwgc::kFaultKindCount; ++k) {
    const Tally& t = per_class[k];
    if (t.runs == 0) continue;
    std::cout << std::left << std::setw(16)
              << to_string(static_cast<hwgc::FaultKind>(k)) << std::right
              << std::setw(6) << t.runs << std::setw(8) << t.masked
              << std::setw(8) << t.retried << std::setw(7) << t.deconfigured
              << std::setw(7) << t.fallback << std::setw(7) << t.failed
              << std::setw(10) << t.injected << std::setw(6) << t.fired
              << "\n";
    total.runs += t.runs;
    total.masked += t.masked;
    total.retried += t.retried;
    total.deconfigured += t.deconfigured;
    total.fallback += t.fallback;
    total.failed += t.failed;
    total.injected += t.injected;
    total.fired += t.fired;
  }
  std::cout << std::left << std::setw(16) << "TOTAL" << std::right
            << std::setw(6) << total.runs << std::setw(8) << total.masked
            << std::setw(8) << total.retried << std::setw(7)
            << total.deconfigured << std::setw(7) << total.fallback
            << std::setw(7) << total.failed << std::setw(10) << total.injected
            << std::setw(6) << total.fired << "\n";

  if (!opt.trace_json.empty() && interesting_rank >= 0) {
    // The timeline re-run drives the recovery ladder directly: telemetry
    // is an observer of the simulator, not part of the oracle's contract.
    hwgc::TelemetryBus bus;
    hwgc::Workload w = hwgc::materialize(
        hwgc::make_fuzz_plan(interesting.graph_seed, interesting.graph));
    const hwgc::RecoveryReport rec =
        hwgc::RecoveringCollector(hwgc::sim_config_from(interesting.harness),
                                  *w.heap)
            .collect(nullptr, &bus);
    if (!hwgc::write_chrome_trace(bus, opt.trace_json)) {
      std::cerr << "error: failed to write " << opt.trace_json << "\n";
      return 1;
    }
    std::cout << "\nre-ran '" << interesting_outcome << "' case ("
              << interesting.summary() << ") with telemetry: "
              << rec.attempts.size() << " attempt(s), " << rec.faults_fired
              << " fault(s) fired\n"
              << "wrote recovery timeline (" << bus.spans().size()
              << " spans, " << bus.instants().size() << " instants) to "
              << opt.trace_json << "\n";
  }

  if (any_failed) {
    std::cout << "fault_lab: FAILURES detected — silent corruption or "
                 "unrecoverable collection\n";
    return 1;
  }
  std::cout << "fault_lab: all " << total.runs
            << " fault-injected run(s) recovered or masked; no silent "
               "corruption\n";
  return 0;
}
