// torture_gc — cross-collector concurrency torture driver.
//
// Sweeps every collector over a shared seeded random-graph corpus and a
// thread-count ladder (including heavy oversubscription), with the
// TortureAgitator injecting barrier-synchronized starts, seeded start
// stagger and yield chaos into the threaded baselines, and seeded mutator
// programs interleaving with the concurrent cycle. Every configuration
// runs through the full conformance oracle (src/conformance/): forwarding
// bijectivity, liveness, density/fragmentation accounting, evacuation
// counters, cross-comparison against the sequential reference, and
// idempotent re-collection.
//
//   torture_gc                           # full matrix, all collectors
//   torture_gc --quick                   # CI preset: small matrix
//   torture_gc --collectors stealing,naive --threads 2,16 --seeds 8
//   torture_gc --collectors chunked --seed-base 42 --threads 16 --seeds 1 -v
//   torture_gc --repro-file repro.txt    # write failing configs for CI
//
// Every run is deterministic per configuration at one thread and
// structurally verified at any width; the exit status is the number of
// failing configurations (capped at 125).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "conformance/conformance.hpp"
#include "conformance/harness.hpp"
#include "workloads/random_graph.hpp"

namespace {

using namespace hwgc;

struct Options {
  std::vector<CollectorId> collectors = all_collectors();
  std::uint32_t seeds = 4;
  std::uint64_t seed_base = 1;
  std::vector<std::uint32_t> threads = {1, 2, 4, 8, 16};
  std::uint32_t nodes = 96;
  std::uint64_t torture_seed = 0;  // 0 = derive per case
  bool torture = true;
  bool idempotence = true;
  bool cross = true;
  bool verbose = false;
  std::string repro_file;
};

void parse_args(int argc, char** argv, Options& opt) {
  cli::Parser p("torture_gc", "[options]");
  p.option("--collectors LIST",
           "comma-separated collector names or 'all'\n"
           "(coprocessor, sequential, naive, chunked,\n"
           " packets, stealing, concurrent)",
           [&opt](const std::string& what, const std::string& token) {
             if (token != "all") {
               return cli::parse_list<CollectorId>(
                   what, token, opt.collectors,
                   cli::one_of(all_collectors(),
                               [](CollectorId id) { return to_string(id); }));
             }
             opt.collectors = all_collectors();
             return std::string();
           })
      .value("--seeds N", opt.seeds,
             "graph seeds per (collector, threads) cell (default 4)",
             cli::range<std::uint32_t>(1, UINT32_MAX))
      .value("--seed-base N", opt.seed_base, "first graph seed (default 1)")
      .list("--threads LIST", opt.threads,
            "comma-separated thread/core counts\n"
            "(default 1,2,4,8,16 — 16 oversubscribes)")
      .value("--nodes N", opt.nodes, "graph size in objects (default 96)")
      .value("--torture-seed N", opt.torture_seed,
             "agitator seed base (default derived per case)")
      .flag("--no-torture", opt.torture, "disable schedule perturbation",
            false)
      .flag("--no-idempotence", opt.idempotence,
            "skip the re-collection pass", false)
      .flag("--no-cross", opt.cross,
            "skip cross-comparison vs the sequential reference", false)
      .flag("--quick",
            [&opt] {
              opt.seeds = 2;
              opt.threads = {2, 8};
              opt.nodes = 64;
            },
            "CI preset: 2 seeds, threads 2,8, 64-node graphs")
      .value("--repro-file PATH", opt.repro_file,
             "append one reproducer line per failing config")
      .flag("-v, --verbose", opt.verbose,
            "print every configuration, not just failures");
  p.parse(argc, argv);
}

std::string repro_line(const Options& opt, CollectorId id, std::uint64_t seed,
                       std::uint32_t threads) {
  std::ostringstream os;
  os << "torture_gc --collectors " << to_string(id) << " --seed-base " << seed
     << " --seeds 1 --threads " << threads << " --nodes " << opt.nodes;
  if (!opt.torture) os << " --no-torture";
  if (opt.torture_seed != 0) os << " --torture-seed " << opt.torture_seed;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  parse_args(argc, argv, opt);

  std::uint64_t cases = 0, failures = 0;
  std::ofstream repro;
  if (!opt.repro_file.empty()) {
    repro.open(opt.repro_file, std::ios::app);
    if (!repro) {
      std::cerr << "cannot open repro file " << opt.repro_file << "\n";
      return 2;
    }
  }

  for (CollectorId id : opt.collectors) {
    const CollectorTraits traits = traits_of(id);
    // Single-threaded collectors do not vary with the thread ladder
    // (cores for the simulators still do): skip redundant widths for the
    // sequential reference only.
    std::vector<std::uint32_t> widths = opt.threads;
    if (id == CollectorId::kSequential) widths = {1};

    for (std::uint32_t threads : widths) {
      for (std::uint32_t k = 0; k < opt.seeds; ++k) {
        const std::uint64_t seed = opt.seed_base + k;
        RandomGraphConfig g;
        g.nodes = opt.nodes;
        ConformanceCase c;
        c.plan = make_random_plan(seed, g);
        c.harness.threads = threads;
        c.harness.schedule_seed = seed ^ (threads * 0x9e3779b9ULL);
        c.harness.mutator_seed = seed * 31 + threads;
        c.harness.mutator_op_spacing = 1;
        c.check_idempotence = opt.idempotence;
        c.cross_compare = opt.cross;
        if (opt.torture && traits.threaded) {
          c.harness.torture.seed = opt.torture_seed != 0
                                       ? opt.torture_seed
                                       : seed * 2654435761ULL + threads;
          c.harness.torture.yield_period = 3;
        }

        ++cases;
        const ConformanceVerdict v = run_conformance_case(id, c);
        if (!v.ok) {
          ++failures;
          std::cerr << "FAIL " << to_string(id) << " seed=" << seed
                    << " threads=" << threads << "\n  " << v.summary()
                    << "\n  repro: " << repro_line(opt, id, seed, threads)
                    << "\n";
          if (repro) repro << repro_line(opt, id, seed, threads) << "\n";
        } else if (opt.verbose) {
          std::cout << "ok   " << to_string(id) << " seed=" << seed
                    << " threads=" << threads << " live=" << v.live_objects
                    << " copied=" << v.report.objects_copied
                    << " wasted=" << v.report.wasted_words
                    << " sync=" << v.report.sync_ops << "\n";
        }
      }
    }
  }

  std::cout << "torture_gc: " << (cases - failures) << "/" << cases
            << " configurations passed\n";
  if (failures != 0) {
    std::cerr << "torture_gc: " << failures << " FAILING configuration(s)\n";
  }
  return failures > 125 ? 125 : static_cast<int>(failures);
}
