// Contention lab: watch the three synchronization points of Section IV
// under controlled stress, and see how the hardware SB keeps their
// uncontended cost at zero.
//
// The lab builds three purpose-made graphs:
//   1. "hub storm"     — every object points at the same few hubs: the
//                        header-lock CAM becomes the bottleneck (javac's
//                        pathology, isolated);
//   2. "confetti"      — hundreds of thousands of minimal objects: the
//                        1-fetch-per-cycle scan register and the
//                        1-evacuation-per-cycle free register become the
//                        serial floor;
//   3. "boulders"      — a handful of giant arrays: no synchronization at
//                        all, but no object-level parallelism either
//                        (Section VII's motivation for sub-object work
//                        distribution).
// For each it prints the 16-core stall anatomy side by side.
#include <cstdio>
#include <string>

#include "cli/flags.hpp"
#include "core/coprocessor.hpp"
#include "workloads/graph_plan.hpp"

using namespace hwgc;

namespace {

GraphPlan hub_storm() {
  GraphPlan p;
  const std::uint32_t hub_count = 2;
  std::vector<std::uint32_t> hubs;
  const std::uint32_t anchor = p.add(hub_count, 0);
  p.add_root(anchor);
  for (std::uint32_t h = 0; h < hub_count; ++h) {
    hubs.push_back(p.add(0, 4));
    p.link(anchor, h, hubs.back());
  }
  std::vector<std::uint32_t> heads;
  for (std::uint32_t c = 0; c < 64; ++c) {
    std::uint32_t prev = 0;
    for (std::uint32_t i = 0; i < 400; ++i) {
      const std::uint32_t node = p.add(3, 0);  // next + 2 hub refs
      p.link(node, 1, hubs[i % hub_count]);
      p.link(node, 2, hubs[(i + 1) % hub_count]);
      if (i == 0) {
        heads.push_back(node);
      } else {
        p.link(prev, 0, node);
      }
      prev = node;
    }
  }
  const std::uint32_t root = p.add(static_cast<Word>(heads.size()), 0);
  p.add_root(root);
  for (std::uint32_t i = 0; i < heads.size(); ++i) p.link(root, i, heads[i]);
  return p;
}

GraphPlan confetti() {
  GraphPlan p;
  std::vector<std::uint32_t> frontier;
  const std::uint32_t root = p.add(4, 0);
  p.add_root(root);
  frontier.push_back(root);
  std::size_t next = 0;
  for (std::uint32_t made = 1; made < 120'000;) {
    const std::uint32_t parent = frontier[next++];
    for (Word f = 0; f < 4 && made < 120'000; ++f, ++made) {
      const std::uint32_t node = p.add(4, 0);
      p.link(parent, f, node);
      frontier.push_back(node);
    }
  }
  return p;
}

GraphPlan boulders() {
  GraphPlan p;
  const std::uint32_t root = p.add(4, 0);
  p.add_root(root);
  for (Word f = 0; f < 4; ++f) {
    p.link(root, f, p.add(0, 150'000));
  }
  return p;
}

void run(const char* name, const GraphPlan& plan) {
  Workload w = materialize(plan);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 16;
  Coprocessor coproc(cfg, *w.heap);
  const GcCycleStats s = coproc.collect();
  const double total = static_cast<double>(s.total_cycles);

  // A 1-core reference for the speedup column.
  Workload w1 = materialize(plan);
  cfg.coprocessor.num_cores = 1;
  Coprocessor ref(cfg, *w1.heap);
  const double base = static_cast<double>(ref.collect().total_cycles);

  std::printf("%-10s %10llu cycles  speedup %5.2f  empty %6.2f%%", name,
              static_cast<unsigned long long>(s.total_cycles), base / total,
              100.0 * s.worklist_empty_fraction());
  for (const StallReason r :
       {StallReason::kScanLock, StallReason::kFreeLock,
        StallReason::kHeaderLock}) {
    std::printf("  %s %5.2f%%", std::string(to_string(r)).c_str(),
                100.0 * s.mean_stall(r) / total);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  cli::Parser("contention_lab", "(no options)").parse(argc, argv);
  std::printf("contention lab — 16 GC cores, default memory model\n\n");
  run("hub-storm", hub_storm());
  run("confetti", confetti());
  run("boulders", boulders());
  std::printf(
      "\nreadings:\n"
      "  hub-storm : header-lock stalls dominate (the javac pathology)\n"
      "  confetti  : scan/free register serialization is the floor for\n"
      "              minimal objects — yet still only one cycle per op\n"
      "  boulders  : zero contention, zero parallelism — only sub-object\n"
      "              work distribution (Section VII) could help\n");
  return 0;
}
