#include "workloads/experiments.hpp"

#include <array>
#include <utility>

// The table names only the fields an experiment sets; the rest keep their
// defaults.
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"

namespace hwgc {

namespace {

GraphPlan hub_storm() {
  GraphPlan p;
  const std::uint32_t anchor = p.add(2, 0);
  p.add_root(anchor);
  const std::uint32_t hubs[] = {p.add(0, 4), p.add(0, 4)};
  p.link(anchor, 0, hubs[0]);
  p.link(anchor, 1, hubs[1]);
  std::vector<std::uint32_t> heads;  // first node of each 400-node chain
  for (std::uint32_t i = 0; i < 64 * 400; ++i) {
    const std::uint32_t node = p.add(3, 0);  // next + 2 hub refs
    p.link(node, 1, hubs[i % 2]);
    p.link(node, 2, hubs[(i + 1) % 2]);
    if (i % 400 == 0) heads.push_back(node);
    if (i % 400 != 0) p.link(node - 1, 0, node);
  }
  const std::uint32_t root = p.add(static_cast<Word>(heads.size()), 0);
  p.add_root(root);
  for (std::uint32_t i = 0; i < heads.size(); ++i) p.link(root, i, heads[i]);
  return p;
}

GraphPlan confetti() {
  GraphPlan p;
  p.add_root(p.add(4, 0));
  for (std::uint32_t parent = 0, made = 1; made < 120'000; ++parent) {
    for (Word f = 0; f < 4 && made < 120'000; ++f, ++made) {
      p.link(parent, f, p.add(4, 0));
    }
  }
  return p;
}

GraphPlan boulders(Word count, Word delta) {
  GraphPlan p;
  const std::uint32_t root = p.add(count, 0);
  p.add_root(root);
  for (Word f = 0; f < count; ++f) p.link(root, f, p.add(0, delta));
  return p;
}

using B = BenchmarkId;
using R = StallReason;
constexpr Column kCycles{Column::kCycles};
constexpr Column kSpeedup{Column::kSpeedup};
constexpr Column kEmpty{Column::kEmpty};
constexpr Column stall(StallReason r) { return {Column::kStall, r}; }
const std::vector<std::uint32_t> kPaperCores = {1, 2, 4, 8, 16};

/// Table I: the paper's empty-worklist % at 2, 4, 8 and 16 cores.
std::vector<PaperTarget> table1_targets() {
  const std::pair<B, std::array<double, 4>> rows[] = {
      {B::kCompress, {0.15, 98.58, 99.43, 99.72}},
      {B::kCup, {0.01, 0.02, 0.04, 0.10}},
      {B::kDb, {0.01, 0.02, 0.03, 0.06}},
      {B::kJavac, {0.01, 0.01, 0.03, 0.08}},
      {B::kJavacc, {0.57, 1.35, 3.06, 5.34}},
      {B::kJflex, {0.05, 0.13, 5.48, 35.35}},
      {B::kJlisp, {0.27, 0.61, 1.34, 2.59}},
      {B::kSearch, {73.74, 98.75, 99.53, 99.76}},
  };
  std::vector<PaperTarget> t;
  for (const auto& [id, percent] : rows) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      t.push_back({id, 2u << i, kEmpty, percent[i]});
    }
  }
  return t;
}

/// table1 and table2 are views of fig5's grid (default config, 1-16 and 16
/// cores): a run that selects them together simulates it once.
std::vector<Experiment> make_experiments() {
  const Shape::Plan kBoulders = Shape::Plan::kBoulders;
  return {
      {.name = "fig5",
       .title = "Figure 5: GC cycle speedup vs number of GC cores",
       .suite = "fig5_scaling", .profiled = true,
       .cores = kPaperCores,
       .columns = {kSpeedup, {Column::kBinding}},
       .targets = {{{}, 8, kSpeedup, 7.4}, {{}, 16, kSpeedup, 12.1}},
       .note = "compress/search stay flat: linear object graphs"},
      {.name = "table1",
       .title = "Table I: fraction of cycles with empty worklist",
       .suite = "table1_worklist_empty",
       .cores = kPaperCores,
       .columns = {kEmpty}, .targets = table1_targets()},
      {.name = "table2",
       .title = "Table II: clock cycle distribution (16 cores)",
       .suite = "table2_stall_breakdown",
       .columns = {kCycles, stall(R::kScanLock), stall(R::kFreeLock),
                   stall(R::kHeaderLock), stall(R::kBodyLoad),
                   stall(R::kBodyStore), stall(R::kHeaderLoad),
                   stall(R::kHeaderStore)},
       .targets = {{B::kJavac, 16, stall(R::kHeaderLock), 29.40},
                   {B::kCup, 16, stall(R::kScanLock), 10.49},
                   {B::kCup, 16, stall(R::kHeaderLoad), 38.58},
                   {B::kDb, 16, stall(R::kHeaderLoad), 33.1},
                   {B::kDb, 16, stall(R::kBodyLoad), 21.3},
                   {B::kJavacc, 16, stall(R::kHeaderLoad), 28.4},
                   {B::kJavacc, 16, stall(R::kBodyLoad), 18.7}},
       .note = "store stalls ~0 everywhere"},
      {.name = "fig6",
       .title = "Figure 6: speedup with +20 cycles artificial memory latency",
       .suite = "fig6_latency",
       .cores = kPaperCores, .overrides = {{"+20", Knob::kLatency, 20}},
       .columns = {kSpeedup},
       .note = "scalability improves vs Figure 5 for every benchmark with "
               "enough object-level parallelism"},
      {.name = "heapsize",
       .title = "Heap-size ablation: 16-core speedup vs heap factor",
       .overrides = {{"1.5x", Knob::kHeapFactor, 1.5},
                     {"2x", Knob::kHeapFactor, 2},
                     {"4x", Knob::kHeapFactor, 4},
                     {"8x", Knob::kHeapFactor, 8}},
       .columns = {kSpeedup},
       .note = "heap size has little to no influence: speedups flat"},
      {.name = "fifo", .title = "Header-FIFO capacity ablation (16 cores)",
       .overrides = {{"0", Knob::kFifo, 0}, {"1k", Knob::kFifo, 1024},
                     {"8k", Knob::kFifo, 8192}, {"32k", Knob::kFifo, 32768},
                     {"256k", Knob::kFifo, 262144}},
       .columns = {kCycles, {Column::kFifoHit}, stall(R::kScanLock)},
       .note = "only cup overflows the 32k FIFO; its misses prolong the "
               "scan critical section"},
      {.name = "markbit",
       .title = "Mark-bit early-read optimization (16 cores)",
       .overrides = {{"lock", Knob::kMarkbit, 0}, {"early", Knob::kMarkbit, 1}},
       .columns = {kCycles, stall(R::kHeaderLock), stall(R::kHeaderLoad),
                   {Column::kGain}},
       .note = "javac's header-lock stalls collapse; other benchmarks "
               "barely change"},
      {.name = "bandwidth",
       .title = "Memory-bandwidth ablation: 16-core speedup vs bandwidth",
       .overrides = {{"1", Knob::kBandwidth, 1}, {"2", Knob::kBandwidth, 2},
                     {"4", Knob::kBandwidth, 4}, {"8", Knob::kBandwidth, 8},
                     {"16", Knob::kBandwidth, 16}},
       .columns = {kSpeedup},
       .note = "parallel-rich rows improve with bandwidth; compress/search "
               "stay flat: their limit is the object graph"},
      {.name = "subobject",
       .title = "Sub-object (cache-line) work distribution ablation",
       .extra = {{kBoulders, {}, 2, 60'000}, {kBoulders, {}, 4, 60'000}},
       .overrides = {{"obj-level", Knob::kSubobject, 0},
                     {"sub-object", Knob::kSubobject, 1}},
       .baseline_first_override = true,
       .columns = {kCycles, kSpeedup, {Column::kGain}},
       .note = "the boulder rows gain several-fold; chain-bound compress "
               "and the object-parallel benchmarks move little"},
      {.name = "header-cache", .title = "Header-cache ablation (16 cores)",
       .overrides = {{"0", Knob::kHeaderCache, 0},
                     {"256", Knob::kHeaderCache, 256},
                     {"4k", Knob::kHeaderCache, 4096},
                     {"64k", Knob::kHeaderCache, 65536}},
       .columns = {kCycles, stall(R::kHeaderLoad), stall(R::kHeaderLock)},
       .note = "header-heavy javac, cup and db gain most; compress/search "
               "are body-bound"},
      {.name = "contention",
       .title = "Contention lab: the three synchronization points (16 cores)",
       .benchmarks = false,
       .extra = {{Shape::Plan::kHubStorm}, {Shape::Plan::kConfetti},
                 {kBoulders, {}, 4, 150'000}},
       .columns = {kCycles, kSpeedup, kEmpty, stall(R::kScanLock),
                   stall(R::kFreeLock), stall(R::kHeaderLock)},
       .note = "hub-storm: header-lock stalls dominate; confetti: the "
               "scan/free registers are the floor; boulders: no contention "
               "and no parallelism"},
  };
}

}  // namespace

std::string shape_name(const Shape& s) {
  switch (s.plan) {
    case Shape::Plan::kBenchmark:
      return std::string(benchmark_name(s.benchmark));
    case Shape::Plan::kHubStorm: return "hub-storm";
    case Shape::Plan::kConfetti: return "confetti";
    case Shape::Plan::kBoulders: break;
  }
  return "boulders(" + std::to_string(s.count) + "," +
         std::to_string(s.delta) + ")";
}

GraphPlan shape_plan(const Shape& s, double scale, std::uint64_t seed) {
  switch (s.plan) {
    case Shape::Plan::kBenchmark:
      return make_benchmark_plan(s.benchmark, scale, seed);
    case Shape::Plan::kHubStorm: return hub_storm();
    case Shape::Plan::kConfetti: return confetti();
    case Shape::Plan::kBoulders: break;
  }
  return boulders(s.count, s.delta);
}

std::string_view knob_name(Knob k) {
  constexpr std::string_view kNames[] = {
      "", "latency", "fifo", "bandwidth", "mark-bit", "copy", "hdr-cache",
      "heap"};
  return kNames[static_cast<int>(k)];
}

SimConfig apply(const Override& o, SimConfig cfg) {
  const auto n = static_cast<std::uint32_t>(o.value);
  switch (o.knob) {
    case Knob::kNone:
    case Knob::kHeapFactor: break;
    case Knob::kLatency:
      cfg.memory.latency += n;
      cfg.memory.header_latency += n;
      break;
    case Knob::kFifo: cfg.coprocessor.header_fifo_capacity = n; break;
    case Knob::kBandwidth: cfg.memory.bandwidth_per_cycle = n; break;
    case Knob::kMarkbit: cfg.coprocessor.markbit_early_read = n != 0; break;
    case Knob::kSubobject: cfg.coprocessor.subobject_copy = n != 0; break;
    case Knob::kHeaderCache: cfg.memory.header_cache_entries = n; break;
  }
  return cfg;
}

double heap_factor(const Override& o) {
  return o.knob == Knob::kHeapFactor ? o.value : 2.0;
}

const std::vector<Experiment>& all_experiments() {
  static const std::vector<Experiment> kAll = make_experiments();
  return kAll;
}

}  // namespace hwgc
