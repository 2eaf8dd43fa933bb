// The paper's evaluation as data: Figures 5 and 6, Tables I and II, the
// §V-D/§VI-B/§VII ablations and the §IV contention shapes, each with its
// heap shapes, its grid (core counts x labeled config overrides), the
// columns it prints and the paper's numbers for its cells.
// bench/paper_grid runs them; DESIGN.md §4 is generated from them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "sim/counters.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc {

/// A paper benchmark (sized by scale and seed) or a fixed stress plan:
/// hub-storm (64 chains whose nodes all point at two hubs), confetti (120k
/// minimal objects) or boulders (`count` arrays of `delta` words).
struct Shape {
  enum class Plan { kBenchmark, kHubStorm, kConfetti, kBoulders };
  Plan plan = Plan::kBenchmark;
  BenchmarkId benchmark = BenchmarkId::kCompress;
  Word count = 0;
  Word delta = 0;
};
std::string shape_name(const Shape& s);
GraphPlan shape_plan(const Shape& s, double scale, std::uint64_t seed);

/// kLatency adds to the body and header latency; kHeapFactor sizes the
/// semispace per live word instead of setting a SimConfig field.
enum class Knob {
  kNone, kLatency, kFifo, kBandwidth, kMarkbit, kSubobject, kHeaderCache,
  kHeapFactor,
};
std::string_view knob_name(Knob k);

struct Override {
  std::string_view label;  ///< empty: the default configuration
  Knob knob = Knob::kNone;
  double value = 0;
};
SimConfig apply(const Override& o, SimConfig cfg);
double heap_factor(const Override& o);

/// A printed column, or the metric of a paper target.
struct Column {
  enum Kind {
    kCycles,
    kSpeedup,  ///< 1-core baseline cycles / cycles
    kGain,     ///< cycles at the first override, same cores / cycles
    kBinding,  ///< the critical path's binding resource
    kEmpty,    ///< % of cycles with an empty worklist
    kStall,    ///< mean per-core stall cycles of `reason`, % of cycles
    kFifoHit,  ///< % of scan-header fetches the header FIFO served
  };
  Kind kind = kCycles;
  StallReason reason = StallReason::kNone;
};

struct PaperTarget {
  std::optional<BenchmarkId> benchmark;  ///< none: the best one ("up to")
  std::uint32_t cores = 16;
  Column metric;
  double value = 0;  ///< a speedup, or a percentage
};

struct Experiment {
  std::string_view name;   ///< `paper_grid --experiment=<name>`
  std::string_view title;
  std::string_view suite;  ///< hwgc-bench-v2 suite of --json; empty: none
  bool profiled = false;   ///< every cell profiled; --profile-json
  bool benchmarks = true;  ///< the --bench benchmarks come before `extra`
  std::vector<Shape> extra;
  std::vector<std::uint32_t> cores = {16};
  std::vector<Override> overrides = {Override{}};
  /// kSpeedup divides by the first override's 1-core cell, not its own.
  bool baseline_first_override = false;
  std::vector<Column> columns;
  std::vector<PaperTarget> targets;
  std::string_view note;  ///< the outcome the paper or the ablation expects
};

/// Every experiment, in paper order.
const std::vector<Experiment>& all_experiments();

}  // namespace hwgc
