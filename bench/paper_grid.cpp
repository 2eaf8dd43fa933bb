// paper_grid: runs the experiments of src/workloads/experiments.hpp. Each
// prints one row per shape and config override with its columns once per
// core count, then the paper's numbers for its cells. Collections that the
// selected experiments share (same shape, config and cores) run once.
// --json writes an experiment's hwgc-bench-v2 suite, --profile-json fig5's
// per-cell hwgc-profile-v1 attribution (source "<bench>/<N>c").
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "bench_util.hpp"
#include "profile/critical_path.hpp"
#include "profile/profile_metrics.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/experiments.hpp"

namespace {

using namespace hwgc;
using namespace hwgc::bench;

/// --json / --profile-json; an empty path is BENCH_<suite>[_profile].json.
struct Outputs {
  bool json = false;
  std::string json_path;
  bool profile = false;
  std::string profile_path;
};

struct Cell {
  SimConfig cfg;
  GcCycleStats stats;
  bool profiled = false;
  StallClass binding = StallClass::kCompute;
  ProfileAttribution attr;  ///< source left empty
};

/// The collection of `s` under `o` on `cores` cores, simulated on first use.
const Cell& cell(const Options& opt, const Shape& s, const Override& o,
                 std::uint32_t cores, bool profiled) {
  static std::map<std::string, Cell> cells;
  SimConfig cfg = apply(o, SimConfig{});
  cfg.coprocessor.num_cores = cores;
  auto [it, fresh] = cells.try_emplace(
      shape_name(s) + " " + cfg.summary() +
      " hlat=" + std::to_string(cfg.memory.header_latency) +
      " hc=" + std::to_string(cfg.memory.header_cache_entries) +
      " sub=" + std::to_string(cfg.coprocessor.subobject_copy) +
      " heap=" + std::to_string(heap_factor(o)));
  Cell& c = it->second;
  if (!fresh && (c.profiled || !profiled)) return c;
  const Workload w =
      materialize(shape_plan(s, opt.scale, opt.seed), heap_factor(o));
  CycleProfile profile;
  c.cfg = cfg;
  c.stats = run_collection(w, cfg, profiled ? &profile : nullptr);
  if (profiled) {
    c.profiled = true;
    c.binding = critical_path(profile).binding;
    c.attr.add(profile);
  }
  return c;
}

std::string heading(const Experiment& e, const Column& col) {
  switch (col.kind) {
    case Column::kCycles: return "cycles";
    case Column::kSpeedup: return "speedup";
    case Column::kGain: return "vs " + std::string(e.overrides[0].label);
    case Column::kBinding: return "binding";
    case Column::kEmpty: return "empty";
    case Column::kStall: return std::string(to_string(col.reason));
    case Column::kFifoHit: return "fifo-hit";
  }
  return "?";
}

/// One printed cell; `base` is the 1-core baseline's cycles (kSpeedup),
/// `first` the first override's at the same cores (kGain).
std::string text(const Column& col, const Cell& c, double base,
                 double first) {
  const GcCycleStats& s = c.stats;
  const double total = static_cast<double>(s.total_cycles);
  const double stall = s.mean_stall(col.reason);
  const double fetches = static_cast<double>(s.fifo_hits + s.fifo_misses);
  char buf[64];
  switch (col.kind) {
    case Column::kCycles: return std::to_string(s.total_cycles);
    case Column::kSpeedup:
    case Column::kGain:
      std::snprintf(buf, sizeof buf, "%.2f",
                    (col.kind == Column::kGain ? first : base) / total);
      return buf;
    case Column::kBinding: return std::string(to_string(c.binding));
    case Column::kEmpty:
      std::snprintf(buf, sizeof buf, "%.2f%%",
                    100.0 * s.worklist_empty_fraction());
      return buf;
    case Column::kStall:
      std::snprintf(buf, sizeof buf, "%.0f (%.2f%%)", stall,
                    100.0 * stall / total);
      return buf;
    case Column::kFifoHit:
      std::snprintf(buf, sizeof buf, "%.1f%%",
                    fetches == 0 ? 0.0
                                 : 100.0 * (static_cast<double>(s.fifo_hits) /
                                            fetches));
      return buf;
  }
  return "?";
}

bool write_file(const std::string& path, const std::string& text,
                const std::string& what) {
  std::ofstream f(path, std::ios::binary);
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!f.flush()) {
    std::fprintf(stderr, "error: failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s to %s\n", what.c_str(), path.c_str());
  return true;
}

/// Prints `e`; false if a requested output failed to write.
bool run(const Experiment& e, const Options& opt, const Outputs& out) {
  std::vector<Shape> shapes;
  for (BenchmarkId id : opt.benchmarks) {
    if (e.benchmarks) shapes.push_back({Shape::Plan::kBenchmark, id});
  }
  shapes.insert(shapes.end(), e.extra.begin(), e.extra.end());
  const Override& first = e.overrides[0];
  const bool labeled = !first.label.empty();
  const bool speedup =
      std::any_of(e.columns.begin(), e.columns.end(),
                  [](const Column& c) { return c.kind == Column::kSpeedup; });
  const auto cycles = [&](const Shape& s, const Override& o,
                          std::uint32_t cores) {
    const Cell& c = cell(opt, s, o, cores, e.profiled);
    return static_cast<double>(c.stats.total_cycles);
  };
  int name_w = 10;
  for (const Shape& s : shapes) {
    name_w = std::max(name_w, static_cast<int>(shape_name(s).size()));
  }

  print_header(e.title, opt);
  std::printf("%-*s", name_w, "shape");
  if (labeled) {
    std::printf(" %-10s", std::string(knob_name(first.knob)).c_str());
  }
  if (speedup) std::printf(" %10s", "1-core cyc");
  std::printf(" |");
  // Per cell: its printf width, negative (left-aligned) for the binding.
  std::vector<int> widths;
  for (std::uint32_t cores : e.cores) {
    for (const Column& col : e.columns) {
      std::string h = heading(e, col);
      if (e.cores.size() > 1) h += "@" + std::to_string(cores);
      constexpr int kMin[] = {10, 7, 7, -19, 7, 17, 8};
      const int w = std::max(std::abs(kMin[col.kind]),
                             static_cast<int>(h.size()));
      widths.push_back(kMin[col.kind] < 0 ? -w : w);
      std::printf(" %*s", widths.back(), h.c_str());
    }
  }
  std::printf("\n");

  MetricsRegistry registry;
  std::string profile_jsonl;
  for (const Shape& s : shapes) {
    const std::string name = shape_name(s);
    for (const Override& o : e.overrides) {
      const double base =
          speedup ? cycles(s, e.baseline_first_override ? first : o, 1) : 0;
      std::printf("%-*s", name_w, name.c_str());
      if (labeled) std::printf(" %-10s", std::string(o.label).c_str());
      if (speedup) std::printf(" %10.0f", base);
      std::printf(" |");
      auto width = widths.begin();
      for (std::uint32_t cores : e.cores) {
        const Cell& c = cell(opt, s, o, cores, e.profiled);
        if (!e.suite.empty()) {
          registry.record({name, cores, opt.scale, opt.seed}, c.cfg, c.stats);
        }
        if (e.profiled) {
          ProfileAttribution attr = c.attr;
          attr.source = name + "/" + std::to_string(cores) + "c";
          profile_jsonl +=
              profile_attribution_jsonl(attr, std::string(e.suite));
        }
        for (const Column& col : e.columns) {
          const double f =
              col.kind == Column::kGain ? cycles(s, first, cores) : 0;
          std::printf(" %*s", *width++, text(col, c, base, f).c_str());
        }
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }

  // The paper's cells, one line per benchmark and metric.
  if (!e.targets.empty()) std::printf("\npaper:");
  for (std::size_t i = 0; i < e.targets.size(); ++i) {
    const PaperTarget& t = e.targets[i];
    if (i == 0 || t.benchmark != e.targets[i - 1].benchmark ||
        heading(e, t.metric) != heading(e, e.targets[i - 1].metric)) {
      const std::string who =
          t.benchmark ? std::string(benchmark_name(*t.benchmark)) : "up to";
      std::printf("\n  %-8s %-12s", who.c_str(), heading(e, t.metric).c_str());
    }
    std::printf("  @%u %.2f%s", t.cores, t.value,
                t.metric.kind == Column::kSpeedup ? "x" : "%");
  }
  if (!e.targets.empty()) std::printf("\n");
  if (!e.note.empty()) std::printf("\n(%s)\n", std::string(e.note).c_str());

  const std::string suite(e.suite);
  bool ok = true;
  if (out.json) {
    std::printf("\n");
    ok = write_file(
        out.json_path.empty() ? "BENCH_" + suite + ".json" : out.json_path,
        registry.to_jsonl(suite),
        std::to_string(registry.size()) + " metric record(s)");
  }
  if (out.profile) {
    const std::string path = out.profile_path.empty()
                                 ? "BENCH_" + suite + "_profile.json"
                                 : out.profile_path;
    ok = write_file(path, profile_jsonl, "profile attribution") && ok;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Outputs out;
  std::vector<const Experiment*> experiments;
  std::vector<const Experiment*> all;
  std::string names;
  for (const Experiment& e : all_experiments()) {
    all.push_back(&e);
    names += (names.empty() ? "" : "|") + std::string(e.name);
  }
  cli::Parser p("paper_grid", "--experiment=NAME[,NAME..] [options]");
  p.list("--experiment a,b,..", experiments,
         "experiments to run, in order (" + names + ")",
         cli::one_of(all, [](const Experiment* e) { return e->name; }));
  add_options(p, opt);
  p.optional("--json[=PATH]", out.json, out.json_path,
             "also write the metrics as hwgc-bench-v2 JSONL\n"
             "(default path BENCH_<suite>.json)")
      .optional("--profile-json[=PATH]", out.profile, out.profile_path,
                "write per-configuration stall attribution as\n"
                "hwgc-profile-v1 JSONL (default path\n"
                "BENCH_<suite>_profile.json)");
  p.parse(argc, argv);

  if (experiments.empty()) {
    p.fail("--experiment is required (need " + names + ")");
  }
  for (const Experiment* e : experiments) {
    const std::string name(e->name);
    if (opt.bench_given && !e->benchmarks) {
      p.fail("--bench: experiment " + name + " runs fixed synthetic shapes");
    }
    if (out.json && e->suite.empty()) {
      p.fail("--json: experiment " + name + " writes no hwgc-bench-v2 suite");
    }
    if (out.profile && !e->profiled) {
      p.fail("--profile-json: experiment " + name + " is not profiled");
    }
  }
  if (experiments.size() > 1 &&
      (!out.json_path.empty() || !out.profile_path.empty())) {
    p.fail("--json=PATH and --profile-json=PATH take one experiment");
  }

  bool ok = true;
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    if (i != 0) std::printf("\n");
    ok = run(*experiments[i], opt, out) && ok;
  }
  return ok ? 0 : 1;
}
