// Collector inventory drift guard: README.md and DESIGN.md both carry a
// marker-delimited per-collector traits table. This suite generates the
// expected table from the live inventory (all_collectors() / traits_of())
// and compares the committed docs byte-for-byte, so adding a collector —
// or changing what one guarantees — fails the build until the docs follow.
// DESIGN.md §4's experiment index is guarded the same way against the
// experiment table paper_grid runs (workloads/experiments.hpp).
// Regenerate in place with
//   HWGC_REGEN_GOLDEN=1 ./tests/test_collector_inventory
// The prose guard goes further: any "<number-word> collector(s)" phrase in
// either document must name the enum's actual count, so a stale collector
// count in the prose fails the suite the day the enum changes.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "conformance/harness.hpp"
#include "workloads/experiments.hpp"

namespace hwgc {
namespace {

const char* yn(bool b) { return b ? "yes" : "—"; }

std::string expected_table() {
  std::ostringstream os;
  os << "| collector | threaded | deterministic | dense | cheney order | "
        "preserves image |\n"
     << "|---|---|---|---|---|---|\n";
  for (CollectorId id : all_collectors()) {
    const CollectorTraits t = traits_of(id);
    os << "| `" << to_string(id) << "` | " << yn(t.threaded) << " | "
       << yn(t.deterministic) << " | " << yn(t.dense) << " | "
       << yn(t.cheney_order) << " | " << yn(t.preserves_image) << " |\n";
  }
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path << " unreadable";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Compares the text between `<!-- <marker>:begin -->` and its end marker
/// in `path` with `body`; HWGC_REGEN_GOLDEN=1 rewrites it instead.
void check_block(const std::string& path, const std::string& marker,
                 const std::string& body) {
  const std::string begin = "<!-- " + marker + ":begin -->";
  const std::string end = "<!-- " + marker + ":end -->";
  std::string text = read_file(path);
  const std::size_t b = text.find(begin);
  const std::size_t e = text.find(end);
  ASSERT_NE(b, std::string::npos) << path << ": missing " << begin;
  ASSERT_NE(e, std::string::npos) << path << ": missing " << end;
  ASSERT_LT(b, e) << path << ": " << marker << " markers out of order";

  const std::string want = begin + "\n" + body + end;
  std::string got = text.substr(b, e + end.size() - b);
  if (got != want && std::getenv("HWGC_REGEN_GOLDEN") != nullptr) {
    text = text.substr(0, b) + want + text.substr(e + end.size());
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "failed to regenerate " << path;
    got = want;
  }
  EXPECT_EQ(got, want)
      << path << ": " << marker << " block drifted from the code; "
      << "regenerate with HWGC_REGEN_GOLDEN=1 ./tests/test_collector_inventory";
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& s : items) out += (out.empty() ? "" : ", ") + s;
  return out;
}

/// The "Workload / parameters" cell: shapes, cores, the override axis and
/// the speedup baseline, as the experiment table runs them.
std::string parameters(const Experiment& e) {
  std::vector<std::string> extra;
  for (const Shape& s : e.extra) extra.push_back(shape_name(s));
  std::string out =
      e.benchmarks ? std::to_string(all_benchmarks().size()) + " benchmarks"
                   : "";
  if (!extra.empty()) out += (out.empty() ? "" : " + ") + join(extra);
  std::vector<std::string> cores;
  for (std::uint32_t c : e.cores) cores.push_back(std::to_string(c));
  out += cores.size() == 1 ? "; " + cores[0] + " cores"
                           : "; cores {" + join(cores) + "}";
  const Override& first = e.overrides[0];
  if (first.label.empty()) {
    const SimConfig d;
    out += "; default memory model (latency " +
           std::to_string(d.memory.latency) + ", header latency " +
           std::to_string(d.memory.header_latency) + ", bandwidth " +
           std::to_string(d.memory.bandwidth_per_cycle) +
           " words/cycle), heap 2× live";
  } else {
    std::vector<std::string> labels;
    for (const Override& o : e.overrides) labels.emplace_back(o.label);
    out += "; " + std::string(knob_name(first.knob)) +
           (labels.size() == 1 ? " " + labels[0]
                               : " ∈ {" + join(labels) + "}");
  }
  for (const Column& c : e.columns) {
    if (c.kind == Column::kSpeedup) {
      out += e.baseline_first_override
                 ? "; speedup vs 1 core at " + std::string(first.label)
                 : "; speedup vs 1 core";
    }
  }
  return out;
}

/// DESIGN.md §4 prose per experiment: the row title, what the paper
/// reports or proposes, and what the experiment exercises. The runner never
/// reads it, so it lives with the generator. `future` rows are repeated in
/// the future-work table as statement and implementation.
struct Prose {
  std::string_view ref, paper, modules;
  bool future = false;
};
const std::map<std::string_view, Prose> kProse = {
    {"fig5",
     {"**Figure 5**",
      "GC-cycle speedup vs. number of coprocessor cores; up to ~7.4× @8 "
      "cores, ~12.1× @16",
      "core+mem+heap+workloads, critical-path profiler"}},
    {"table1",
     {"**Table I**", "Fraction of cycles with `scan == free` (empty worklist)",
      "SB `ScanState`/pointer comparator, counters"}},
    {"table2",
     {"**Table II**",
      "Clock-cycle distribution @16 cores: total, lock stalls, body and "
      "header load/store stalls",
      "full stall taxonomy"}},
    {"fig6",
     {"**Figure 6**",
      "Speedup with +20 cycles of memory latency: scalability improves for "
      "parallel-rich benchmarks",
      "mem model latency"}},
    {"heapsize",
     {"Heap-size insensitivity (§VI-B, text)",
      "\"heap size had little to no influence\"", "heap sizing"}},
    {"fifo",
     {"Header-FIFO ablation (§V-D, §VI-B *cup*)",
      "FIFO overflow prolongs the scan critical section", "header FIFO"}},
    {"markbit",
     {"Mark-bit early read (§VI-B *javac*)",
      "§VI-B: read the mark bit \"without prior acquisition of the header "
      "lock\", locking only when clear",
      "`CoprocessorConfig::markbit_early_read`", true}},
    {"bandwidth",
     {"Memory-bandwidth ablation (§VII)", "bandwidth limits scalability",
      "mem model"}},
    {"subobject",
     {"Sub-object work distribution (§VII)",
      "§VII (1): \"distribute work at a finer granularity than object-level "
      "granularity, e.g. at the granularity of cache lines\"",
      "`CoprocessorConfig::subobject_copy`: large data areas are split into "
      "16-word stripes dispensed by a 4-slot SB register file to idle "
      "cores; the last stripe completer blackens the object",
      true}},
    {"header-cache",
     {"Header cache (§VII)",
      "§VII (2): \"header caches in conjunction with an optimized header "
      "FIFO\"",
      "`MemoryConfig::header_cache_entries`: a direct-mapped on-chip tag "
      "store in front of the header port (hits complete in 2 cycles "
      "instead of the DRAM row miss)",
      true}},
    {"contention",
     {"Synchronization points under stress (§IV)",
      "the SB's uncontended cost is zero; each lock binds only under its "
      "own stress shape",
      "SB scan/free registers, header-lock CAM"}},
};

/// DESIGN.md §4: the per-experiment index and the future-work features.
/// The two bench binaries outside the table keep fixed rows.
std::string expected_experiment_index() {
  std::ostringstream index;
  std::ostringstream future;
  index << "| Experiment | Paper content | Workload / parameters | "
           "Modules exercised | Bench target |\n"
        << "|---|---|---|---|---|\n";
  future << "| Paper statement | Implementation | Bench |\n|---|---|---|\n";
  EXPECT_EQ(kProse.size(), all_experiments().size())
      << "DESIGN.md prose for an experiment the table no longer has";
  for (const Experiment& e : all_experiments()) {
    const auto it = kProse.find(e.name);
    if (it == kProse.end()) {
      ADD_FAILURE() << "experiment " << e.name << " has no DESIGN.md prose";
      continue;
    }
    const Prose& p = it->second;
    const std::string bench =
        "`paper_grid --experiment=" + std::string(e.name) + "`";
    index << "| " << p.ref << " | " << p.paper << " | " << parameters(e)
          << " | " << p.modules << " | " << bench << " |\n";
    if (p.future) {
      future << "| " << p.paper << " | " << p.modules << " | " << bench
             << " |\n";
    }
  }
  index << "| Software-synchronization motivation (§I, §III) | fine-grained "
           "software synchronization is prohibitive; coarser granularity "
           "trades balance for cost | baselines vs. graph shapes, host "
           "threads | baselines | `bench/bench_baselines_software` |\n";
  future << "| §V-B: \"allow the multi-core coprocessor to run concurrently "
            "to the main processor\" | `ConcurrentCycle`: the mutator keeps "
            "executing through a backlink-based hardware read barrier (the "
            "authors' prior-work mechanism), participates in the SB as an "
            "extra slot (own busy bit and header-lock register), allocates "
            "black Baker-style from the top of tospace with worst-case-"
            "reserve admission control, and is validated against a shadow "
            "graph | `bench/bench_concurrent` |\n";
  return index.str() +
         "\n### Future-work features (Sections V-B and VII), implemented "
         "as extensions\n\n" +
         future.str();
}

void check_inventory_table(const std::string& path) {
  check_block(path, "collector-inventory", expected_table());
}

void check_prose_counts(const std::string& path) {
  // Index 0 == "six": the inventory had six collectors before the guard
  // existed and number words below that never named the collector count.
  const char* words[] = {"six",  "seven", "eight",  "nine",
                         "ten",  "eleven", "twelve"};
  ASSERT_GE(kCollectorCount, 6u) << "extend the number-word table";
  ASSERT_LE(kCollectorCount, 12u) << "extend the number-word table";
  const std::string expect = words[kCollectorCount - 6];

  const std::string text = read_file(path);
  const std::regex phrase(
      "(six|seven|eight|nine|ten|eleven|twelve)[ -][Cc]ollector",
      std::regex_constants::icase);
  for (auto it = std::sregex_iterator(text.begin(), text.end(), phrase);
       it != std::sregex_iterator(); ++it) {
    std::string word = (*it)[1].str();
    for (char& ch : word) ch = static_cast<char>(std::tolower(ch));
    EXPECT_EQ(word, expect)
        << path << ": stale collector count in phrase '" << it->str()
        << "' — the enum has " << kCollectorCount << " collectors";
  }
}

TEST(CollectorInventory, ReadmeTableMatchesTheCode) {
  check_inventory_table(std::string(HWGC_REPO_DIR) + "/README.md");
}

TEST(CollectorInventory, DesignTableMatchesTheCode) {
  check_inventory_table(std::string(HWGC_REPO_DIR) + "/DESIGN.md");
}

TEST(CollectorInventory, DesignExperimentIndexMatchesTheTable) {
  check_block(std::string(HWGC_REPO_DIR) + "/DESIGN.md", "experiment-index",
              expected_experiment_index());
}

TEST(CollectorInventory, ReadmeProseCountsMatchTheEnum) {
  check_prose_counts(std::string(HWGC_REPO_DIR) + "/README.md");
}

TEST(CollectorInventory, DesignProseCountsMatchTheEnum) {
  check_prose_counts(std::string(HWGC_REPO_DIR) + "/DESIGN.md");
}

}  // namespace
}  // namespace hwgc
