// hwgc-profile-v1 — the profiling subsystem's stable JSONL section
// (regression sentinel of the observability work).
//
// Two record kinds share the schema, dispatched on the "kind" field:
//
//   * kind=attribution — per (suite, source, shard) stall-attribution
//     aggregate over a run's collections: cls_<class> totals (per-core
//     cycles summed over every profiled collection) against the
//     core_cycles denominator, crit_<class> totals (binding-stream cycles)
//     against total_cycles, plus the run's binding resource by name.
//     Validator identities: sum(cls_*) == core_cycles, sum(crit_*) ==
//     total_cycles, unprofiled <= collections, binding is a known class
//     whose crit_* is maximal.
//
//   * kind=span — one span of a request exemplar's tree: (trace, span)
//     ids, parent link, name from the fixed span vocabulary, [begin_cycle,
//     end_cycle] in virtual fleet time, and — for gc-charge spans — the
//     linked shard collection index and the cycles it charged. Validator:
//     begin <= end, parent < span, known name; duplicate (trace, span)
//     pairs are a *file-level* violation (ProfileSpanChecker).
//
// Flat like hwgc-bench-v2 / hwgc-service-v1: tooling may add fields;
// renaming or removing one bumps the version. bench_validate
// dispatches per line on the "schema" field, so one heapd output file can
// carry bench + service + profile sections.
//
// The regression comparator (compare_profile_baselines) pairs attribution
// records across two files by (suite, source, shard) and fails when any
// class's share of core_cycles moved more than `tolerance`, or the
// binding resource changed — the CI profile-smoke job runs it against the
// committed BENCH_profile.json snapshot.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "profile/cycle_profiler.hpp"

namespace hwgc {

/// Stall-attribution aggregate over many collections of one source.
struct ProfileAttribution {
  std::string source;        ///< benchmark name / "heapd" / CLI tag
  long long shard = -1;      ///< -1 for single-runtime sources
  std::uint32_t cores = 0;   ///< max cores across profiled collections
  std::uint64_t collections = 0;
  std::uint64_t unprofiled = 0;  ///< sequential-fallback collections
  Cycle total_cycles = 0;        ///< sum of elapsed cycles
  Cycle core_cycles = 0;         ///< sum of cores_i * cycles_i (denominator)
  CycleProfile::ClassTotals cls{};
  CycleProfile::ClassTotals crit{};

  /// Folds one collection's profile in (invalid profiles count as
  /// unprofiled collections and contribute no cycles).
  void add(const CycleProfile& p);

  /// The aggregate's binding resource (argmax of crit, ties toward the
  /// smaller enum value — same rule as CycleProfile::binding()).
  StallClass binding() const noexcept;

  /// Share of `c` in the per-core attribution (cls[c] / core_cycles).
  double share(StallClass c) const noexcept;
};

/// One attribution record as a JSONL line (with trailing newline).
std::string profile_attribution_jsonl(const ProfileAttribution& a,
                                      const std::string& suite);

/// One span of a request exemplar's tree.
struct SpanRecord {
  long long shard = -1;
  std::uint64_t trace = 0;       ///< request id
  std::uint64_t span = 0;        ///< 1-based, unique within the trace
  std::uint64_t parent = 0;      ///< 0 = root
  std::string name;              ///< one of kSpanNames
  Cycle begin = 0;
  Cycle end = 0;
  long long gc_collection = -1;  ///< linked shard collection index, or -1
  Cycle gc_cycles = 0;           ///< cycles that collection charged here
};

/// The fixed span vocabulary (request tree nodes).
bool known_span_name(const std::string& name);

/// One span record as a JSONL line (with trailing newline).
std::string span_record_jsonl(const SpanRecord& s, const std::string& suite);

/// Validates one hwgc-profile-v1 line (either kind), stateless.
bool validate_profile_jsonl_line(const std::string& line, std::string* error);

/// Cross-line state for file-level span checks: duplicate (trace, span)
/// ids. Feed every line of a file in order; non-span lines are ignored.
class ProfileSpanChecker {
 public:
  bool check(const std::string& line, std::string* error);

 private:
  std::unordered_set<std::string> seen_;  ///< "trace/span" keys
};

/// Validates a whole file of hwgc-profile-v1 records (per-line schema +
/// file-level span checks).
bool validate_profile_jsonl_file(const std::string& path,
                                 std::vector<std::string>* errors);

/// Regression comparator: pairs attribution records of `base_path` and
/// `cur_path` by (suite, source, shard) and fails on a missing/extra
/// record, a binding-resource change, or any class share moving more than
/// `tolerance` (absolute). Span records are ignored. Returns true when
/// the two files agree within tolerance.
bool compare_profile_baselines(const std::string& base_path,
                               const std::string& cur_path, double tolerance,
                               std::vector<std::string>* errors);

}  // namespace hwgc
