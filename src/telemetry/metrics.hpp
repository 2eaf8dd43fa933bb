// MetricsRegistry — cross-cycle, cross-run aggregation of GcCycleStats,
// emitted as stable-schema JSONL (`BENCH_<name>.json`).
//
// One record aggregates every collection cycle observed for one
// (suite, benchmark, cores, scale, seed) key: min/mean/p50/p99/max pause
// cycles, the Table-II stall-reason breakdown, Table-I worklist-empty
// fraction, FIFO and memory counters, fault/recovery totals, and the
// speedup against the sequential baseline (the 1-core configuration of the
// same workload, which executes the identical algorithm as the software
// sequential Cheney collector — Section VI-B).
//
// The JSONL schema ("hwgc-bench-v2") is flat: tooling may append fields,
// and renaming or removing one bumps the version, so CI regression guards
// and the BENCH_* trajectory stay parseable. validate_bench_jsonl() is the
// single source of truth for the schema and is enforced in tests and CI.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "sim/counters.hpp"

namespace hwgc {

class MetricsRegistry {
 public:
  /// Identity of one measured configuration.
  struct Key {
    std::string benchmark;
    std::uint32_t cores = 0;
    double scale = 0.0;
    std::uint64_t seed = 0;

    bool operator<(const Key& o) const {
      if (benchmark != o.benchmark) return benchmark < o.benchmark;
      if (cores != o.cores) return cores < o.cores;
      if (scale != o.scale) return scale < o.scale;
      return seed < o.seed;
    }
  };

  /// Folds one collection cycle into the aggregate for its key. Throws
  /// std::logic_error, naming both summaries, when the key already holds
  /// samples of a config whose SimConfig::summary() differs.
  void record(const Key& key, const SimConfig& cfg, const GcCycleStats& s);

  /// Overrides the sequential baseline for one workload; without it, the
  /// registry uses the recorded 1-core configuration of the same
  /// (benchmark, scale, seed) as the baseline.
  void set_sequential_baseline(const std::string& benchmark, double scale,
                               std::uint64_t seed, double mean_cycles);

  std::size_t size() const noexcept { return aggregates_.size(); }
  bool empty() const noexcept { return aggregates_.empty(); }

  /// All records as JSONL, one "hwgc-bench-v2" object per line, sorted by
  /// key (deterministic byte-for-byte for a deterministic run).
  std::string to_jsonl(const std::string& suite) const;

  /// Writes to_jsonl() to `path` (conventionally `BENCH_<suite>.json`).
  /// Returns false on I/O failure.
  bool write_jsonl(const std::string& path, const std::string& suite) const;

 private:
  struct Aggregate {
    std::string config;  ///< SimConfig::summary() of the first sample
    std::vector<Cycle> cycle_samples;
    double worklist_empty_sum = 0.0;
    double stall_sum[kStallReasonCount] = {};
    std::uint64_t objects_copied = 0;
    std::uint64_t words_copied = 0;
    std::uint64_t pointers_forwarded = 0;
    std::uint64_t mem_requests = 0;
    std::uint64_t fifo_hits = 0;
    std::uint64_t fifo_misses = 0;
    std::uint64_t fifo_overflows = 0;
    std::uint64_t faults_fired = 0;
    Cycle drain_cycles = 0;
  };

  std::map<Key, Aggregate> aggregates_;
  std::map<std::string, double> explicit_baselines_;  ///< serialized key

  double baseline_mean(const Key& key) const;
};

/// Scans one flat one-level JSON object ({"key":value,...}, string or
/// number values, no nesting) into key/value pairs; string values keep a
/// leading '"' marker. Shared by the hwgc-bench-v2 validator below and the
/// hwgc-service-v1 validator (service/service_metrics.hpp). Returns false
/// with a diagnostic on malformed input.
bool parse_flat_json_object(
    const std::string& line,
    std::vector<std::pair<std::string, std::string>>& kv, std::string* error);

/// Validates one JSONL line against the hwgc-bench-v2 schema. Returns true
/// when the line conforms; otherwise false with a diagnostic in `error`.
bool validate_bench_jsonl_line(const std::string& line, std::string* error);

/// Validates a whole BENCH_*.json file. Appends one message per violation;
/// returns true when every line conforms and the file is readable.
bool validate_bench_jsonl_file(const std::string& path,
                               std::vector<std::string>* errors);

}  // namespace hwgc
