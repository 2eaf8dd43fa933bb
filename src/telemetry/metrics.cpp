#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace hwgc {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

Cycle percentile(const std::vector<Cycle>& sorted, double p) {
  if (sorted.empty()) return 0;
  // Nearest-rank on the sorted samples.
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

std::string baseline_key(const std::string& benchmark, double scale,
                         std::uint64_t seed) {
  return benchmark + "|" + fmt_double(scale) + "|" + std::to_string(seed);
}

/// Stall-reason JSONL field name: "stall_scan_lock" etc.
std::string stall_field(StallReason r) {
  std::string name = "stall_";
  for (char c : std::string(to_string(r))) {
    name += c == '-' ? '_' : c;
  }
  return name;
}

}  // namespace

void MetricsRegistry::record(const Key& key, const SimConfig& cfg,
                             const GcCycleStats& s) {
  Aggregate& a = aggregates_[key];
  std::string config = cfg.summary();
  if (a.config.empty()) {
    a.config = std::move(config);
  } else if (config != a.config) {
    throw std::logic_error("MetricsRegistry: key " + key.benchmark +
                           " recorded under two configs: \"" + a.config +
                           "\" and \"" + config + "\"");
  }
  a.cycle_samples.push_back(s.total_cycles);
  a.worklist_empty_sum += s.worklist_empty_fraction();
  for (std::size_t r = 0; r < kStallReasonCount; ++r) {
    a.stall_sum[r] += s.mean_stall(static_cast<StallReason>(r));
  }
  a.objects_copied += s.objects_copied;
  a.words_copied += s.words_copied;
  a.pointers_forwarded += s.pointers_forwarded;
  a.mem_requests += s.mem_requests;
  a.fifo_hits += s.fifo_hits;
  a.fifo_misses += s.fifo_misses;
  a.fifo_overflows += s.fifo_overflows;
  a.faults_fired += s.faults_fired;
  a.drain_cycles += s.drain_cycles;
}

void MetricsRegistry::set_sequential_baseline(const std::string& benchmark,
                                              double scale,
                                              std::uint64_t seed,
                                              double mean_cycles) {
  explicit_baselines_[baseline_key(benchmark, scale, seed)] = mean_cycles;
}

double MetricsRegistry::baseline_mean(const Key& key) const {
  const auto it =
      explicit_baselines_.find(baseline_key(key.benchmark, key.scale, key.seed));
  if (it != explicit_baselines_.end()) return it->second;
  Key one = key;
  one.cores = 1;
  const auto agg = aggregates_.find(one);
  if (agg == aggregates_.end() || agg->second.cycle_samples.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (Cycle c : agg->second.cycle_samples) sum += static_cast<double>(c);
  return sum / static_cast<double>(agg->second.cycle_samples.size());
}

std::string MetricsRegistry::to_jsonl(const std::string& suite) const {
  std::string out;
  for (const auto& [key, a] : aggregates_) {
    std::vector<Cycle> sorted = a.cycle_samples;
    std::sort(sorted.begin(), sorted.end());
    const double n = static_cast<double>(sorted.size());
    double mean = 0.0;
    for (Cycle c : sorted) mean += static_cast<double>(c);
    mean = sorted.empty() ? 0.0 : mean / n;
    const double base = baseline_mean(key);
    const double speedup = mean > 0.0 && base > 0.0 ? base / mean : 0.0;

    out += "{\"schema\":\"hwgc-bench-v2\"";
    out += ",\"suite\":\"" + suite + "\"";
    out += ",\"benchmark\":\"" + key.benchmark + "\"";
    out += ",\"cores\":" + std::to_string(key.cores);
    out += ",\"scale\":" + fmt_double(key.scale);
    out += ",\"seed\":" + std::to_string(key.seed);
    out += ",\"config\":\"" + a.config + "\"";
    out += ",\"samples\":" + std::to_string(sorted.size());
    out += ",\"cycles_min\":" +
           std::to_string(sorted.empty() ? 0 : sorted.front());
    out += ",\"cycles_p50\":" + std::to_string(percentile(sorted, 0.50));
    out += ",\"cycles_mean\":" + fmt_double(mean);
    out += ",\"cycles_p99\":" + std::to_string(percentile(sorted, 0.99));
    out += ",\"cycles_max\":" +
           std::to_string(sorted.empty() ? 0 : sorted.back());
    out += ",\"speedup_vs_sequential\":" + fmt_double(speedup);
    out += ",\"worklist_empty_fraction\":" +
           fmt_double(sorted.empty() ? 0.0 : a.worklist_empty_sum / n);
    out += ",\"drain_cycles\":" + std::to_string(a.drain_cycles);
    out += ",\"objects_copied\":" + std::to_string(a.objects_copied);
    out += ",\"words_copied\":" + std::to_string(a.words_copied);
    out += ",\"pointers_forwarded\":" + std::to_string(a.pointers_forwarded);
    out += ",\"mem_requests\":" + std::to_string(a.mem_requests);
    out += ",\"fifo_hits\":" + std::to_string(a.fifo_hits);
    out += ",\"fifo_misses\":" + std::to_string(a.fifo_misses);
    out += ",\"fifo_overflows\":" + std::to_string(a.fifo_overflows);
    out += ",\"faults_fired\":" + std::to_string(a.faults_fired);
    for (std::size_t r = 0; r < kStallReasonCount; ++r) {
      if (static_cast<StallReason>(r) == StallReason::kNone) continue;
      out += ",\"" + stall_field(static_cast<StallReason>(r)) +
             "\":" + fmt_double(sorted.empty() ? 0.0 : a.stall_sum[r] / n);
    }
    out += "}\n";
  }
  return out;
}

bool MetricsRegistry::write_jsonl(const std::string& path,
                                  const std::string& suite) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::string jsonl = to_jsonl(suite);
  f.write(jsonl.data(), static_cast<std::streamsize>(jsonl.size()));
  f.flush();
  return f.good();
}

// --- schema validation ------------------------------------------------------

/// Minimal scanner for the flat one-level JSON objects the registry emits:
/// {"key":value,...} with string or number values, no nesting. Returns
/// false with a diagnostic on malformed input.
bool parse_flat_json_object(
    const std::string& line,
    std::vector<std::pair<std::string, std::string>>& kv, std::string* error) {
  std::size_t i = 0;
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg + " at offset " + std::to_string(i);
    }
    return false;
  };
  const auto skip_ws = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
  };
  const auto parse_string = [&](std::string& out) {
    if (line[i] != '"') return false;
    ++i;
    out.clear();
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        if (i + 1 >= line.size()) return false;
        out += line[i + 1];
        i += 2;
      } else {
        out += line[i++];
      }
    }
    if (i >= line.size()) return false;
    ++i;  // closing quote
    return true;
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') return fail("expected '{'");
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') return true;  // empty object
  while (true) {
    skip_ws();
    std::string key;
    if (i >= line.size() || !parse_string(key)) return fail("expected key string");
    skip_ws();
    if (i >= line.size() || line[i] != ':') return fail("expected ':'");
    ++i;
    skip_ws();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      if (!parse_string(value)) return fail("unterminated string value");
      value = "\"" + value + "\"";  // marker: string-typed
    } else {
      const std::size_t start = i;
      while (i < line.size() && (std::isdigit(static_cast<unsigned char>(line[i])) ||
                                 line[i] == '-' || line[i] == '+' ||
                                 line[i] == '.' || line[i] == 'e' ||
                                 line[i] == 'E')) {
        ++i;
      }
      if (i == start) return fail("expected number");
      value = line.substr(start, i - start);
    }
    kv.emplace_back(key, value);
    skip_ws();
    if (i >= line.size()) return fail("unterminated object");
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') break;
    return fail("expected ',' or '}'");
  }
  return true;
}

namespace {

struct FieldSpec {
  const char* name;
  bool is_string;
};

// The hwgc-bench-v2 schema: required fields and their types, in emission
// order. New fields may be appended; none may be renamed or removed.
constexpr FieldSpec kSchemaV2[] = {
    {"schema", true},       {"suite", true},
    {"benchmark", true},    {"cores", false},
    {"scale", false},       {"seed", false},
    {"config", true},       {"samples", false},
    {"cycles_min", false},  {"cycles_p50", false},
    {"cycles_mean", false}, {"cycles_p99", false},
    {"cycles_max", false},  {"speedup_vs_sequential", false},
    {"worklist_empty_fraction", false},
    {"drain_cycles", false},
    {"objects_copied", false},
    {"words_copied", false},
    {"pointers_forwarded", false},
    {"mem_requests", false},
    {"fifo_hits", false},
    {"fifo_misses", false},
    {"fifo_overflows", false},
    {"faults_fired", false},
    {"stall_scan_lock", false},
    {"stall_free_lock", false},
    {"stall_header_lock", false},
    {"stall_body_load", false},
    {"stall_body_store", false},
    {"stall_header_load", false},
    {"stall_header_store", false},
    {"stall_barrier", false},
    {"stall_fault", false},
};

}  // namespace

bool validate_bench_jsonl_line(const std::string& line, std::string* error) {
  std::vector<std::pair<std::string, std::string>> kv;
  if (!parse_flat_json_object(line, kv, error)) return false;
  const auto find = [&](const std::string& key) -> const std::string* {
    for (const auto& [k, v] : kv) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  for (const FieldSpec& f : kSchemaV2) {
    const std::string* v = find(f.name);
    if (v == nullptr) {
      if (error != nullptr) *error = std::string("missing field \"") + f.name + "\"";
      return false;
    }
    const bool is_string = !v->empty() && v->front() == '"';
    if (is_string != f.is_string) {
      if (error != nullptr) {
        *error = std::string("field \"") + f.name + "\" has the wrong type";
      }
      return false;
    }
  }
  if (*find("schema") != "\"hwgc-bench-v2\"") {
    if (error != nullptr) *error = "schema is not hwgc-bench-v2";
    return false;
  }
  const auto num = [&](const char* key) {
    return std::strtod(find(key)->c_str(), nullptr);
  };
  if (num("cores") < 1) {
    if (error != nullptr) *error = "cores must be >= 1";
    return false;
  }
  if (num("samples") < 1) {
    if (error != nullptr) *error = "samples must be >= 1";
    return false;
  }
  const double mn = num("cycles_min"), p50 = num("cycles_p50"),
               p99 = num("cycles_p99"), mx = num("cycles_max");
  if (!(mn <= p50 && p50 <= p99 && p99 <= mx)) {
    if (error != nullptr) {
      *error = "cycle percentiles not ordered (min<=p50<=p99<=max)";
    }
    return false;
  }
  const double wef = num("worklist_empty_fraction");
  if (wef < 0.0 || wef > 1.0) {
    if (error != nullptr) *error = "worklist_empty_fraction outside [0,1]";
    return false;
  }
  return true;
}

bool validate_bench_jsonl_file(const std::string& path,
                               std::vector<std::string>* errors) {
  std::ifstream f(path);
  if (!f) {
    if (errors != nullptr) errors->push_back("cannot open " + path);
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  std::size_t records = 0;
  bool ok = true;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    ++records;
    std::string err;
    if (!validate_bench_jsonl_line(line, &err)) {
      ok = false;
      if (errors != nullptr) {
        errors->push_back(path + ":" + std::to_string(lineno) + ": " + err);
      }
    }
  }
  if (records == 0) {
    ok = false;
    if (errors != nullptr) errors->push_back(path + ": no records");
  }
  return ok;
}

}  // namespace hwgc
