#include "service/service_metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "profile/profile_metrics.hpp"
#include "telemetry/metrics.hpp"
#include "trace/trace_format.hpp"

namespace hwgc {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

void append_record(std::string& out, const HeapService& service,
                   const std::string& suite, long long shard,
                   const SloStats& s) {
  const ServiceConfig& cfg = service.config();
  out += "{\"schema\":\"hwgc-service-v1\"";
  out += ",\"suite\":\"" + suite + "\"";
  out += ",\"scheduler\":\"" + std::string(to_string(cfg.scheduler)) + "\"";
  out += ",\"shards\":" + std::to_string(cfg.shards);
  out += ",\"shard\":" + std::to_string(shard);
  out += ",\"seed\":" + std::to_string(cfg.traffic.seed);
  out += ",\"cores\":" + std::to_string(cfg.sim.coprocessor.num_cores);
  out += ",\"semispace_words\":" + std::to_string(cfg.semispace_words);
  out += ",\"load\":" + fmt_double(cfg.traffic.load);
  out += ",\"open_loop\":" + std::to_string(cfg.traffic.open_loop ? 1 : 0);
  out += ",\"requests\":" + std::to_string(s.offered);
  out += ",\"completed\":" + std::to_string(s.completed);
  out += ",\"rejected\":" + std::to_string(s.rejected);
  out += ",\"collections\":" + std::to_string(s.collections);
  out += ",\"scheduled_collections\":" +
         std::to_string(s.scheduled_collections);
  out += ",\"recovered_collections\":" +
         std::to_string(s.recovered_collections);
  out += ",\"gc_cycle_total\":" + std::to_string(s.gc_cycle_total);
  out += ",\"oracle_failures\":" + std::to_string(s.oracle_failures);
  out += ",\"read_mismatches\":" + std::to_string(s.read_mismatches);
  out += ",\"latency_p50\":" + std::to_string(s.latency.percentile(0.50));
  out += ",\"latency_p99\":" + std::to_string(s.latency.percentile(0.99));
  out += ",\"latency_p999\":" + std::to_string(s.latency.percentile(0.999));
  out += ",\"latency_max\":" + std::to_string(s.latency.max());
  out += ",\"latency_mean\":" + fmt_double(s.latency.mean());
  out += ",\"latency_cycles\":" + std::to_string(s.latency.sum());
  out += ",\"service_cycles\":" + std::to_string(s.service_cycles);
  out += ",\"queue_cycles\":" + std::to_string(s.queue_cycles);
  out += ",\"stall_cycles\":" + std::to_string(s.stall_cycles);
  out += ",\"slo_cycles\":" + std::to_string(cfg.slo_cycles);
  out += ",\"slo_violations\":" + std::to_string(s.slo_violations);
  out += ",\"served\":" + std::to_string(s.served());
  out += ",\"retried\":" + std::to_string(s.retried);
  out += ",\"failed\":" + std::to_string(s.failed);
  out += ",\"rolled_back\":" + std::to_string(s.rolled_back);
  out += ",\"checkpoints\":" + std::to_string(s.checkpoints);
  out += ",\"restores\":" + std::to_string(s.restores);
  out += ",\"quarantines\":" + std::to_string(s.quarantines);
  out += ",\"degradations\":" + std::to_string(s.degradations);
  out += ",\"crashes\":" + std::to_string(s.crashes);
  out += ",\"health\":\"" + std::string(to_string(shard < 0
                                                      ? service.fleet_health()
                                                      : service.shard_health(
                                                            static_cast<
                                                                std::size_t>(
                                                                shard)))) +
         "\"";
  out += "}\n";
}

struct FieldSpec {
  const char* name;
  bool is_string;
};

// The hwgc-service-v1 schema: required fields and their types, in emission
// order. New fields may be appended; none may be renamed or removed.
constexpr FieldSpec kServiceSchemaV1[] = {
    {"schema", true},
    {"suite", true},
    {"scheduler", true},
    {"shards", false},
    {"shard", false},
    {"seed", false},
    {"cores", false},
    {"semispace_words", false},
    {"load", false},
    {"open_loop", false},
    {"requests", false},
    {"completed", false},
    {"rejected", false},
    {"collections", false},
    {"scheduled_collections", false},
    {"recovered_collections", false},
    {"gc_cycle_total", false},
    {"oracle_failures", false},
    {"read_mismatches", false},
    {"latency_p50", false},
    {"latency_p99", false},
    {"latency_p999", false},
    {"latency_max", false},
    {"latency_mean", false},
    {"latency_cycles", false},
    {"service_cycles", false},
    {"queue_cycles", false},
    {"stall_cycles", false},
    {"slo_cycles", false},
    {"slo_violations", false},
    {"served", false},
    {"retried", false},
    {"failed", false},
    {"rolled_back", false},
    {"checkpoints", false},
    {"restores", false},
    {"quarantines", false},
    {"degradations", false},
    {"crashes", false},
    {"health", true},
};

}  // namespace

std::string service_report_jsonl(const HeapService& service,
                                 const std::string& suite) {
  std::string out;
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    append_record(out, service, suite, static_cast<long long>(i),
                  service.shard_stats(i));
  }
  append_record(out, service, suite, -1, service.fleet_stats());
  return out;
}

bool write_service_jsonl(const HeapService& service, const std::string& path,
                         const std::string& suite, bool append) {
  std::ofstream f(path, append ? std::ios::binary | std::ios::app
                               : std::ios::binary);
  if (!f) return false;
  const std::string jsonl = service_report_jsonl(service, suite);
  f.write(jsonl.data(), static_cast<std::streamsize>(jsonl.size()));
  f.flush();
  return f.good();
}

std::string profile_report_jsonl(const HeapService& service,
                                 const std::string& suite) {
  std::string out;
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    out += profile_attribution_jsonl(service.shard_attribution(i), suite);
  }
  out += exemplar_spans_jsonl(service.slowest_requests(), suite);
  return out;
}

bool write_profile_jsonl(const HeapService& service, const std::string& path,
                         const std::string& suite, bool append) {
  std::ofstream f(path, append ? std::ios::binary | std::ios::app
                               : std::ios::binary);
  if (!f) return false;
  const std::string jsonl = profile_report_jsonl(service, suite);
  f.write(jsonl.data(), static_cast<std::streamsize>(jsonl.size()));
  f.flush();
  return f.good();
}

bool validate_service_jsonl_line(const std::string& line, std::string* error) {
  std::vector<std::pair<std::string, std::string>> kv;
  if (!parse_flat_json_object(line, kv, error)) return false;
  const auto find = [&](const std::string& key) -> const std::string* {
    for (const auto& [k, v] : kv) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  const auto set_error = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  for (const FieldSpec& f : kServiceSchemaV1) {
    const std::string* v = find(f.name);
    if (v == nullptr) {
      return set_error(std::string("missing field \"") + f.name + "\"");
    }
    const bool is_string = !v->empty() && v->front() == '"';
    if (is_string != f.is_string) {
      return set_error(std::string("field \"") + f.name +
                       "\" has the wrong type");
    }
  }
  if (*find("schema") != "\"hwgc-service-v1\"") {
    return set_error("schema is not hwgc-service-v1");
  }
  const auto num = [&](const char* key) {
    return std::strtod(find(key)->c_str(), nullptr);
  };
  if (num("shards") < 1) return set_error("shards must be >= 1");
  const double shard = num("shard");
  if (shard < -1 || shard >= num("shards")) {
    return set_error("shard must be -1 (fleet) or in [0, shards)");
  }
  if (num("completed") + num("rejected") + num("failed") != num("requests")) {
    return set_error("completed + rejected + failed != requests");
  }
  if (num("served") + num("retried") != num("completed")) {
    return set_error("served + retried != completed");
  }
  if (num("crashes") > num("failed")) {
    return set_error("crashes exceeds failed requests");
  }
  if (num("restores") > num("quarantines")) {
    return set_error("restores exceeds quarantines");
  }
  const std::string& health = *find("health");
  if (health != "\"healthy\"" && health != "\"degraded\"" &&
      health != "\"quarantined\"" && health != "\"restoring\"") {
    return set_error("health is not a known shard-health state");
  }
  const double p50 = num("latency_p50"), p99 = num("latency_p99"),
               p999 = num("latency_p999"), mx = num("latency_max");
  if (!(p50 <= p99 && p99 <= p999 && p999 <= mx)) {
    return set_error(
        "latency percentiles not ordered (p50<=p99<=p999<=max)");
  }
  const double service = num("service_cycles"), queue = num("queue_cycles"),
               stall = num("stall_cycles");
  if (service < 0 || queue < 0 || stall < 0) {
    return set_error("negative latency-component accounting");
  }
  if (service + queue + stall != num("latency_cycles")) {
    return set_error(
        "stall accounting does not add up: service + queue + stall != "
        "latency_cycles");
  }
  if (num("slo_violations") > num("completed")) {
    return set_error("slo_violations exceeds completed requests");
  }
  if (num("scheduled_collections") > num("collections")) {
    return set_error("scheduled_collections exceeds collections");
  }
  return true;
}

namespace {

using LineValidator = bool (*)(const std::string&, std::string*);

bool validate_file_with(const std::string& path,
                        std::vector<std::string>* errors,
                        LineValidator pick(const std::string& line)) {
  std::ifstream f(path);
  if (!f) {
    if (errors != nullptr) errors->push_back("cannot open " + path);
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  std::size_t records = 0;
  bool ok = true;
  ProfileSpanChecker spans;  // file-level duplicate-span-id check
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    ++records;
    std::string err;
    LineValidator v = pick(line);
    if (v == nullptr) {
      ok = false;
      if (errors != nullptr) {
        errors->push_back(path + ":" + std::to_string(lineno) +
                          ": unknown or missing schema field");
      }
      continue;
    }
    if (!v(line, &err) || !spans.check(line, &err)) {
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

LineValidator service_only(const std::string&) {
  return &validate_service_jsonl_line;
}

LineValidator dispatch_by_schema(const std::string& line) {
  if (line.find("\"schema\":\"hwgc-service-v1\"") != std::string::npos) {
    return &validate_service_jsonl_line;
  }
  if (line.find("\"schema\":\"hwgc-bench-v2\"") != std::string::npos) {
    return &validate_bench_jsonl_line;
  }
  if (line.find("\"schema\":\"hwgc-profile-v1\"") != std::string::npos) {
    return &validate_profile_jsonl_line;
  }
  if (line.find("\"schema\":\"hwgc-trace-v1\"") != std::string::npos) {
    return &validate_trace_jsonl_line;
  }
  return nullptr;
}

}  // namespace

bool validate_service_jsonl_file(const std::string& path,
                                 std::vector<std::string>* errors) {
  return validate_file_with(path, errors, service_only);
}

bool validate_metrics_jsonl_file(const std::string& path,
                                 std::vector<std::string>* errors) {
  return validate_file_with(path, errors, dispatch_by_schema);
}

}  // namespace hwgc
