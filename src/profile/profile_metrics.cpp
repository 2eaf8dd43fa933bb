#include "profile/profile_metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "telemetry/metrics.hpp"

namespace hwgc {

void ProfileAttribution::add(const CycleProfile& p) {
  ++collections;
  if (!p.valid) {
    ++unprofiled;
    return;
  }
  if (p.cores > cores) cores = p.cores;
  total_cycles += p.total_cycles;
  core_cycles += p.core_cycles();
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    cls[i] += p.cls_total(static_cast<StallClass>(i));
    crit[i] += p.critical[i];
  }
}

StallClass ProfileAttribution::binding() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kStallClassCount; ++i) {
    if (crit[i] > crit[best]) best = i;
  }
  return static_cast<StallClass>(best);
}

double ProfileAttribution::share(StallClass c) const noexcept {
  if (core_cycles == 0) return 0.0;
  return static_cast<double>(cls[static_cast<std::size_t>(c)]) /
         static_cast<double>(core_cycles);
}

std::string profile_attribution_jsonl(const ProfileAttribution& a,
                                      const std::string& suite) {
  std::string out = "{\"schema\":\"hwgc-profile-v1\",\"kind\":\"attribution\"";
  out += ",\"suite\":\"" + suite + "\"";
  out += ",\"source\":\"" + a.source + "\"";
  out += ",\"shard\":" + std::to_string(a.shard);
  out += ",\"cores\":" + std::to_string(a.cores);
  out += ",\"collections\":" + std::to_string(a.collections);
  out += ",\"unprofiled\":" + std::to_string(a.unprofiled);
  out += ",\"total_cycles\":" + std::to_string(a.total_cycles);
  out += ",\"core_cycles\":" + std::to_string(a.core_cycles);
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    out += ",\"cls_" +
           std::string(field_suffix(static_cast<StallClass>(i))) +
           "\":" + std::to_string(a.cls[i]);
  }
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    out += ",\"crit_" +
           std::string(field_suffix(static_cast<StallClass>(i))) +
           "\":" + std::to_string(a.crit[i]);
  }
  out += ",\"binding\":\"" + std::string(to_string(a.binding())) + "\"";
  out += "}\n";
  return out;
}

bool known_span_name(const std::string& name) {
  return name == "request" || name == "admission" || name == "hop" ||
         name == "queue" || name == "gc-inherited" || name == "gc-own" ||
         name == "service" || name == "gc-charge";
}

std::string span_record_jsonl(const SpanRecord& s, const std::string& suite) {
  std::string out = "{\"schema\":\"hwgc-profile-v1\",\"kind\":\"span\"";
  out += ",\"suite\":\"" + suite + "\"";
  out += ",\"shard\":" + std::to_string(s.shard);
  out += ",\"trace\":" + std::to_string(s.trace);
  out += ",\"span\":" + std::to_string(s.span);
  out += ",\"parent\":" + std::to_string(s.parent);
  out += ",\"name\":\"" + s.name + "\"";
  out += ",\"begin_cycle\":" + std::to_string(s.begin);
  out += ",\"end_cycle\":" + std::to_string(s.end);
  out += ",\"gc_collection\":" + std::to_string(s.gc_collection);
  out += ",\"gc_cycles\":" + std::to_string(s.gc_cycles);
  out += "}\n";
  return out;
}

namespace {

using Kv = std::vector<std::pair<std::string, std::string>>;

const std::string* find(const Kv& kv, const std::string& key) {
  for (const auto& [k, v] : kv) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

/// Requires an unquoted (numeric) field and parses it as u64.
bool req_u64(const Kv& kv, const char* key, std::uint64_t& out,
             std::string* error) {
  const std::string* v = find(kv, key);
  if (v == nullptr) {
    return set_error(error, std::string("missing field \"") + key + "\"");
  }
  if (!v->empty() && v->front() == '"') {
    return set_error(error, std::string("field \"") + key +
                                "\" has the wrong type");
  }
  out = std::strtoull(v->c_str(), nullptr, 10);
  return true;
}

/// Same, but the field may be a (small) negative sentinel.
bool req_i64(const Kv& kv, const char* key, long long& out,
             std::string* error) {
  const std::string* v = find(kv, key);
  if (v == nullptr) {
    return set_error(error, std::string("missing field \"") + key + "\"");
  }
  if (!v->empty() && v->front() == '"') {
    return set_error(error, std::string("field \"") + key +
                                "\" has the wrong type");
  }
  out = std::strtoll(v->c_str(), nullptr, 10);
  return true;
}

/// Requires a quoted field and strips the quotes.
bool req_str(const Kv& kv, const char* key, std::string& out,
             std::string* error) {
  const std::string* v = find(kv, key);
  if (v == nullptr) {
    return set_error(error, std::string("missing field \"") + key + "\"");
  }
  if (v->size() < 2 || v->front() != '"' || v->back() != '"') {
    return set_error(error, std::string("field \"") + key +
                                "\" has the wrong type");
  }
  out = v->substr(1, v->size() - 2);
  return true;
}

bool known_class_name(const std::string& name) {
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    if (name == to_string(static_cast<StallClass>(i))) return true;
  }
  return false;
}

bool validate_attribution(const Kv& kv, std::string* error) {
  std::string source;
  long long shard = 0;
  std::uint64_t cores = 0, collections = 0, unprofiled = 0;
  std::uint64_t total_cycles = 0, core_cycles = 0;
  if (!req_str(kv, "source", source, error)) return false;
  if (!req_i64(kv, "shard", shard, error)) return false;
  if (!req_u64(kv, "cores", cores, error)) return false;
  if (!req_u64(kv, "collections", collections, error)) return false;
  if (!req_u64(kv, "unprofiled", unprofiled, error)) return false;
  if (!req_u64(kv, "total_cycles", total_cycles, error)) return false;
  if (!req_u64(kv, "core_cycles", core_cycles, error)) return false;
  if (shard < -1) return set_error(error, "shard must be >= -1");
  if (unprofiled > collections) {
    return set_error(error, "unprofiled exceeds collections");
  }
  std::uint64_t cls_sum = 0, crit_sum = 0;
  std::uint64_t crit[kStallClassCount] = {};
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    const std::string suffix(field_suffix(static_cast<StallClass>(i)));
    std::uint64_t v = 0;
    if (!req_u64(kv, ("cls_" + suffix).c_str(), v, error)) return false;
    cls_sum += v;
    if (!req_u64(kv, ("crit_" + suffix).c_str(), v, error)) return false;
    crit[i] = v;
    crit_sum += v;
  }
  if (cls_sum != core_cycles) {
    return set_error(error,
                     "attribution shares do not sum to the total: "
                     "sum(cls_*) != core_cycles");
  }
  if (crit_sum != total_cycles) {
    return set_error(error,
                     "critical-path shares do not sum to the total: "
                     "sum(crit_*) != total_cycles");
  }
  std::string binding;
  if (!req_str(kv, "binding", binding, error)) return false;
  if (!known_class_name(binding)) {
    return set_error(error, "unknown stall class \"" + binding + "\"");
  }
  std::uint64_t crit_binding = 0, crit_max = 0;
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    if (binding == to_string(static_cast<StallClass>(i))) {
      crit_binding = crit[i];
    }
    if (crit[i] > crit_max) crit_max = crit[i];
  }
  if (crit_binding != crit_max) {
    return set_error(error, "binding class is not the critical-path maximum");
  }
  return true;
}

bool validate_span(const Kv& kv, std::string* error) {
  long long shard = 0, gc_collection = 0;
  std::uint64_t trace = 0, span = 0, parent = 0;
  std::uint64_t begin = 0, end = 0, gc_cycles = 0;
  std::string name;
  if (!req_i64(kv, "shard", shard, error)) return false;
  if (!req_u64(kv, "trace", trace, error)) return false;
  if (!req_u64(kv, "span", span, error)) return false;
  if (!req_u64(kv, "parent", parent, error)) return false;
  if (!req_str(kv, "name", name, error)) return false;
  if (!req_u64(kv, "begin_cycle", begin, error)) return false;
  if (!req_u64(kv, "end_cycle", end, error)) return false;
  if (!req_i64(kv, "gc_collection", gc_collection, error)) return false;
  if (!req_u64(kv, "gc_cycles", gc_cycles, error)) return false;
  if (shard < 0) return set_error(error, "span shard must be >= 0");
  if (span == 0) return set_error(error, "span ids are 1-based");
  if (parent >= span) {
    return set_error(error, "span parent must precede the span");
  }
  if ((span == 1) != (parent == 0)) {
    return set_error(error, "exactly the root span (1) has parent 0");
  }
  if (!known_span_name(name)) {
    return set_error(error, "unknown span name \"" + name + "\"");
  }
  if (begin > end) {
    return set_error(error, "span cycle range out of order (begin > end)");
  }
  if (gc_collection < -1) {
    return set_error(error, "gc_collection must be >= -1");
  }
  if ((name == "gc-charge") != (gc_collection >= 0)) {
    return set_error(error,
                     "gc_collection links are for gc-charge spans exactly");
  }
  return true;
}

}  // namespace

bool validate_profile_jsonl_line(const std::string& line, std::string* error) {
  Kv kv;
  if (!parse_flat_json_object(line, kv, error)) return false;
  std::string schema, kind;
  if (!req_str(kv, "schema", schema, error)) return false;
  if (schema != "hwgc-profile-v1") {
    return set_error(error, "schema is not hwgc-profile-v1");
  }
  if (!req_str(kv, "kind", kind, error)) return false;
  std::string suite;
  if (!req_str(kv, "suite", suite, error)) return false;
  if (kind == "attribution") return validate_attribution(kv, error);
  if (kind == "span") return validate_span(kv, error);
  return set_error(error, "unknown record kind \"" + kind + "\"");
}

bool ProfileSpanChecker::check(const std::string& line, std::string* error) {
  if (line.find("\"schema\":\"hwgc-profile-v1\"") == std::string::npos ||
      line.find("\"kind\":\"span\"") == std::string::npos) {
    return true;
  }
  Kv kv;
  std::string err;
  if (!parse_flat_json_object(line, kv, &err)) return true;  // line check
  std::uint64_t trace = 0, span = 0;
  if (!req_u64(kv, "trace", trace, &err)) return true;
  if (!req_u64(kv, "span", span, &err)) return true;
  const std::string key =
      std::to_string(trace) + "/" + std::to_string(span);
  if (!seen_.insert(key).second) {
    return set_error(error, "duplicate span id " + std::to_string(span) +
                                " in trace " + std::to_string(trace));
  }
  return true;
}

bool validate_profile_jsonl_file(const std::string& path,
                                 std::vector<std::string>* errors) {
  std::ifstream f(path);
  if (!f) {
    if (errors != nullptr) errors->push_back("cannot open " + path);
    return false;
  }
  std::string line;
  std::size_t lineno = 0, records = 0;
  bool ok = true;
  ProfileSpanChecker spans;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    ++records;
    std::string err;
    if (!validate_profile_jsonl_line(line, &err) ||
        !spans.check(line, &err)) {
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

namespace {

struct BaselineRecord {
  double share[kStallClassCount] = {};
  std::string binding;
};

/// Loads every attribution record of `path`, keyed (suite, source, shard).
bool load_attributions(const std::string& path,
                       std::map<std::string, BaselineRecord>& out,
                       std::vector<std::string>* errors) {
  std::ifstream f(path);
  if (!f) {
    if (errors != nullptr) errors->push_back("cannot open " + path);
    return false;
  }
  std::string line;
  while (std::getline(f, line)) {
    if (line.find("\"schema\":\"hwgc-profile-v1\"") == std::string::npos ||
        line.find("\"kind\":\"attribution\"") == std::string::npos) {
      continue;
    }
    std::string err;
    if (!validate_profile_jsonl_line(line, &err)) {
      if (errors != nullptr) errors->push_back(path + ": " + err);
      return false;
    }
    Kv kv;
    (void)parse_flat_json_object(line, kv, nullptr);
    std::string suite, source, binding;
    long long shard = 0;
    std::uint64_t core_cycles = 0;
    (void)req_str(kv, "suite", suite, nullptr);
    (void)req_str(kv, "source", source, nullptr);
    (void)req_i64(kv, "shard", shard, nullptr);
    (void)req_u64(kv, "core_cycles", core_cycles, nullptr);
    (void)req_str(kv, "binding", binding, nullptr);
    BaselineRecord rec;
    rec.binding = binding;
    for (std::size_t i = 0; i < kStallClassCount; ++i) {
      const std::string key =
          "cls_" + std::string(field_suffix(static_cast<StallClass>(i)));
      std::uint64_t v = 0;
      (void)req_u64(kv, key.c_str(), v, nullptr);
      rec.share[i] = core_cycles == 0
                         ? 0.0
                         : static_cast<double>(v) /
                               static_cast<double>(core_cycles);
    }
    out[suite + "/" + source + "/shard" + std::to_string(shard)] = rec;
  }
  return true;
}

}  // namespace

bool compare_profile_baselines(const std::string& base_path,
                               const std::string& cur_path, double tolerance,
                               std::vector<std::string>* errors) {
  std::map<std::string, BaselineRecord> base, cur;
  if (!load_attributions(base_path, base, errors)) return false;
  if (!load_attributions(cur_path, cur, errors)) return false;
  if (base.empty()) {
    if (errors != nullptr) {
      errors->push_back(base_path + ": no attribution records");
    }
    return false;
  }
  bool ok = true;
  const auto complain = [&](const std::string& msg) {
    ok = false;
    if (errors != nullptr) errors->push_back(msg);
  };
  for (const auto& [key, b] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      complain(key + ": missing from " + cur_path);
      continue;
    }
    const BaselineRecord& c = it->second;
    if (b.binding != c.binding) {
      complain(key + ": binding resource changed " + b.binding + " -> " +
               c.binding);
    }
    for (std::size_t i = 0; i < kStallClassCount; ++i) {
      const double delta = c.share[i] - b.share[i];
      if (delta > tolerance || delta < -tolerance) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s: %s share moved %.4f -> %.4f (tolerance %.4f)",
                      key.c_str(),
                      std::string(to_string(static_cast<StallClass>(i)))
                          .c_str(),
                      b.share[i], c.share[i], tolerance);
        complain(buf);
      }
    }
  }
  for (const auto& [key, c] : cur) {
    (void)c;
    if (base.find(key) == base.end()) {
      complain(key + ": not present in baseline " + base_path);
    }
  }
  return ok;
}

}  // namespace hwgc
