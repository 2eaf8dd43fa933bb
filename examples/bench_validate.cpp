// bench_validate — schema gate for hwgc JSONL metric files.
//
// Validates every line of every file named on the command line against the
// stable schema its "schema" field names: hwgc-bench-v2
// (telemetry/metrics.hpp) or hwgc-service-v1
// (service/service_metrics.hpp). Required keys present and correctly
// typed, fractions within [0, 1], percentile ordering, and — for service
// records — exact stall accounting (service + queue + stall ==
// latency_cycles). A heapd artifact carries both sections in one file;
// lines with an unknown or missing schema are violations. CI runs it over
// freshly produced BENCH_*.json artifacts so a schema drift fails the
// build rather than silently breaking downstream dashboards.
//
// Exit status: 0 all files valid, 1 any violation or unreadable file,
//              2 usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "service/service_metrics.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> files;
  hwgc::cli::Parser p("bench_validate", "FILE...");
  p.rest("FILE...", files, "hwgc JSONL metric files to validate");
  p.parse(argc, argv);
  bool all_ok = true;
  for (const std::string& file : files) {
    std::vector<std::string> errors;
    const bool ok = hwgc::validate_metrics_jsonl_file(file, &errors);
    if (ok) {
      std::printf("%s: OK\n", file.c_str());
      continue;
    }
    all_ok = false;
    std::printf("%s: INVALID\n", file.c_str());
    for (const auto& e : errors) std::printf("  %s\n", e.c_str());
  }
  return all_ok ? 0 : 1;
}
