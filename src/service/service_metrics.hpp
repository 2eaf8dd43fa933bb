// hwgc-service-v1 — the heap service's stable JSONL metrics section.
//
// One record per shard plus one fleet-wide aggregate (shard = -1), flat
// like hwgc-bench-v2 (telemetry/metrics.hpp): tooling may add fields;
// renaming or removing one bumps the version. A heapd output
// file typically carries BOTH sections — per-shard collection-cycle
// aggregates as hwgc-bench-v2 lines and request-latency/SLO accounting as
// hwgc-service-v1 lines — so validation dispatches per line on the
// "schema" field (validate_metrics_jsonl_file), which is what the
// bench_validate gate runs in CI.
//
// Schema invariants enforced by the validator:
//   * field presence and types;
//   * latency percentiles monotone (p50 <= p99 <= p999 <= max);
//   * non-negative stall accounting that adds up exactly:
//     service_cycles + queue_cycles + stall_cycles == latency_cycles;
//   * the request partition: completed + rejected + failed == requests and
//     served + retried == completed (resilience additions keep the
//     identities exact under failover retries and load shedding);
//   * crashes <= failed, restores <= quarantines, and health is one of
//     healthy / degraded / quarantined / restoring;
//   * scheduled_collections <= collections, slo_violations <= completed.
#pragma once

#include <string>
#include <vector>

#include "service/heap_service.hpp"

namespace hwgc {

/// All shard records + the fleet record as JSONL, one "hwgc-service-v1"
/// object per line (deterministic byte-for-byte for a deterministic run).
std::string service_report_jsonl(const HeapService& service,
                                 const std::string& suite);

/// Appends service_report_jsonl() to `path` when `append` (so one file can
/// hold an hwgc-bench-v2 section followed by the service section);
/// truncates otherwise. Returns false on I/O failure.
bool write_service_jsonl(const HeapService& service, const std::string& path,
                         const std::string& suite, bool append = false);

/// Validates one JSONL line against the hwgc-service-v1 schema.
bool validate_service_jsonl_line(const std::string& line, std::string* error);

/// Validates a whole file of hwgc-service-v1 records.
bool validate_service_jsonl_file(const std::string& path,
                                 std::vector<std::string>* errors);

/// The service's hwgc-profile-v1 section (cfg.profile.enabled runs): one
/// attribution record per shard followed by the span trees of the fleet's
/// K slowest requests. Deterministic byte-for-byte, at any host thread
/// count. Call between serve() calls (lanes drained).
std::string profile_report_jsonl(const HeapService& service,
                                 const std::string& suite);

/// Appends (or writes) profile_report_jsonl() to `path`, exactly like
/// write_service_jsonl. Returns false on I/O failure.
bool write_profile_jsonl(const HeapService& service, const std::string& path,
                         const std::string& suite, bool append = false);

/// Mixed-schema gate: validates every line of `path` against the schema its
/// "schema" field names (hwgc-bench-v2, hwgc-service-v1 or
/// hwgc-profile-v1); unknown or missing schemas are violations, and
/// duplicate profile span ids are caught file-wide. This is what
/// examples/bench_validate runs over CI artifacts.
bool validate_metrics_jsonl_file(const std::string& path,
                                 std::vector<std::string>* errors);

}  // namespace hwgc
