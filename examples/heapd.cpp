// heapd — multi-tenant heap service sweep driver.
//
// Stands up a HeapService (N sharded runtimes behind a seeded traffic
// stream and a pluggable GC scheduler) for every point of the sweep matrix
// (shards × scheduler × load) and drives `--requests` requests through it
// in virtual time. Per configuration it reports per-shard and fleet-wide
// request latency (p50/p99/p999, split exactly into service + queue + GC
// stall), collection counts, admission-control rejections and SLO
// violations — and it never trusts a run it did not verify: the
// conformance post-structure oracle runs after every collection cycle on
// every shard, and the final cross-shard shadow-graph walk must come back
// clean. Any oracle finding, read mismatch or validation diff makes heapd
// exit nonzero. Every scheduler collects stop-the-world on the shard's
// simulated coprocessor, so every GC stall heapd reports is a simulated
// pause.
//
// The sweep recipes from EXPERIMENTS.md:
//   heapd --shards 8 --scheduler proactive --requests 50000 --seed 1
//   heapd --shards 2,4,8 --scheduler reactive,proactive,roundrobin
//         --load 0.5,1.0,2.0 --requests 20000 --json BENCH_heapd.json
//   heapd --shards 4 --faults 2 --fault-shard 1 --requests 10000
//
// Every flag, its default and its semantics are in the table in
// parse_args (`heapd --help`). Unknown options and malformed values exit 2
// with a usage summary on stderr — a sweep driven from CI must never
// silently ignore a typo.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/flags.hpp"
#include "profile/profile_metrics.hpp"
#include "profile/request_trace.hpp"
#include "profile/stall_class.hpp"
#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_export.hpp"

namespace {

using namespace hwgc;

struct Options {
  std::vector<std::size_t> shards{4};
  std::vector<GcSchedulerKind> schedulers{GcSchedulerKind::kReactive};
  std::vector<double> loads{1.0};
  std::uint64_t requests = 20000;
  ServiceConfig service;  ///< every other knob; the sweep sets the rest
  std::vector<std::string> trace_files;
  std::string json_path;
  std::string trace_json;
  std::string profile_json;
  std::string flame;
  bool verbose = false;
};

void parse_args(int argc, char** argv, Options& opt) {
  ServiceConfig& cfg = opt.service;
  cfg.sim.coprocessor.num_cores = 4;
  cli::Parser p("heapd", "[options]");
  p.section("sweep:")
      .list("--shards a,b,..", opt.shards, "shard counts to sweep (default 4)")
      .list("--scheduler a,b,..", opt.schedulers,
            "GC policies: reactive proactive roundrobin\n"
            "(default reactive)",
            cli::one_of(all_schedulers(),
                        [](GcSchedulerKind k) { return to_string(k); }))
      .list("--load a,b,..", opt.loads,
            "offered loads, open loop only (default 1.0)")
      .value("--requests N", opt.requests,
             "requests per configuration (default 20000)")
      .value("--seed N", cfg.traffic.seed, "traffic seed (default 1)")
      .value("--sessions N", cfg.traffic.sessions,
             "concurrent sessions (default 64)");
  p.section("shard:")
      .value("--heap-words N", cfg.semispace_words,
             "per-shard semispace words (default 8192)")
      .value("--cores N", cfg.sim.coprocessor.num_cores,
             "GC cores per shard coprocessor (default 4)", cli::cores())
      .flag("--closed-loop", cfg.traffic.open_loop,
            "one outstanding request per session (default open)", false)
      .value("--host-threads N", cfg.host_threads,
             "host threads running shard work (default 1 = serial;\n"
             "output is byte-identical either way); 0 = one per\n"
             "hardware thread. Ignored while --trace-json is\n"
             "attached to a configuration")
      .value("--fast-forward B", cfg.sim.coprocessor.fast_forward,
             "1/0: event-driven clock fast-forward in each shard's\n"
             "coprocessor (default 1; observationally invisible)")
      .value("--slo N", cfg.slo_cycles,
             "SLO bound in cycles (default 16384; 0 off)")
      .value("--max-backlog N", cfg.max_backlog,
             "admission-control backlog bound (default 0 = none)")
      .flag("--no-oracle", cfg.oracle,
            "skip the per-cycle post-structure oracle", false);
  p.section("faults:")
      .value("--faults N", cfg.fault_events,
             "seeded fault events per collection on the fault shard\n"
             "(runs it through the recovery machinery)")
      .value("--fault-shard N", cfg.fault_shard,
             "shard receiving the faults (default 0 with --faults)")
      .value("--fault-seed N", cfg.fault_seed, "fault plan seed (default 1)");
  p.section("storm:")
      .value("--storm-fraction F", cfg.storm.shard_fraction,
             "fraction of the fleet taking repeating per-collection\n"
             "faults (0 disables)",
             cli::range(0.0, 1.0))
      .value("--storm-events N", cfg.storm.events_per_collection,
             "fault events per collection on stormed shards")
      .value("--storm-seed N", cfg.storm.seed,
             "storm plan seed (shard pick, phases, fault streams)")
      .value("--storm-burst N", cfg.storm.burst_requests,
             "burst window in per-shard arrivals (0 = never pauses)")
      .value("--storm-calm N", cfg.storm.calm_requests,
             "gap between burst windows")
      .value("--storm-crashes N", cfg.storm.crash_period,
             "crash every Nth active arrival on a stormed shard\n"
             "(requires --supervise)");
  p.section("resilience:")
      .flag("--supervise", cfg.resilience.supervise,
            "health supervision + checkpoint/restore")
      .value("--deadline N", cfg.resilience.deadline_cycles,
             "per-request deadline budget in cycles (enables\n"
             "failover routing + load shedding; 0 = none)")
      .value("--retries N", cfg.resilience.max_retries,
             "max failover hops per request (default 2)")
      .value("--backoff N", cfg.resilience.retry_backoff,
             "retry backoff in cycles per failover hop")
      .value("--checkpoint-interval N", cfg.resilience.checkpoint_interval,
             "verified-clean cycles between checkpoints")
      .value("--restore-cost N", cfg.resilience.restore_cost,
             "virtual cycles a checkpoint restore occupies");
  p.section("trace:")
      .list("--trace FILE,..", opt.trace_files,
            "hwgc-trace-v1 files: sessions replay recorded op\n"
            "streams (session % files) instead of seeded churn;\n"
            "read probes verify recorded digests")
      .value("--trace-ops N", cfg.trace_ops_per_request,
             "baseline replay ops per request (default 16; scaled by\n"
             "request kind)",
             cli::range<std::uint32_t>(1, UINT32_MAX));
  p.section("output:")
      .value("--json PATH", opt.json_path,
             "hwgc-bench-v2 (per-shard GC aggregates) +\n"
             "hwgc-service-v1 (latency/SLO) JSONL sections")
      .value("--trace-json PATH", opt.trace_json,
             "Chrome-trace timeline of the FIRST configuration")
      .flag("-v, --verbose", opt.verbose,
            "per-shard table for every configuration");
  p.section("profile:")
      .flag("--profile", cfg.profile.enabled,
            "per-cycle stall attribution + request tracing: each\n"
            "shard's binding resource, the fleet's slowest request")
      .value("--exemplars N", cfg.profile.exemplars,
             "slow-request exemplars kept per shard and fleet-wide\n"
             "(default 4)")
      .value("--profile-json PATH", opt.profile_json,
             "hwgc-profile-v1 JSONL: attribution + exemplar span\n"
             "trees for every sweep point (implies --profile)")
      .value("--flame PATH", opt.flame,
             "Chrome-trace flame view of the FIRST configuration's\n"
             "exemplar span trees (implies --profile)");
  p.parse(argc, argv);
  if (cfg.host_threads == 0) {
    cfg.host_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (cfg.fault_events == 0) {
    cfg.fault_shard = ServiceConfig::kNoShard;
  } else if (cfg.fault_shard == ServiceConfig::kNoShard) {
    cfg.fault_shard = 0;
  }
  if (cfg.storm.crash_period > 0 && !cfg.resilience.supervise) {
    p.fail("--storm-crashes requires --supervise (a crashed shard must be "
           "quarantined and restored)");
  }
  if (!opt.profile_json.empty() || !opt.flame.empty()) {
    cfg.profile.enabled = true;
  }
  if (!opt.trace_files.empty() && cfg.resilience.enabled()) {
    p.fail("--trace is incompatible with --supervise/--deadline (checkpoint "
           "restores would rewind the root table under live trace cursors)");
  }
}

ServiceConfig make_config(const Options& o, std::size_t shards,
                          GcSchedulerKind sched, double load) {
  ServiceConfig cfg = o.service;
  cfg.shards = shards;
  cfg.scheduler = sched;
  cfg.traffic.load = load;
  return cfg;
}

void print_stats_row(const char* label, const SloStats& s) {
  std::printf(
      "  %-6s %8llu req %8llu ok %6llu shed | p50 %6llu p99 %7llu "
      "p999 %7llu clk | %5llu gc (%llu sched, %llu recov) | %llu slo viol\n",
      label, static_cast<unsigned long long>(s.offered),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.latency.percentile(0.50)),
      static_cast<unsigned long long>(s.latency.percentile(0.99)),
      static_cast<unsigned long long>(s.latency.percentile(0.999)),
      static_cast<unsigned long long>(s.collections),
      static_cast<unsigned long long>(s.scheduled_collections),
      static_cast<unsigned long long>(s.recovered_collections),
      static_cast<unsigned long long>(s.slo_violations));
}

/// One sweep point. Returns false when the oracle, a read probe or the
/// cross-shard validation found anything.
bool run_config(const Options& o, const ServiceConfig& cfg,
                MetricsRegistry& registry, std::string& service_jsonl,
                std::string& profile_jsonl,
                std::vector<RequestExemplar>* flame_out, TelemetryBus* bus) {
  HeapService service(cfg);
  if (bus != nullptr) service.set_telemetry(bus);
  service.serve(o.requests);

  const SloStats fleet = service.fleet_stats();
  std::string tags;
  if (cfg.fault_events > 0) tags += " (fault-injected)";
  if (service.storm().enabled()) {
    tags += " (storm: " + std::to_string(service.storm().stormed_count()) +
            "/" + std::to_string(cfg.shards) + " shards)";
  }
  if (service.resilient()) tags += " (supervised)";
  std::printf("shards=%zu scheduler=%s load=%.2f%s\n", cfg.shards,
              to_string(cfg.scheduler), cfg.traffic.load, tags.c_str());
  if (o.verbose) {
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      char label[16];
      std::snprintf(label, sizeof label, "s%zu", i);
      print_stats_row(label, service.shard_stats(i));
      if (service.resilient()) {
        std::printf("         health=%-11s", to_string(service.shard_health(i)));
        const SloStats& ss = service.shard_stats(i);
        std::printf(
            " served %llu retried %llu failed %llu | ckpt %llu restore %llu "
            "quar %llu degrade %llu crash %llu\n",
            static_cast<unsigned long long>(ss.served()),
            static_cast<unsigned long long>(ss.retried),
            static_cast<unsigned long long>(ss.failed),
            static_cast<unsigned long long>(ss.checkpoints),
            static_cast<unsigned long long>(ss.restores),
            static_cast<unsigned long long>(ss.quarantines),
            static_cast<unsigned long long>(ss.degradations),
            static_cast<unsigned long long>(ss.crashes));
      }
    }
  }
  print_stats_row("fleet", fleet);
  if (service.resilient()) {
    std::printf(
        "  fleet health=%s | served %llu retried %llu failed %llu shed %llu "
        "| ckpt %llu restore %llu quar %llu degrade %llu crash %llu | %zu "
        "health event(s)\n",
        to_string(service.fleet_health()),
        static_cast<unsigned long long>(fleet.served()),
        static_cast<unsigned long long>(fleet.retried),
        static_cast<unsigned long long>(fleet.failed),
        static_cast<unsigned long long>(fleet.rejected),
        static_cast<unsigned long long>(fleet.checkpoints),
        static_cast<unsigned long long>(fleet.restores),
        static_cast<unsigned long long>(fleet.quarantines),
        static_cast<unsigned long long>(fleet.degradations),
        static_cast<unsigned long long>(fleet.crashes),
        service.health_events().size());
  }

  // Cross-shard isolation proof: every shard's heap must still agree with
  // its shadow model, fault-injected neighbors or not.
  const std::size_t mismatches = service.validate_all_shards();
  bool ok = true;
  if (fleet.oracle_failures > 0) {
    ok = false;
    std::printf("  ORACLE: %llu post-structure failure(s)\n",
                static_cast<unsigned long long>(fleet.oracle_failures));
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      for (const auto& d : service.oracle_diagnostics(i)) {
        std::printf("    %s\n", d.c_str());
      }
    }
  }
  if (fleet.read_mismatches > 0) {
    ok = false;
    std::printf("  READS: %llu probe mismatch(es) against shadow graphs\n",
                static_cast<unsigned long long>(fleet.read_mismatches));
  }
  if (mismatches > 0) {
    ok = false;
    std::printf("  VALIDATION: %zu cross-shard mismatch(es)\n", mismatches);
  }
  if (fleet.checkpoint_digest_failures > 0) {
    ok = false;
    std::printf("  CHECKPOINT: %llu digest failure(s) on restore\n",
                static_cast<unsigned long long>(
                    fleet.checkpoint_digest_failures));
  }
  std::printf("  verification: %s (oracle on %llu cycles, cross-shard walk "
              "clean=%s)\n\n",
              ok ? "OK" : "FAILED",
              static_cast<unsigned long long>(fleet.collections),
              mismatches == 0 ? "yes" : "NO");

  if (!o.json_path.empty()) {
    // Per-shard GC aggregates land in the bench-v1 section...
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      MetricsRegistry::Key key;
      key.benchmark = "heapd/" + std::string(to_string(cfg.scheduler)) +
                      "/shard" + std::to_string(i) + "of" +
                      std::to_string(cfg.shards);
      key.cores = cfg.sim.coprocessor.num_cores;
      key.scale = cfg.traffic.load;
      key.seed = cfg.traffic.seed;
      const Runtime& rt = service.runtime(i);
      for (const auto& s : rt.gc_history()) {
        registry.record(key, cfg.sim, s);
      }
    }
    // ...and latency/SLO accounting in the service-v1 section.
    service_jsonl += service_report_jsonl(service, "heapd");
  }
  if (service.profiling()) {
    std::printf("  profile: binding resource per shard:");
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      std::printf(" s%zu=%s", i,
                  std::string(to_string(service.shard_attribution(i).binding()))
                      .c_str());
    }
    std::printf("\n");
    const std::vector<RequestExemplar> slow = service.slowest_requests();
    if (!slow.empty()) {
      const RequestExemplar& e = slow.front();
      std::printf("  profile: slowest request #%llu on s%zu: %llu clk "
                  "(wait %llu, gc-inherited %llu, gc-own %llu, service %llu, "
                  "%u hop(s))\n\n",
                  static_cast<unsigned long long>(e.request_id), e.shard,
                  static_cast<unsigned long long>(e.latency()),
                  static_cast<unsigned long long>(e.start - e.arrival),
                  static_cast<unsigned long long>(e.inherited_stall),
                  static_cast<unsigned long long>(e.own_gc),
                  static_cast<unsigned long long>(e.service), e.hops);
    }
    if (!o.profile_json.empty()) {
      profile_jsonl += profile_report_jsonl(service, "heapd");
    }
    if (flame_out != nullptr) *flame_out = slow;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  parse_args(argc, argv, opt);

  if (!opt.trace_files.empty()) {
    auto loaded = std::make_shared<std::vector<Trace>>();
    for (const std::string& f : opt.trace_files) {
      try {
        loaded->push_back(load_trace(f));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "heapd: --trace %s: %s\n", f.c_str(), e.what());
        return 2;
      }
    }
    opt.service.traces = std::move(loaded);
    std::printf("trace mode: %zu trace(s), sessions pinned session %% %zu\n",
                opt.trace_files.size(), opt.trace_files.size());
  }

  MetricsRegistry registry;
  std::string service_jsonl;
  std::string profile_jsonl;
  std::vector<RequestExemplar> flame;
  TelemetryBus bus;
  bool all_ok = true;
  bool first = true;

  for (std::size_t shards : opt.shards) {
    for (GcSchedulerKind sched : opt.schedulers) {
      for (double load : opt.loads) {
        const ServiceConfig cfg = make_config(opt, shards, sched, load);
        TelemetryBus* attach =
            (first && !opt.trace_json.empty()) ? &bus : nullptr;
        std::vector<RequestExemplar>* flame_out =
            (first && !opt.flame.empty()) ? &flame : nullptr;
        first = false;
        all_ok &= run_config(opt, cfg, registry, service_jsonl, profile_jsonl,
                             flame_out, attach);
      }
    }
  }

  if (!opt.trace_json.empty()) {
    if (!write_chrome_trace(bus, opt.trace_json)) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   opt.trace_json.c_str());
      return 1;
    }
    std::printf("wrote fleet timeline (%zu epochs, %zu spans) to %s\n",
                bus.epochs().size(), bus.spans().size(),
                opt.trace_json.c_str());
  }
  if (!opt.json_path.empty()) {
    std::ofstream f(opt.json_path, std::ios::binary);
    const std::string bench = registry.to_jsonl("heapd");
    f.write(bench.data(), static_cast<std::streamsize>(bench.size()));
    f.write(service_jsonl.data(),
            static_cast<std::streamsize>(service_jsonl.size()));
    f.flush();
    if (!f.good()) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   opt.json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu bench record(s) + service records to %s\n",
                registry.size(), opt.json_path.c_str());
  }
  if (!opt.profile_json.empty()) {
    std::ofstream f(opt.profile_json, std::ios::binary);
    f.write(profile_jsonl.data(),
            static_cast<std::streamsize>(profile_jsonl.size()));
    f.flush();
    if (!f.good()) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   opt.profile_json.c_str());
      return 1;
    }
    std::printf("wrote profile attribution + exemplar spans to %s\n",
                opt.profile_json.c_str());
  }
  if (!opt.flame.empty()) {
    if (!write_exemplar_flame(flame, opt.flame)) {
      std::fprintf(stderr, "error: failed to write %s\n", opt.flame.c_str());
      return 1;
    }
    std::printf("wrote %zu exemplar span tree(s) to %s\n", flame.size(),
                opt.flame.c_str());
  }
  return all_ok ? 0 : 1;
}
