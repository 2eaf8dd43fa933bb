// tracectl — the hwgc-trace-v1 toolbox.
//
//   tracectl record --benchmark javac --out t.jsonl     # one benchmark shape
//   tracectl record --fuzz-seed 77 --out t.jsonl        # adversarial graph
//   tracectl record --churn-seed 7 --out t.jsonl        # shadow-mutator churn
//   tracectl record --lisp --out t.jsonl                # lisp session
//   tracectl corpus [--dir traces]                      # regenerate corpus
//   tracectl replay t.jsonl [--collector stealing|--all] [--seed N]
//   tracectl validate t.jsonl ...                       # digest + structure
//   tracectl stats t.jsonl ...                          # op histogram
//   tracectl minimize --seed N --out t.jsonl            # fuzz -> trace bridge
//   tracectl transform t.jsonl --scale-sizes 2 --out big.jsonl
//
// replay exit status is 0 only if every collector replayed the trace to
// the end, every cycle passed the conformance post-structure oracle, every
// read probe matched its recorded digest, and (under --all) every
// collector produced the same live-graph digest. A collector that throws
// prints "<collector> FAIL: <message>" and the rest still replay.
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "trace/corpus.hpp"
#include "trace/recorder.hpp"
#include "trace/replayer.hpp"

using namespace hwgc;

namespace {

constexpr const char* kCommands =
    "usage: tracectl <command> [options]   (tracectl <command> --help)\n"
    "  record    capture a trace from a benchmark, fuzz case, churn or lisp\n"
    "  corpus    regenerate the committed corpus\n"
    "  replay    replay a trace under one collector or all of them\n"
    "  validate  verify digest + structural invariants\n"
    "  stats     header + op-kind histogram\n"
    "  minimize  fuzz-case -> trace bridge\n"
    "  transform rescale object data sizes, re-deriving read digests\n";

int cmd_record(int argc, char** argv) {
  std::string out;
  bool binary = false;
  std::optional<BenchmarkId> benchmark;
  double scale = 0.002;
  std::uint64_t seed = 42;
  std::optional<std::uint64_t> fuzz_seed;
  std::optional<std::uint64_t> churn_seed;
  std::size_t steps = 600;
  bool lisp = false;
  unsigned fib_n = 8;
  unsigned range_n = 16;
  cli::Parser p("tracectl record", "--out FILE [--binary] <one source>");
  p.value("--out FILE", out, "trace file to write (required)")
      .flag("--binary", binary, "binary serialization instead of JSONL");
  p.section("sources:")
      .value("--benchmark NAME", benchmark, "one benchmark shape",
             cli::optional_of(cli::one_of(all_benchmarks(), benchmark_name)))
      .value("--scale S", scale, "benchmark live-set scale (default 0.002)")
      .value("--seed N", seed, "benchmark seed (default 42)")
      .value("--fuzz-seed N", fuzz_seed, "adversarial fuzz graph")
      .value("--churn-seed N", churn_seed, "shadow-mutator churn")
      .value("--steps N", steps, "churn steps (default 600)")
      .flag("--lisp", lisp, "lisp session")
      .value("--fib N", fib_n, "lisp fib argument (default 8)")
      .value("--range N", range_n, "lisp range length (default 16)");
  p.parse(argc, argv);
  if (out.empty()) p.fail("missing --out");

  Trace trace;
  if (benchmark) {
    trace = trace_from_benchmark(*benchmark, scale, seed);
  } else if (fuzz_seed) {
    trace = trace_from_fuzz_seed(*fuzz_seed);
  } else if (churn_seed) {
    trace = trace_from_churn(*churn_seed, steps);
  } else if (lisp) {
    trace = trace_from_lisp(fib_n, range_n);
  } else {
    p.fail("need a source: --benchmark, --fuzz-seed, --churn-seed or --lisp");
  }
  save_trace(out, trace, binary);
  std::printf("%s: %zu events, %zu objects, digest 0x%llx\n", out.c_str(),
              trace.ops.size(), static_cast<std::size_t>(trace.objects()),
              static_cast<unsigned long long>(trace.digest()));
  return 0;
}

int cmd_corpus(int argc, char** argv) {
  std::string dir = "traces";
  cli::Parser p("tracectl corpus", "[--dir DIR]");
  p.value("--dir DIR", dir, "corpus directory (default traces)");
  p.parse(argc, argv);
  const std::size_t n = write_corpus(dir);
  std::printf("wrote %zu corpus traces to %s/\n", n, dir.c_str());
  return 0;
}

int cmd_replay(int argc, char** argv) {
  std::string file;
  CollectorId collector = CollectorId::kCoprocessor;
  bool all = false;
  ReplayConfig cfg;
  cli::Parser p("tracectl replay", "FILE [options]");
  p.positional("FILE", file, "trace to replay", true)
      .value("--collector NAME", collector, "collector (default coprocessor)",
             cli::one_of(all_collectors(),
                         [](CollectorId c) { return to_string(c); }))
      .flag("--all", all, "every collector, cross-checking digests")
      .value("--threads N", cfg.threads, "worker threads / GC cores")
      .value("--seed N", cfg.schedule_seed, "schedule seed");
  p.parse(argc, argv);

  const Trace trace = load_trace(file);
  std::vector<CollectorId> ids;
  if (all) {
    ids = all_collectors();
  } else {
    ids.push_back(collector);
  }

  bool ok = true;
  // The first collector that replays to the end sets the reference; a
  // collector that throws is reported and left out of the cross-check.
  std::optional<std::uint64_t> reference_digest;
  CollectorId reference = ids.front();
  for (CollectorId id : ids) {
    cfg.collector = id;
    ReplayResult r;
    try {
      r = replay_trace(trace, cfg);
    } catch (const std::exception& e) {
      std::printf("%s FAIL: %s\n", to_string(id), e.what());
      ok = false;
      continue;
    }
    std::printf("%-12s %s\n", to_string(id), r.summary().c_str());
    if (!r.ok) ok = false;
    if (!reference_digest) {
      reference_digest = r.live_graph_digest;
      reference = id;
    } else if (*reference_digest != r.live_graph_digest) {
      std::printf("%-12s DIVERGES from %s's live-graph digest\n",
                  to_string(id), to_string(reference));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

/// The FILE... argument list of validate and stats.
std::vector<std::string> parse_files(const char* command, const char* help,
                                     int argc, char** argv) {
  std::vector<std::string> files;
  cli::Parser p(std::string("tracectl ") + command, "FILE...");
  p.rest("FILE...", files, help);
  p.parse(argc, argv);
  return files;
}

int cmd_validate(int argc, char** argv) {
  bool ok = true;
  for (const std::string& file : parse_files(
           "validate", "verify digest + structural invariants", argc, argv)) {
    try {
      const Trace t = load_trace(file);
      std::printf("%s: ok (%zu events, digest 0x%llx)\n", file.c_str(),
                  t.ops.size(),
                  static_cast<unsigned long long>(t.digest()));
    } catch (const TraceError& e) {
      std::printf("%s: %s\n", file.c_str(), e.what());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

int cmd_stats(int argc, char** argv) {
  for (const std::string& file :
       parse_files("stats", "header + op-kind histogram", argc, argv)) {
    const Trace t = load_trace(file);
    const TraceHeader& h = t.header;
    std::printf("%s\n", file.c_str());
    std::printf("  name=%s semispace=%llu cores=%u fifo=%u schedule=%s "
                "seed=%llu jitter=%llu\n",
                h.name.c_str(),
                static_cast<unsigned long long>(h.semispace_words), h.cores,
                h.header_fifo_capacity, to_string(h.schedule),
                static_cast<unsigned long long>(h.schedule_seed),
                static_cast<unsigned long long>(h.latency_jitter));
    std::map<TraceOp::Kind, std::size_t> histogram;
    for (const TraceOp& op : t.ops) ++histogram[op.kind];
    std::printf("  %zu events, %llu objects, %llu collect hints, digest "
                "0x%llx\n",
                t.ops.size(), static_cast<unsigned long long>(t.objects()),
                static_cast<unsigned long long>(t.collect_hints()),
                static_cast<unsigned long long>(t.digest()));
    for (const auto& [kind, count] : histogram) {
      std::printf("    %-8s %zu\n", to_string(kind), count);
    }
  }
  return 0;
}

int cmd_minimize(int argc, char** argv) {
  std::optional<std::uint64_t> seed;
  std::string out;
  std::uint32_t budget = 48;
  cli::Parser p("tracectl minimize", "--seed N --out FILE [--budget N]");
  p.value("--seed N", seed, "fuzz master seed (required)")
      .value("--out FILE", out, "trace file to write (required)")
      .value("--budget N", budget, "minimization budget (default 48)");
  p.parse(argc, argv);
  if (!seed || out.empty()) p.fail("need both --seed and --out");

  FuzzCase fc = case_from_seed(*seed);
  const ConformanceVerdict verdict = run_fuzz_case(fc);
  if (!verdict.ok) {
    std::printf("seed %llu FAILS the differential oracle; minimizing...\n",
                static_cast<unsigned long long>(*seed));
    fc = minimize_case(fc, budget);
  } else {
    std::printf("seed %llu passes the oracle; emitting its trace as-is\n",
                static_cast<unsigned long long>(*seed));
  }
  const Trace trace = trace_from_fuzz_case(fc);
  save_trace(out, trace);
  std::printf("%s: %zu events, %zu objects (case: %s)\n", out.c_str(),
              trace.ops.size(), static_cast<std::size_t>(trace.objects()),
              fc.summary().c_str());
  return verdict.ok ? 0 : 1;
}

int cmd_transform(int argc, char** argv) {
  std::string in;
  std::string out;
  bool binary = false;
  std::optional<double> scale;
  cli::Parser p("tracectl transform", "FILE --scale-sizes F --out FILE");
  p.positional("FILE", in, "trace to read", true)
      .value("--scale-sizes F", scale, "object data size factor (required)")
      .value("--out FILE", out, "trace file to write (required)")
      .flag("--binary", binary, "binary serialization instead of JSONL");
  p.parse(argc, argv);
  if (out.empty() || !scale) p.fail("need both --scale-sizes and --out");

  const Trace trace = load_trace(in);
  const Trace scaled = scale_trace_sizes(trace, *scale);
  save_trace(out, scaled, binary);
  std::printf("%s: %zu events -> %zu, semispace %llu -> %llu, "
              "digest 0x%llx -> 0x%llx\n",
              out.c_str(), trace.ops.size(), scaled.ops.size(),
              static_cast<unsigned long long>(trace.header.semispace_words),
              static_cast<unsigned long long>(scaled.header.semispace_words),
              static_cast<unsigned long long>(trace.digest()),
              static_cast<unsigned long long>(scaled.digest()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using Command = int (*)(int, char**);
  const std::map<std::string, Command> commands = {
      {"record", cmd_record},     {"corpus", cmd_corpus},
      {"replay", cmd_replay},     {"validate", cmd_validate},
      {"stats", cmd_stats},       {"minimize", cmd_minimize},
      {"transform", cmd_transform}};
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "-h" || cmd == "--help") {
    std::fputs(kCommands, stdout);
    return 0;
  }
  const auto it = commands.find(cmd);
  if (it == commands.end()) {
    std::fprintf(stderr, "tracectl: %s\n%s",
                 cmd.empty() ? "missing command"
                             : ("unknown command \"" + cmd + "\"").c_str(),
                 kCommands);
    return 2;
  }
  try {
    // The command's own parser sees argv[1] as its program name.
    return it->second(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tracectl: %s\n", e.what());
    return 1;
  }
}
