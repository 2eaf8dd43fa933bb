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
// replay exit status is 0 only if every cycle passed the conformance
// post-structure oracle, every read probe matched its recorded digest, and
// (under --all) every collector produced the same live-graph digest.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "trace/corpus.hpp"
#include "trace/recorder.hpp"
#include "trace/replayer.hpp"

using namespace hwgc;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tracectl <command> [options]\n"
      "  record    --out FILE [--binary] and one source:\n"
      "            --benchmark NAME [--scale S] [--seed N] | --fuzz-seed N |\n"
      "            --churn-seed N [--steps N] | --lisp [--fib N] [--range N]\n"
      "  corpus    [--dir DIR]        regenerate the committed corpus\n"
      "  replay    FILE [--collector NAME | --all] [--threads N] [--seed N]\n"
      "  validate  FILE...            verify digest + structural invariants\n"
      "  stats     FILE...            header + op-kind histogram\n"
      "  minimize  --seed N --out FILE [--budget N]   fuzz-case -> trace\n"
      "  transform FILE --scale-sizes F --out FILE [--binary]\n"
      "            rescale object data sizes, re-deriving read digests\n");
  return 2;
}

std::optional<BenchmarkId> parse_benchmark(const std::string& name) {
  for (BenchmarkId id : all_benchmarks()) {
    if (name == benchmark_name(id)) return id;
  }
  return std::nullopt;
}

int cmd_record(int argc, char** argv) {
  std::string out;
  bool binary = false;
  std::string benchmark;
  double scale = 0.002;
  std::uint64_t seed = 42;
  std::optional<std::uint64_t> fuzz_seed;
  std::optional<std::uint64_t> churn_seed;
  std::size_t steps = 600;
  bool lisp = false;
  unsigned fib_n = 8;
  unsigned range_n = 16;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) out = argv[++i];
    else if (arg == "--binary") binary = true;
    else if (arg == "--benchmark" && i + 1 < argc) benchmark = argv[++i];
    else if (arg == "--scale" && i + 1 < argc) scale = std::atof(argv[++i]);
    else if (arg == "--seed" && i + 1 < argc) seed = std::strtoull(argv[++i], nullptr, 0);
    else if (arg == "--fuzz-seed" && i + 1 < argc) fuzz_seed = std::strtoull(argv[++i], nullptr, 0);
    else if (arg == "--churn-seed" && i + 1 < argc) churn_seed = std::strtoull(argv[++i], nullptr, 0);
    else if (arg == "--steps" && i + 1 < argc) steps = std::strtoull(argv[++i], nullptr, 0);
    else if (arg == "--lisp") lisp = true;
    else if (arg == "--fib" && i + 1 < argc) fib_n = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (arg == "--range" && i + 1 < argc) range_n = static_cast<unsigned>(std::atoi(argv[++i]));
    else return usage();
  }
  if (out.empty()) return usage();

  Trace trace;
  if (!benchmark.empty()) {
    const auto id = parse_benchmark(benchmark);
    if (!id) {
      std::fprintf(stderr, "unknown benchmark '%s'\n", benchmark.c_str());
      return 2;
    }
    trace = trace_from_benchmark(*id, scale, seed);
  } else if (fuzz_seed) {
    trace = trace_from_fuzz_seed(*fuzz_seed);
  } else if (churn_seed) {
    trace = trace_from_churn(*churn_seed, steps);
  } else if (lisp) {
    trace = trace_from_lisp(fib_n, range_n);
  } else {
    return usage();
  }
  save_trace(out, trace, binary);
  std::printf("%s: %zu events, %zu objects, digest 0x%llx\n", out.c_str(),
              trace.ops.size(), static_cast<std::size_t>(trace.objects()),
              static_cast<unsigned long long>(trace.digest()));
  return 0;
}

int cmd_corpus(int argc, char** argv) {
  std::string dir = "traces";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir" && i + 1 < argc) dir = argv[++i];
    else return usage();
  }
  const std::size_t n = write_corpus(dir);
  std::printf("wrote %zu corpus traces to %s/\n", n, dir.c_str());
  return 0;
}

int cmd_replay(int argc, char** argv) {
  std::string file;
  std::string collector = "coprocessor";
  bool all = false;
  ReplayConfig cfg;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--collector" && i + 1 < argc) collector = argv[++i];
    else if (arg == "--all") all = true;
    else if (arg == "--threads" && i + 1 < argc) cfg.threads = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    else if (arg == "--seed" && i + 1 < argc) cfg.schedule_seed = std::strtoull(argv[++i], nullptr, 0);
    else if (arg.rfind("--", 0) == 0) return usage();
    else if (file.empty()) file = arg;
    else return usage();
  }
  if (file.empty()) return usage();

  const Trace trace = load_trace(file);
  std::vector<CollectorId> ids;
  if (all) {
    ids = all_collectors();
  } else {
    const auto id = parse_collector(collector);
    if (!id) {
      std::fprintf(stderr, "unknown collector '%s'\n", collector.c_str());
      return 2;
    }
    ids.push_back(*id);
  }

  bool ok = true;
  std::optional<std::uint64_t> reference_digest;
  for (CollectorId id : ids) {
    cfg.collector = id;
    const ReplayResult r = replay_trace(trace, cfg);
    std::printf("%-12s %s\n", to_string(id), r.summary().c_str());
    if (!r.ok) ok = false;
    if (!reference_digest) {
      reference_digest = r.live_graph_digest;
    } else if (*reference_digest != r.live_graph_digest) {
      std::printf("%-12s DIVERGES from %s's live-graph digest\n",
                  to_string(id), to_string(ids.front()));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

int cmd_validate(int argc, char** argv) {
  if (argc == 0) return usage();
  bool ok = true;
  for (int i = 0; i < argc; ++i) {
    try {
      const Trace t = load_trace(argv[i]);
      std::printf("%s: ok (%zu events, digest 0x%llx)\n", argv[i],
                  t.ops.size(),
                  static_cast<unsigned long long>(t.digest()));
    } catch (const TraceError& e) {
      std::printf("%s: %s\n", argv[i], e.what());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

int cmd_stats(int argc, char** argv) {
  if (argc == 0) return usage();
  for (int i = 0; i < argc; ++i) {
    const Trace t = load_trace(argv[i]);
    const TraceHeader& h = t.header;
    std::printf("%s\n", argv[i]);
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
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) seed = std::strtoull(argv[++i], nullptr, 0);
    else if (arg == "--out" && i + 1 < argc) out = argv[++i];
    else if (arg == "--budget" && i + 1 < argc) budget = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    else return usage();
  }
  if (!seed || out.empty()) return usage();

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
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale-sizes" && i + 1 < argc) scale = std::atof(argv[++i]);
    else if (arg == "--out" && i + 1 < argc) out = argv[++i];
    else if (arg == "--binary") binary = true;
    else if (arg.rfind("--", 0) == 0) return usage();
    else if (in.empty()) in = arg;
    else return usage();
  }
  if (in.empty() || out.empty() || !scale) return usage();

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
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "record") return cmd_record(argc - 2, argv + 2);
    if (cmd == "corpus") return cmd_corpus(argc - 2, argv + 2);
    if (cmd == "replay") return cmd_replay(argc - 2, argv + 2);
    if (cmd == "validate") return cmd_validate(argc - 2, argv + 2);
    if (cmd == "stats") return cmd_stats(argc - 2, argv + 2);
    if (cmd == "minimize") return cmd_minimize(argc - 2, argv + 2);
    if (cmd == "transform") return cmd_transform(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tracectl: %s\n", e.what());
    return 1;
  }
  return usage();
}
