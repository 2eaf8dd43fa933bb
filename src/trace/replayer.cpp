#include "trace/replayer.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/recorder.hpp"

namespace hwgc {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xffu)) * kFnvPrime;
    v >>= 8;
  }
}

}  // namespace

TraceCursor::TraceCursor(const Trace* trace, bool wrap)
    : trace_(trace), wrap_(wrap) {
  if (trace_ == nullptr) {
    throw std::invalid_argument("TraceCursor: null trace");
  }
}

std::uint64_t TraceCursor::live_ids() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : refs_) {
    if (!r.empty()) ++n;
  }
  return n;
}

std::uint64_t TraceCursor::live_graph_digest(Runtime& rt) const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t id = 0; id < refs_.size(); ++id) {
    if (refs_[id].empty()) continue;
    const Runtime::Ref ref = refs_[id].front();
    fnv_u64(h, id);
    const Word pi = rt.pi(ref);
    const Word delta = rt.delta(ref);
    fnv_u64(h, pi);
    fnv_u64(h, delta);
    for (Word j = 0; j < delta; ++j) fnv_u64(h, rt.get_data(ref, j));
    for (Word f = 0; f < pi; ++f) fnv_u64(h, children_[id][f]);
    fnv_u64(h, refs_[id].size());
  }
  return h;
}

void TraceCursor::wrap_around(Runtime& rt) {
  for (auto& list : refs_) {
    for (Runtime::Ref ref : list) rt.release(ref);
    list.clear();
  }
  refs_.clear();
  children_.clear();
  pos_ = 0;
  ++wraps_;
}

std::size_t TraceCursor::apply(Runtime& rt, std::size_t max_ops) {
  std::size_t applied = 0;
  while (applied < max_ops) {
    if (pos_ >= trace_->ops.size()) {
      if (!wrap_) break;
      wrap_around(rt);
      if (trace_->ops.empty()) break;
    }
    apply_one(rt, trace_->ops[pos_]);
    ++pos_;
    ++applied;
  }
  return applied;
}

void TraceCursor::apply_one(Runtime& rt, const TraceOp& op) {
  switch (op.kind) {
    case TraceOp::Kind::kAlloc: {
      const Runtime::Ref ref = rt.alloc(op.b, op.c);
      refs_.emplace_back();
      children_.emplace_back(op.b, kNoTraceId);
      refs_[op.a].push_back(ref);
      break;
    }
    case TraceOp::Kind::kData:
      rt.set_data(refs_[op.a].back(), op.b, op.c);
      break;
    case TraceOp::Kind::kLink:
      if (op.c == kNoTraceId) {
        rt.set_ptr_null(refs_[op.a].back(), op.b);
      } else {
        rt.set_ptr(refs_[op.a].back(), op.b, refs_[op.c].back());
      }
      children_[op.a][op.b] = op.c;
      break;
    case TraceOp::Kind::kRetain:
      refs_[op.a].push_back(rt.dup(refs_[op.a].back()));
      break;
    case TraceOp::Kind::kLoad: {
      const Runtime::Ref child = rt.load_ptr(refs_[op.a].back(), op.b);
      if (child.is_null()) {
        // The link-stream mirror proved this field non-null at load time;
        // a null here means the collector under replay lost the pointer.
        ++read_mismatches_;
      } else {
        refs_[op.c].push_back(child);
      }
      break;
    }
    case TraceOp::Kind::kRelease: {
      auto& list = refs_[op.a];
      rt.release(list[op.b]);
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(op.b));
      break;
    }
    case TraceOp::Kind::kRead: {
      const ReadProbe probe = rt.read_probe(refs_[op.a].back());
      if (probe.words != op.b || probe.digest != op.c) ++read_mismatches_;
      break;
    }
    case TraceOp::Kind::kCollect:
      rt.collect();
      ++explicit_collects_;
      break;
    case TraceOp::Kind::kCount:
      break;
  }
}

std::string ReplayResult::summary() const {
  std::ostringstream os;
  os << (ok ? "ok" : "FAIL") << ": " << ops_applied << " ops, " << collections
     << " collections (" << explicit_collects << " explicit), " << live_ids
     << " live ids, digest 0x" << std::hex << live_graph_digest << std::dec;
  if (read_mismatches != 0) os << ", " << read_mismatches << " read mismatches";
  for (const std::string& f : findings) os << "\n  " << f;
  return os.str();
}

ReplayResult replay_trace(const Trace& trace, const ReplayConfig& cfg) {
  ReplayResult result;
  const TraceHeader& h = trace.header;
  HarnessConfig hc = h.harness_config();
  if (cfg.schedule_seed != ~std::uint64_t{0}) {
    hc.schedule_seed = hc.torture.seed = cfg.schedule_seed;
  }
  const Word semispace =
      cfg.semispace_words != 0 ? cfg.semispace_words : h.semispace_words;
  Runtime rt(semispace, sim_config_from(hc));

  std::unique_ptr<HarnessPlugin> plugin;
  if (cfg.collector != CollectorId::kCoprocessor) {
    hc.threads = cfg.threads;  // the plugin's workers, not the header's cores
    plugin = std::make_unique<HarnessPlugin>(cfg.collector, hc);
    rt.set_collector(plugin.get());
  } else if (cfg.signal_trace != nullptr) {
    rt.set_signal_trace(cfg.signal_trace);
  }

  CycleOracle oracle(plugin.get(), [&result](std::vector<std::string>&& errs) {
    const std::string where =
        "cycle " + std::to_string(result.collections) + ": ";
    for (std::string& e : errs) {
      if (result.findings.size() < 64) {
        result.findings.push_back(where + std::move(e));
      }
      result.ok = false;
    }
    ++result.collections;
  });
  if (cfg.oracle) rt.set_collection_observer(&oracle);

  TraceRecorder rerec(h);
  if (cfg.rerecord) rerec.attach(rt);

  TraceCursor cursor(&trace, /*wrap=*/false);
  try {
    result.ops_applied = cursor.apply(rt, trace.ops.size());
  } catch (const std::runtime_error& e) {
    // Every collector replays on the header's semispace, and their tospace
    // waste differs: an exhausted heap names the collector it ran under.
    throw std::runtime_error(std::string(to_string(cfg.collector)) + ": " +
                             e.what());
  }
  result.read_mismatches = cursor.read_mismatches();
  result.explicit_collects = cursor.explicit_collects();
  result.live_ids = cursor.live_ids();
  result.live_graph_digest = cursor.live_graph_digest(rt);
  result.gc_history = rt.gc_history();
  result.collections = result.gc_history.size();
  if (result.read_mismatches != 0) {
    result.ok = false;
    result.findings.push_back(std::to_string(result.read_mismatches) +
                              " replayed read(s) diverged from the recorded "
                              "digests");
  }
  if (cfg.rerecord) {
    rerec.detach(rt);
    result.rerecorded = rerec.take();
  }
  return result;
}

}  // namespace hwgc
