#include "conformance/harness.hpp"

#include "baselines/chunked_copying.hpp"
#include "baselines/naive_parallel.hpp"
#include "baselines/work_packets.hpp"
#include "baselines/work_stealing.hpp"
#include "conformance/conformance.hpp"
#include "core/coprocessor.hpp"
#include "core/schedule_policy.hpp"

namespace hwgc {

const char* to_string(CollectorId id) noexcept {
  switch (id) {
    case CollectorId::kCoprocessor: return "coprocessor";
    case CollectorId::kSequential: return "sequential";
    case CollectorId::kNaive: return "naive";
    case CollectorId::kChunked: return "chunked";
    case CollectorId::kPackets: return "packets";
    case CollectorId::kStealing: return "stealing";
    case CollectorId::kConcurrent: return "concurrent";
    case CollectorId::kCount: break;
  }
  return "?";
}

std::optional<CollectorId> parse_collector(const std::string& name) {
  for (std::size_t i = 0; i < kCollectorCount; ++i) {
    const auto id = static_cast<CollectorId>(i);
    if (name == to_string(id)) return id;
  }
  return std::nullopt;
}

std::vector<CollectorId> all_collectors() {
  std::vector<CollectorId> v;
  v.reserve(kCollectorCount);
  for (std::size_t i = 0; i < kCollectorCount; ++i) {
    v.push_back(static_cast<CollectorId>(i));
  }
  return v;
}

CollectorTraits traits_of(CollectorId id) noexcept {
  CollectorTraits t;
  switch (id) {
    case CollectorId::kCoprocessor:
      break;  // dense, deterministic, image-preserving simulator
    case CollectorId::kSequential:
      t.cheney_order = true;
      break;
    case CollectorId::kNaive:
      t.deterministic = false;
      t.threaded = true;
      break;
    case CollectorId::kChunked:
      t.dense = false;
      t.deterministic = false;
      t.threaded = true;
      break;
    case CollectorId::kPackets:
      t.deterministic = false;
      t.threaded = true;
      break;
    case CollectorId::kStealing:
      t.dense = false;
      t.deterministic = false;
      t.threaded = true;
      break;
    case CollectorId::kConcurrent:
      t.preserves_image = false;
      break;
    case CollectorId::kCount:
      break;
  }
  return t;
}

SimConfig sim_config_from(const HarnessConfig& cfg) {
  SimConfig sim;
  sim.coprocessor.num_cores = cfg.threads;
  sim.coprocessor.header_fifo_capacity = cfg.header_fifo_capacity;
  sim.coprocessor.schedule = cfg.schedule;
  sim.coprocessor.schedule_seed = cfg.schedule_seed;
  sim.coprocessor.subobject_copy = cfg.subobject_copy;
  sim.coprocessor.markbit_early_read = cfg.markbit_early_read;
  sim.memory.latency_jitter = cfg.latency_jitter;
  sim.memory.jitter_seed = cfg.schedule_seed ^ 0x9e3779b97f4a7c15ULL;
  sim.fault = cfg.fault;
  return sim;
}

CycleReport report_from(const GcCycleStats& s) {
  CycleReport r;
  r.objects_copied = s.objects_copied;
  r.words_copied = s.words_copied;
  for (const auto& c : s.per_core) r.evacuations += c.objects_evacuated;
  r.lock_order_violations = s.lock_order_violations;
  r.coproc = s;
  return r;
}

CycleReport report_from(const RecoveryReport& rec) {
  CycleReport r = report_from(rec.stats);
  // The sequential fallback reports no per-core counters; like the
  // sequential harness, it evacuated every object it copied.
  if (rec.used_sequential_fallback) r.evacuations = r.objects_copied;
  r.recovery = rec;
  return r;
}

namespace {

std::uint64_t parallel_sync_ops(const ParallelGcStats& s) {
  return s.cas_ops + s.mutex_acquisitions + s.steal_attempts;
}

CycleReport report_from(const ParallelGcStats& s) {
  CycleReport r;
  r.objects_copied = s.objects_copied;
  r.words_copied = s.words_copied;
  r.wasted_words = s.wasted_words;
  r.sync_ops = parallel_sync_ops(s);
  r.evacuations = s.objects_copied;
  r.parallel = s;
  return r;
}

class CoprocessorHarness final : public CollectorHarness {
 public:
  explicit CoprocessorHarness(const HarnessConfig& cfg) : cfg_(cfg) {}
  CollectorId id() const noexcept override {
    return CollectorId::kCoprocessor;
  }
  CycleReport collect(Heap& heap) override {
    schedule_ = ScheduleTrace();
    if (cfg_.fault.enabled()) {
      return report_from(
          RecoveringCollector(sim_config_from(cfg_), heap).collect());
    }
    Coprocessor coproc(sim_config_from(cfg_), heap);
    CycleReport r = report_from(coproc.collect(nullptr, &schedule_));
    r.schedule_tail = schedule_.dump();
    return r;
  }
  std::string schedule_tail() const override { return schedule_.dump(); }

 private:
  HarnessConfig cfg_;
  ScheduleTrace schedule_;
};

class SequentialHarness final : public CollectorHarness {
 public:
  CollectorId id() const noexcept override { return CollectorId::kSequential; }
  CycleReport collect(Heap& heap) override {
    const SequentialGcStats s = SequentialCheney::collect(heap);
    CycleReport r;
    r.objects_copied = s.objects_copied;
    r.words_copied = s.words_copied;
    r.evacuations = s.objects_copied;
    r.sequential = s;
    return r;
  }
};

class NaiveHarness final : public CollectorHarness {
 public:
  explicit NaiveHarness(const HarnessConfig& cfg) {
    cfg_.threads = cfg.threads;
    cfg_.torture = cfg.torture;
  }
  CollectorId id() const noexcept override { return CollectorId::kNaive; }
  CycleReport collect(Heap& heap) override {
    return report_from(NaiveParallelCheney(cfg_).collect(heap));
  }

 private:
  NaiveParallelCheney::Config cfg_;
};

class ChunkedHarness final : public CollectorHarness {
 public:
  explicit ChunkedHarness(const HarnessConfig& cfg) {
    cfg_.threads = cfg.threads;
    cfg_.torture = cfg.torture;
  }
  CollectorId id() const noexcept override { return CollectorId::kChunked; }
  CycleReport collect(Heap& heap) override {
    return report_from(ChunkedCopyingCollector(cfg_).collect(heap));
  }

 private:
  ChunkedCopyingCollector::Config cfg_;
};

class PacketsHarness final : public CollectorHarness {
 public:
  explicit PacketsHarness(const HarnessConfig& cfg) {
    cfg_.threads = cfg.threads;
    cfg_.torture = cfg.torture;
  }
  CollectorId id() const noexcept override { return CollectorId::kPackets; }
  CycleReport collect(Heap& heap) override {
    return report_from(WorkPacketCollector(cfg_).collect(heap));
  }

 private:
  WorkPacketCollector::Config cfg_;
};

class StealingHarness final : public CollectorHarness {
 public:
  explicit StealingHarness(const HarnessConfig& cfg) {
    cfg_.threads = cfg.threads;
    cfg_.torture = cfg.torture;
  }
  CollectorId id() const noexcept override { return CollectorId::kStealing; }
  CycleReport collect(Heap& heap) override {
    return report_from(WorkStealingCollector(cfg_).collect(heap));
  }

 private:
  WorkStealingCollector::Config cfg_;
};

class ConcurrentHarness final : public CollectorHarness {
 public:
  explicit ConcurrentHarness(const HarnessConfig& cfg) {
    cfg_.sim = sim_config_from(cfg);
    cfg_.mutator_seed = cfg.mutator_seed;
    cfg_.op_spacing = cfg.mutator_op_spacing;
    cfg_.registers = cfg.mutator_registers;
  }
  CollectorId id() const noexcept override { return CollectorId::kConcurrent; }
  CycleReport collect(Heap& heap) override {
    ConcurrentCycle cycle(cfg_, heap);
    const ConcurrentStats s = cycle.run();
    CycleReport r;
    // gc.objects_copied already includes the mutator's barrier-assisted
    // evacuations (see ConcurrentCycle::run).
    r.objects_copied = s.gc.objects_copied;
    r.words_copied = s.gc.words_copied;
    r.evacuations = s.gc.objects_copied;
    r.lock_order_violations = s.gc.lock_order_violations;
    r.validation_mismatches = s.validation_mismatches;
    r.concurrent = s;
    return r;
  }

 private:
  ConcurrentCycle::Config cfg_;
};

}  // namespace

std::unique_ptr<CollectorHarness> make_harness(CollectorId id,
                                               const HarnessConfig& cfg) {
  switch (id) {
    case CollectorId::kCoprocessor:
      return std::make_unique<CoprocessorHarness>(cfg);
    case CollectorId::kSequential:
      return std::make_unique<SequentialHarness>();
    case CollectorId::kNaive:
      return std::make_unique<NaiveHarness>(cfg);
    case CollectorId::kChunked:
      return std::make_unique<ChunkedHarness>(cfg);
    case CollectorId::kPackets:
      return std::make_unique<PacketsHarness>(cfg);
    case CollectorId::kStealing:
      return std::make_unique<StealingHarness>(cfg);
    case CollectorId::kConcurrent:
      return std::make_unique<ConcurrentHarness>(cfg);
    case CollectorId::kCount:
      break;
  }
  return nullptr;
}

HarnessPlugin::HarnessPlugin(CollectorId id, HarnessConfig cfg) : id_(id) {
  if (id == CollectorId::kConcurrent) cfg.mutator_registers = 0;
  harness_ = make_harness(id, cfg);
}

GcCycleStats HarnessPlugin::collect(Heap& heap) {
  last_ = harness_->collect(heap);
  if (last_.coproc.has_value()) return *last_.coproc;
  GcCycleStats stats;
  stats.objects_copied = last_.objects_copied;
  stats.words_copied = last_.words_copied;
  stats.lock_order_violations = last_.lock_order_violations;
  // Software collectors run outside the coprocessor clock; the stats they
  // cannot fill stay zero and restart_stores_drained stays true (their
  // stores are plain memory writes, committed before collect() returns).
  return stats;
}

void CycleOracle::before_collection(Runtime& rt) {
  pre_ = HeapSnapshot::capture(rt.heap());
  recoveries_ = rt.recovery_history().size();
}

void CycleOracle::after_collection(Runtime& rt, const GcCycleStats& stats) {
  std::vector<std::string> errors;
  if (plugin_ != nullptr) {
    check_post_structure(plugin_->id(), pre_, rt.heap(),
                         plugin_->last_report(), errors);
  } else {
    const std::vector<RecoveryReport>& recoveries = rt.recovery_history();
    const CycleReport report = recoveries.size() > recoveries_
                                   ? report_from(recoveries.back())
                                   : report_from(stats);
    check_post_structure(CollectorId::kCoprocessor, pre_, rt.heap(), report,
                         errors);
  }
  pre_ = HeapSnapshot{};  // hold no snapshot memory between cycles
  sink_(std::move(errors));
}

}  // namespace hwgc
