// Collector-agnostic harness: every collector in the repository behind one
// `collect(Heap&) -> CycleReport` entry point.
//
// The seven collectors have seven different front doors — the coprocessor
// takes a SimConfig and optional traces, the sequential reference is a
// static function, the four software baselines each carry their own Config
// struct, and the concurrent cycle owns a mutator simulation. The
// conformance kit (conformance.hpp) and the torture driver
// (examples/torture_gc.cpp) need to run any of them over the same graph
// corpus without caring which one is underneath; the harness provides that
// seam, plus a traits record describing which guarantees each collector
// actually makes (so the oracle checks Cheney-order density only where it
// is promised, fragmentation accounting where it is not, and so on).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/parallel_common.hpp"
#include "baselines/sequential_cheney.hpp"
#include "core/concurrent_cycle.hpp"
#include "fault/recovery.hpp"
#include "heap/heap.hpp"
#include "heap/verifier.hpp"
#include "runtime/runtime.hpp"
#include "sim/config.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// Every collector the repository implements.
enum class CollectorId : std::uint8_t {
  kCoprocessor,   ///< cycle-accurate multi-core coprocessor simulation
  kSequential,    ///< single-threaded Cheney reference
  kNaive,         ///< fine-grained software locks, shared Cheney worklist
  kChunked,       ///< Imai & Tick chunk-based distribution
  kPackets,       ///< Ossia et al. work packets
  kStealing,      ///< Flood et al. work stealing with LABs
  kConcurrent,    ///< coprocessor + read-barrier mutator running during GC
  kCount
};

inline constexpr std::size_t kCollectorCount =
    static_cast<std::size_t>(CollectorId::kCount);

const char* to_string(CollectorId id) noexcept;

/// Parses a collector name as printed by to_string; nullopt on junk.
std::optional<CollectorId> parse_collector(const std::string& name);

/// Every collector in enum order — for matrix drivers.
std::vector<CollectorId> all_collectors();

/// What each collector guarantees — drives which oracle checks apply.
struct CollectorTraits {
  /// Tospace is hole-free: copies tile [base, alloc_ptr) exactly. False
  /// only for the chunk/LAB collectors, whose fragmentation is accounted
  /// in wasted_words instead.
  bool dense = true;
  /// Copies land in breadth-first Cheney order (single-threaded only; any
  /// parallel collector's order depends on the schedule).
  bool cheney_order = false;
  /// Identical config + seed => identical counters. True for the two
  /// simulators (cycle-accurate, single host thread) and for any software
  /// baseline run with one thread; preemption makes multi-thread counter
  /// streams schedule-dependent — which is the paper's point.
  bool deterministic = true;
  /// The heap image after collection is an isomorphic copy of the pre-cycle
  /// graph. False for the concurrent cycle: its mutator keeps mutating, so
  /// only the shadow-graph validation and structural checks apply.
  bool preserves_image = true;
  /// Runs real std::threads (so it is interesting under TSan and torture).
  bool threaded = false;
};

CollectorTraits traits_of(CollectorId id) noexcept;

/// Uniform result of one collection cycle, whatever ran it. The per-family
/// payloads are kept whole for collectors that have them so callers can
/// drill into family-specific counters.
struct CycleReport {
  std::uint64_t objects_copied = 0;
  std::uint64_t words_copied = 0;   ///< live words landed (excludes waste)
  std::uint64_t wasted_words = 0;   ///< chunk/LAB fragmentation
  /// Software synchronization operations (CAS + mutex + steal probes);
  /// zero for the hardware simulators, whose arbitration is free.
  std::uint64_t sync_ops = 0;
  /// Per-object evacuation events as counted by the collector itself
  /// (per-core counters for the simulators, per-thread for the baselines).
  std::uint64_t evacuations = 0;
  /// Lock-order audit findings (simulators only); must stay empty.
  std::vector<std::string> lock_order_violations;
  /// Shadow-graph mismatches (concurrent cycle only); must stay zero.
  std::size_t validation_mismatches = 0;
  /// Coprocessor only: the last 64 core-step orders of the cycle
  /// (ScheduleTrace::dump), printed when the oracle rejects the run.
  std::string schedule_tail;
  /// Coprocessor under fault injection: how the recovery ladder ended the
  /// cycle. `coproc` then holds the stats of the successful attempt.
  std::optional<RecoveryReport> recovery;

  // Family payloads — exactly one is populated per run.
  std::optional<GcCycleStats> coproc;
  std::optional<SequentialGcStats> sequential;
  std::optional<ParallelGcStats> parallel;
  std::optional<ConcurrentStats> concurrent;
};

/// Knobs shared across the whole matrix; each harness picks out what its
/// collector understands and ignores the rest.
struct HarnessConfig {
  /// Worker threads (software baselines) or GC cores (simulators).
  std::uint32_t threads = 4;
  /// Schedule perturbation for the threaded baselines (no effect on the
  /// simulators, whose nondeterminism knob is `schedule`/`schedule_seed`).
  TortureKnobs torture{};
  /// Simulator core-step schedule policy and seed.
  SchedulePolicyKind schedule = SchedulePolicyKind::kFixedPriority;
  std::uint64_t schedule_seed = 0;
  /// Simulator memory-latency jitter (cycles).
  Cycle latency_jitter = 0;
  std::uint32_t header_fifo_capacity = 32 * 1024;
  /// Simulator collector features (CoprocessorConfig).
  bool subobject_copy = false;
  bool markbit_early_read = false;
  /// Coprocessor hardware fault injection; enabled() routes the cycle
  /// through the detection-and-recovery ladder (RecoveringCollector).
  FaultConfig fault{};
  /// Concurrent cycle: mutator program seed and op spacing.
  std::uint64_t mutator_seed = 1;
  std::uint32_t mutator_op_spacing = 3;
  /// Concurrent cycle: mutator register-file size. 0 runs the cycle
  /// quiescent (no mutator roots, no mutator operations) — the trace
  /// replayer's mode, where the recorded op stream is the only mutator.
  std::uint32_t mutator_registers = 16;
};

/// One collector behind the uniform entry point. Stateless between calls:
/// collect() may be invoked on any number of heaps in sequence.
class CollectorHarness {
 public:
  virtual ~CollectorHarness() = default;

  virtual CollectorId id() const noexcept = 0;
  const char* name() const noexcept { return to_string(id()); }
  CollectorTraits traits() const noexcept { return traits_of(id()); }

  /// Runs one full collection cycle: expects the live graph in the heap's
  /// current space; afterwards the heap is flipped, roots are redirected
  /// and the allocation pointer is published. Throws on collector failure
  /// (e.g. tospace exhaustion under fragmentation).
  virtual CycleReport collect(Heap& heap) = 0;

  /// The schedule tail of the last collect(), also after it threw (empty
  /// for collectors without a core-step schedule).
  virtual std::string schedule_tail() const { return {}; }
};

/// The simulator configuration a harness config describes — the one
/// builder shared by the coprocessor and concurrent-cycle harnesses and by
/// callers that drive a simulator directly (fault_lab's timeline re-run).
SimConfig sim_config_from(const HarnessConfig& cfg);

/// The uniform report of one coprocessor cycle.
CycleReport report_from(const GcCycleStats& s);

/// The uniform report of one coprocessor cycle run through the recovery
/// ladder: the successful attempt's counters plus the ladder's account.
CycleReport report_from(const RecoveryReport& rec);

/// Builds the harness for `id` with the matrix knobs applied.
std::unique_ptr<CollectorHarness> make_harness(CollectorId id,
                                               const HarnessConfig& cfg = {});

/// Runtime::CollectorPlugin adapter over a CollectorHarness: routes the
/// runtime's collection cycles (explicit and exhaustion-triggered) through
/// any collector in the inventory. The concurrent collector runs quiescent
/// (mutator_registers forced to 0): the runtime's own mutator — a
/// replayed op stream, a heapd shard's sessions — is the only one, so its
/// reads and data must not be perturbed by a synthetic one.
class HarnessPlugin final : public CollectorPlugin {
 public:
  HarnessPlugin(CollectorId id, HarnessConfig cfg);

  GcCycleStats collect(Heap& heap) override;

  CollectorId id() const noexcept { return id_; }
  /// Report of the most recent cycle (for the per-cycle oracle).
  const CycleReport& last_report() const noexcept { return last_; }

 private:
  CollectorId id_;
  std::unique_ptr<CollectorHarness> harness_;
  CycleReport last_;
};

/// The one per-cycle oracle for Runtime collections — explicit and
/// exhaustion-triggered alike, in heapd shards and trace replay. Before a
/// cycle it snapshots the heap; after it, it picks the cycle's report —
/// the plugin's last_report() when a collector plugin ran it, else this
/// cycle's RecoveryReport when the recovery ladder ran it, else the
/// coprocessor's stats — and runs check_post_structure, so a recovered
/// cycle meets the same coprocessor contract as the fault matrix. The
/// findings go to the sink, once per cycle (empty when clean); formatting
/// and counting them is the caller's business.
class CycleOracle final : public CollectionObserver {
 public:
  using Sink = std::function<void(std::vector<std::string>&&)>;

  /// `plugin`: the runtime's collector backend, null for the built-in
  /// coprocessor path.
  CycleOracle(const HarnessPlugin* plugin, Sink sink)
      : plugin_(plugin), sink_(std::move(sink)) {}

  void before_collection(Runtime& rt) override;
  void after_collection(Runtime& rt, const GcCycleStats& stats) override;

 private:
  const HarnessPlugin* plugin_;
  Sink sink_;
  HeapSnapshot pre_;
  std::size_t recoveries_ = 0;  ///< recovery_history().size() at snapshot
};

}  // namespace hwgc
