// Managed-runtime façade — the public API example applications program
// against.
//
// The paper's system runs Java on an object-based main processor whose
// memory the GC coprocessor collects. This class plays the role of that
// runtime for our examples and multi-cycle tests: it owns a Heap and a
// coprocessor configuration, hands out *stable references* (objects move
// during collection, so raw addresses must never be held across an
// allocation), and transparently runs a collection cycle on the simulated
// coprocessor whenever the allocator runs out of space — the moment the
// prototype's Core 1 would stop the main processor (Section V-E).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/recovery.hpp"
#include "heap/heap.hpp"
#include "profile/cycle_profiler.hpp"
#include "sim/config.hpp"
#include "sim/counters.hpp"

namespace hwgc {

class Runtime;
class SignalTrace;

/// Observation seam around every collection cycle the runtime runs —
/// explicit or allocation-triggered. The per-cycle oracle (CycleOracle,
/// conformance/harness.hpp) hooks it to snapshot the live graph before a
/// cycle and run the conformance post-structure check after it, for heapd
/// shards and trace replay alike; the service layer also accounts
/// GC-induced request stall here, and tests hook it to prove
/// exhaustion-triggered cycles are observed too. Callbacks run on the
/// mutator's thread, before_collection with the pre-cycle heap,
/// after_collection once the flipped heap has been published to the
/// mutator (never for refused or unrecoverable cycles).
class CollectionObserver {
 public:
  virtual ~CollectionObserver() = default;
  virtual void before_collection(Runtime&) {}
  virtual void after_collection(Runtime&, const GcCycleStats&) {}
};

/// Result of a read probe over one object's data area (read_probe below):
/// the number of data words read and an FNV-1a 64 digest over them. The
/// trace subsystem records probes as (words, digest) pairs so a replayed
/// read can verify the heap content without shipping the words themselves.
struct ReadProbe {
  Word words = 0;
  std::uint64_t digest = 0;
};

/// Mutator-operation seam (src/trace/): every mutator-visible operation the
/// Runtime performs notifies the attached sink, in execution order, with
/// the *resulting* Ref for operations that create one. Null sink (the
/// default) costs one pointer test per operation and changes nothing else.
///
/// Allocation-triggered collections deliberately do NOT reach on_collect:
/// they are a deterministic consequence of the allocation sequence and the
/// heap size, so a replay reproduces them without an explicit event — which
/// is what makes record -> replay -> re-record a byte-identical round trip.
class RuntimeTraceSink {
 public:
  virtual ~RuntimeTraceSink() = default;
  virtual void on_alloc(Runtime&, std::size_t /*slot*/, Word /*pi*/,
                        Word /*delta*/) {}
  virtual void on_release(Runtime&, std::size_t /*slot*/) {}
  virtual void on_set_ptr(Runtime&, std::size_t /*obj_slot*/, Word /*field*/,
                          bool /*target_null*/, std::size_t /*target_slot*/) {}
  virtual void on_load_ptr(Runtime&, std::size_t /*obj_slot*/, Word /*field*/,
                           std::size_t /*out_slot*/) {}
  virtual void on_dup(Runtime&, std::size_t /*src_slot*/,
                      std::size_t /*out_slot*/) {}
  virtual void on_set_data(Runtime&, std::size_t /*obj_slot*/, Word /*j*/,
                           Word /*value*/) {}
  virtual void on_read(Runtime&, std::size_t /*obj_slot*/, const ReadProbe&) {}
  virtual void on_collect(Runtime&) {}
};

/// Pluggable collection backend: when attached, explicit and
/// allocation-triggered cycles run through it instead of the built-in
/// coprocessor. The plugin must leave the heap flipped with roots
/// redirected and the allocation pointer published (the CollectorHarness
/// contract). HarnessPlugin (conformance/harness.hpp) adapts any collector
/// in the inventory: the replayer drives one recorded trace under each.
class CollectorPlugin {
 public:
  virtual ~CollectorPlugin() = default;
  virtual GcCycleStats collect(Heap& heap) = 0;
};

class Runtime {
 public:
  /// A GC-safe object reference: a slot in the root table, kept up to date
  /// by every collection. Copyable; release() frees the slot.
  class Ref {
   public:
    Ref() = default;
    bool is_null() const noexcept { return slot_ == kInvalid; }

    /// Root-table slot index backing this reference (kInvalid for null).
    /// Exposed for state digests (service-layer shard checkpoints); not a
    /// heap address — use Runtime::address_of for that.
    std::size_t slot_index() const noexcept { return slot_; }

   private:
    friend class Runtime;
    explicit Ref(std::size_t slot) : slot_(slot) {}
    static constexpr std::size_t kInvalid = ~std::size_t{0};
    std::size_t slot_ = kInvalid;
  };

  explicit Runtime(Word semispace_words, SimConfig cfg = {});

  /// Allocates a rooted object with `pi` pointer fields and `delta` data
  /// words. Triggers a collection cycle when the semispace is exhausted;
  /// throws std::runtime_error if even a fresh semispace cannot satisfy
  /// the request.
  Ref alloc(Word pi, Word delta);

  /// Drops the root slot; the object stays alive only through other paths.
  void release(Ref ref);

  void set_ptr(Ref obj, Word field, Ref target);
  void set_ptr_null(Ref obj, Word field);

  /// Reads a pointer field and roots the referenced object in a new slot
  /// (returns a null Ref for a null field).
  Ref load_ptr(Ref obj, Word field);

  /// Roots the same object in a fresh slot (reference duplication); both
  /// refs must eventually be released independently.
  Ref dup(Ref ref);

  void set_data(Ref obj, Word j, Word value);
  Word get_data(Ref obj, Word j) const;
  Word pi(Ref obj) const;
  Word delta(Ref obj) const;

  /// Reads every data word of `obj` and returns (word count, FNV-1a 64
  /// digest). The one observable read operation of the runtime API: the
  /// trace recorder captures probes through the sink, and a replayed probe
  /// recomputes the digest against the replayed heap — a mismatch means the
  /// collector under replay corrupted (or failed to copy) the data area.
  ReadProbe read_probe(Ref obj);

  /// Checkpoint seam (service-layer shard checkpoint/restore). An Image is
  /// everything the mutator-visible runtime state consists of: the
  /// allocated prefix of the current semispace, the allocation frontier,
  /// the root table with its freelist, and the root high-water mark.
  /// History vectors (gc_history, recovery_history) are monotone logs, not
  /// state, and survive a restore untouched.
  struct Image {
    Addr base = 0;   ///< current-space base at capture (orientation)
    Addr alloc = 0;  ///< allocation frontier at capture
    std::vector<Word> words;             ///< [base, alloc) of current space
    std::vector<Addr> roots;             ///< full root table
    std::vector<std::size_t> free_slots; ///< root-slot freelist
    std::size_t root_high_water = 0;
  };

  /// Captures the current mutator-visible state. Cheap relative to a
  /// collection: one pass over the allocated prefix.
  Image save_image() const;

  /// Restores a previously captured image: flips the semispaces back to
  /// the captured orientation if needed, rewrites the allocated prefix,
  /// republishes the allocation frontier and root table, and re-enables
  /// the ECC shadow (healing any stale checksums) when it was active.
  void restore_image(const Image& img);

  /// Swaps the fault-injection plan for future collections — the fault
  /// storm's burst windows toggle per-shard injection on and off through
  /// this without rebuilding the runtime.
  void set_fault_config(const FaultConfig& f) noexcept { cfg_.fault = f; }

  /// Forces a collection cycle now.
  ///
  /// Section V-E restart condition: the main processor may only resume
  /// once every GC store has been committed. The runtime enforces it for
  /// every backend (collector plugin, recovery ladder, bare coprocessor) —
  /// a cycle that reports undrained store buffers (only possible through
  /// the skip_store_drain_for_test backdoor) is refused with
  /// std::logic_error and counted in drain_violations().
  ///
  /// With fault injection or recovery enabled in the config, the cycle
  /// runs through the RecoveringCollector instead of the bare
  /// coprocessor; per-cycle reports accumulate in recovery_history().
  const GcCycleStats& collect();

  /// Attaches an observability bus: every subsequent collection (explicit
  /// or allocation-triggered) publishes its full event stream there, each
  /// as its own epoch on one continuous timeline. Pass nullptr to detach.
  void set_telemetry(TelemetryBus* bus) noexcept { telemetry_ = bus; }
  TelemetryBus* telemetry() const noexcept { return telemetry_; }

  /// Turns per-cycle stall attribution on or off for future collections.
  /// Pay-for-use: off (the default) leaves every hot path untouched and
  /// keeps traces and telemetry bit-identical to a build without the
  /// profiler. On, every collection appends one CycleProfile to
  /// profile_history() — index-aligned with gc_history() as long as
  /// profiling stays enabled for the runtime's whole life (the service
  /// layer enables it at shard construction and never toggles it).
  void enable_profiling(bool on = true) noexcept { profiling_ = on; }
  bool profiling_enabled() const noexcept { return profiling_; }

  /// One CycleProfile per collection run while profiling was enabled
  /// (invalid — `valid == false` — for cycles that fell back to the
  /// sequential software collector, which runs outside the coprocessor
  /// clock).
  const std::vector<CycleProfile>& profile_history() const noexcept {
    return profile_history_;
  }

  /// Attaches an observer notified around every collection cycle (explicit
  /// or allocation-triggered). Pass nullptr to detach.
  void set_collection_observer(CollectionObserver* obs) noexcept {
    observer_ = obs;
  }
  CollectionObserver* collection_observer() const noexcept {
    return observer_;
  }

  /// Attaches a mutator-operation sink (trace recording). Pass nullptr to
  /// detach. See RuntimeTraceSink for the exact notification contract.
  void set_trace_sink(RuntimeTraceSink* sink) noexcept { sink_ = sink; }
  RuntimeTraceSink* trace_sink() const noexcept { return sink_; }

  /// Swaps the collection backend (trace replay under any collector). Pass
  /// nullptr to restore the built-in coprocessor. Incompatible with fault
  /// injection/recovery: collect() throws std::logic_error if both are
  /// configured, rather than silently picking one.
  void set_collector(CollectorPlugin* plugin) noexcept { plugin_ = plugin; }
  CollectorPlugin* collector() const noexcept { return plugin_; }

  /// Attaches a hardware signal trace sampled by every coprocessor-path
  /// collection (nullptr to detach). Used by the trace round-trip identity
  /// proof: record and replay of the same trace must produce bit-identical
  /// SignalTrace event streams.
  void set_signal_trace(SignalTrace* st) noexcept { signal_trace_ = st; }

  /// Current heap address of a rooted reference. Only stable until the
  /// next collection — exposed for tests and debugging tools (e.g. the
  /// shadow-mutator validation and the heap inspector example).
  Addr address_of(Ref ref) const { return addr(ref); }

  /// Statistics of every collection cycle run so far.
  const std::vector<GcCycleStats>& gc_history() const noexcept {
    return history_;
  }

  /// Recovery reports, one per collection, when cycles run through the
  /// fault-injection/recovery path (empty otherwise).
  const std::vector<RecoveryReport>& recovery_history() const noexcept {
    return recovery_history_;
  }

  /// Cycles that attempted to restart the mutator with undrained store
  /// buffers (each one also raised std::logic_error).
  std::uint64_t drain_violations() const noexcept { return drain_violations_; }
  std::uint64_t words_in_use() const noexcept { return heap_.used_words(); }
  std::uint64_t live_roots() const noexcept {
    return heap_.roots().size() - free_slots_.size();
  }

  /// Total root-table slots (live + freelisted). Released slots are reused
  /// before the table grows, so this never exceeds root_high_water() — the
  /// freelist-hygiene invariant the service layer's occupancy pacing
  /// depends on (and tests/test_runtime.cpp regression-tests).
  std::size_t root_count() const noexcept { return heap_.roots().size(); }

  /// Peak simultaneous live roots observed since construction.
  std::size_t root_high_water() const noexcept { return root_high_water_; }

  Heap& heap() noexcept { return heap_; }
  const Heap& heap() const noexcept { return heap_; }
  const SimConfig& config() const noexcept { return cfg_; }

 private:
  Addr addr(Ref ref) const;
  std::size_t take_slot(Addr a);

  /// Runs one cycle without notifying the trace sink — the shared body of
  /// collect() and the allocation-exhaustion path (which must stay
  /// unrecorded; see RuntimeTraceSink).
  const GcCycleStats& collect_now();

  Heap heap_;
  SimConfig cfg_;
  std::vector<std::size_t> free_slots_;
  std::vector<GcCycleStats> history_;
  std::vector<RecoveryReport> recovery_history_;
  std::vector<CycleProfile> profile_history_;
  bool profiling_ = false;
  std::uint64_t drain_violations_ = 0;
  std::size_t root_high_water_ = 0;
  TelemetryBus* telemetry_ = nullptr;
  CollectionObserver* observer_ = nullptr;
  RuntimeTraceSink* sink_ = nullptr;
  CollectorPlugin* plugin_ = nullptr;
  SignalTrace* signal_trace_ = nullptr;
};

}  // namespace hwgc
