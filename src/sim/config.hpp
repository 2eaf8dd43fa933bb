// Configuration of the simulated coprocessor, memory system and heap.
//
// Every knob the paper's evaluation turns is a field here:
//   - number of GC cores (Figure 5/6 sweeps 1..16),
//   - memory latency (Figure 6 adds an artificial +20 cycles),
//   - memory bandwidth (Section VII names it as the second scalability
//     limit),
//   - header-FIFO capacity (Section V-D, the `cup` discussion in VI-B),
//   - the mark-bit early-read optimization the authors propose for javac.
#pragma once

#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace hwgc {

/// Per-cycle core step order. The prototype arbitrates simultaneous SB
/// claims by static priority, which the simulator realizes by stepping
/// cores in index order (kFixedPriority). The other policies exist for
/// schedule-exploration testing: the algorithm's correctness must not
/// depend on which interleaving the arbiter happens to pick, so the fuzz
/// harness sweeps them all (src/fuzz/).
enum class SchedulePolicyKind : std::uint8_t {
  kFixedPriority = 0,  ///< index order — the paper's static prioritization
  kRotating,           ///< round-robin rotation of the highest-priority core
  kRandom,             ///< fresh seeded random permutation every cycle
  kAdversarial,        ///< cores holding an SB lock always step last
};

constexpr const char* to_string(SchedulePolicyKind k) noexcept {
  switch (k) {
    case SchedulePolicyKind::kFixedPriority: return "fixed";
    case SchedulePolicyKind::kRotating: return "rotating";
    case SchedulePolicyKind::kRandom: return "random";
    case SchedulePolicyKind::kAdversarial: return "adversarial";
  }
  return "?";
}

/// Bounds every configuration source shares — the trace loaders and the
/// CLI flags (cli::cores() and friends): a value past one fails by name
/// instead of being truncated, exhausting host memory or running into the
/// watchdog as a "hardware fault".
inline constexpr std::uint32_t kMaxCores = 1024;  ///< the prototype has 16
/// Header-FIFO entries; the prototype supports 32k.
inline constexpr std::uint32_t kMaxHeaderFifoCapacity = 1u << 20;
/// Extra completion latency per request, far above any real DRAM's spread.
inline constexpr Cycle kMaxLatencyJitter = 1u << 12;

/// Timing model of the off-chip memory (DDR-SDRAM module in the prototype).
struct MemoryConfig {
  /// Cycles between a *body* request being accepted by the scheduler and
  /// its data being available. Body accesses are highly sequential
  /// (Section V-D), so they stream from open DRAM rows; the prototype's
  /// effective latency is "a few clock cycles" (Section VI-B).
  /// Figure 6 uses base + 20.
  Cycle latency = 4;

  /// Completion latency of *header* transactions (both 32-bit header words
  /// move in one transaction over the 64-bit DDR interface). Headers show
  /// no spatial locality (Section V-D), so nearly every access pays a DRAM
  /// row activation on top of the base latency.
  Cycle header_latency = 10;

  /// Requests the memory system can start servicing per core clock cycle.
  /// Models the DDR interface running at 4x the 25 MHz core clock.
  std::uint32_t bandwidth_per_cycle = 4;

  /// Header cache (Section VII, future work 2): an on-chip direct-mapped
  /// tag store for header transactions. Hot headers (javac's symbol hubs,
  /// re-checked fromspace headers) then complete in
  /// header_cache_hit_latency cycles instead of paying the DRAM row miss.
  /// 0 disables the cache — the paper's measured configuration.
  std::uint32_t header_cache_entries = 0;
  Cycle header_cache_hit_latency = 2;

  /// Schedule-exploration fuzzing: maximum extra completion latency added
  /// per accepted request, uniform in [0, latency_jitter] from a stream
  /// seeded with `jitter_seed`. Nonzero jitter makes completions within a
  /// latency class retire out of acceptance order, probing orderings a
  /// real DRAM controller (bank conflicts, refresh) could produce. 0 keeps
  /// the prototype's constant per-class latencies.
  Cycle latency_jitter = 0;
  std::uint64_t jitter_seed = 0;
};

/// Configuration of the multi-core GC coprocessor.
struct CoprocessorConfig {
  /// Number of GC cores, 1..16 in the prototype. One core behaves exactly
  /// like sequential Cheney (Section VI-B).
  std::uint32_t num_cores = 8;

  /// Capacity (entries) of the on-chip gray-header FIFO. Each entry caches
  /// one evacuated tospace header (attributes + backlink). The prototype
  /// supports up to 32k entries. 0 disables the FIFO entirely.
  std::uint32_t header_fifo_capacity = 32 * 1024;

  /// Sub-object work distribution (Section VII, future work 1): the data
  /// areas of large objects are split into cache-line-sized stripes that
  /// idle cores copy in parallel through the SB's stripe dispenser. Off by
  /// default, as in the paper's measured configuration.
  bool subobject_copy = false;

  /// Stripe length in words (16 words = one 64-byte cache line).
  Word stripe_words = 16;

  /// Objects whose data area has at least this many words are striped.
  Word stripe_threshold = 64;

  /// Mark-bit early-read optimization (Section VI-B, javac discussion):
  /// read the mark bit without acquiring the header lock first, and only
  /// perform a locking read when the bit is clear. Off by default, as in
  /// the paper's measured configuration.
  bool markbit_early_read = false;

  /// Per-cycle core step order (see SchedulePolicyKind). Anything other
  /// than kFixedPriority deviates from the prototype's arbitration and is
  /// meant for correctness fuzzing, not for performance measurement.
  SchedulePolicyKind schedule = SchedulePolicyKind::kFixedPriority;

  /// Seed for the kRandom permutation stream (ignored by other policies).
  std::uint64_t schedule_seed = 0;

  /// Record a per-cycle signal trace (costly; for debugging/inspection).
  bool enable_trace = false;

  /// Event-driven fast-forward of the clock loop: when every core is
  /// quiescent (done, fail-stopped, or stalled on a condition only a
  /// future memory completion / fault window / watchdog boundary can
  /// change) the clock jumps to the next such event instead of ticking.
  /// It also parks cores whose next steps repeat their record.
  /// Observationally invisible — GcCycleStats and every observer's output
  /// are bit-identical to the ticked run (enforced by
  /// tests/test_fast_forward.cpp; invariants in DESIGN.md §13). A non-fixed
  /// schedule policy bypasses the jump (parking still applies).
  bool fast_forward = true;

  /// Watchdog: abort a collection cycle that exceeds this many clock
  /// cycles. With a fault-free coprocessor this is a modeling-bug backstop
  /// (the algorithm is deadlock-free); under fault injection the recovery
  /// layer tightens it to a budget derived from the live bytes so hangs
  /// (dropped transactions, fail-stopped cores, stuck busy bits) are
  /// detected in bounded time.
  Cycle watchdog_cycles = 4'000'000'000ULL;

  /// TESTING BACKDOOR: restart the main processor as soon as the cores
  /// halt, without waiting for the store buffers to drain — deliberately
  /// violating the Section V-E restart condition so the Runtime-level
  /// drain check can be regression-tested. Never set outside tests.
  bool skip_store_drain_for_test = false;
};

/// Hardware fault injection (src/fault/). A nonzero `events` derives a
/// seeded FaultPlan: each event targets one fault class (memory drop /
/// duplicate / delay / single-bit corrupt per port class, SB lock-grant
/// delay, stuck ScanState busy bit, core transient stall or fail-stop) on
/// one physical core. The class values are FaultKind (fault/fault_plan.hpp);
/// `class_mask` selects which classes the plan may draw from (bit i enables
/// FaultKind i).
struct FaultConfig {
  std::uint64_t seed = 0;

  /// Number of fault events to derive; 0 disables injection entirely.
  std::uint32_t events = 0;

  /// Probability that an event is a *hard* (persistent) fault that re-fires
  /// on every retry until its target core is deconfigured. The remainder
  /// are transients that fire at most once across the whole collection.
  double persistent_fraction = 0.25;

  /// Bitmask over FaultKind values (fault/fault_plan.hpp). Default: all.
  std::uint32_t class_mask = 0xffffffffu;

  /// Scale of fault trigger points: memory-transaction triggers are drawn
  /// from [0, trigger_scale), cycle triggers from [0, 8 * trigger_scale).
  std::uint32_t trigger_scale = 512;

  bool enabled() const noexcept { return events > 0; }
};

/// Detection-and-recovery machinery (src/fault/recovery.hpp): watchdog
/// budget derived from live bytes, header ECC verification, end-of-cycle
/// heap verification, and the abort-and-retry / core-deconfiguration /
/// sequential-fallback escalation ladder. Fromspace is intact until the
/// flip, so an aborted cycle is recovered by restoring the pre-cycle image
/// and re-running the whole collection.
struct RecoveryConfig {
  /// Force the recovery wrapper even with an empty fault plan (useful to
  /// measure the detection machinery's overhead in fault-free runs).
  bool enabled = false;

  /// Watchdog budget = base + per_live_word * live words of the cycle.
  /// Generous upper bounds: a healthy collection is far below them (even a
  /// single core at full memory latency stays under ~60 cycles/word, and
  /// the base absorbs injected delay/stall windows), while a hang is still
  /// detected in time proportional to the live set.
  Cycle watchdog_base = 25'000;
  Cycle watchdog_per_live_word = 128;

  /// Aborted attempts allowed per core configuration before escalating
  /// (deconfigure the suspect core, or fall back to sequential Cheney).
  std::uint32_t max_retries = 2;

  /// Allow dropping a suspect core and re-running on N-1 cores.
  bool allow_deconfigure = true;

  /// Allow the last-resort escalation: run the software sequential Cheney
  /// collector (the main processor collects; the coprocessor is bypassed).
  bool allow_sequential_fallback = true;

  /// Run the end-of-cycle heap verifier after every attempt — the
  /// crash-consistency check before the mutator is restarted.
  bool verify_heap = true;

  /// Maintain and check the per-word header checksum (ECC-style): cores
  /// verify both header words on every header load consumption.
  bool header_ecc = true;
};

/// Heap geometry.
struct HeapConfig {
  /// Words per semispace. The paper sizes the heap at twice the minimal
  /// heap (Section VI-B); generators compute this from their live set.
  std::uint32_t semispace_words = 1u << 22;  // 16 MiB of 32-bit words
};

/// Bundle of all knobs for one simulation run.
struct SimConfig {
  CoprocessorConfig coprocessor;
  MemoryConfig memory;
  HeapConfig heap;
  FaultConfig fault;
  RecoveryConfig recovery;

  /// Human-readable one-line summary, used by bench harness headers.
  std::string summary() const {
    std::string s = "cores=" + std::to_string(coprocessor.num_cores) +
                    " lat=" + std::to_string(memory.latency) +
                    " bw=" + std::to_string(memory.bandwidth_per_cycle) +
                    " fifo=" + std::to_string(coprocessor.header_fifo_capacity) +
                    " earlyread=" + (coprocessor.markbit_early_read ? "on" : "off");
    if (coprocessor.schedule != SchedulePolicyKind::kFixedPriority) {
      s += std::string(" sched=") + to_string(coprocessor.schedule);
    }
    if (memory.latency_jitter != 0) {
      s += " jitter=" + std::to_string(memory.latency_jitter);
    }
    if (fault.enabled()) {
      s += " faults=" + std::to_string(fault.events) + "@" +
           std::to_string(fault.seed);
    }
    return s;
  }
};

}  // namespace hwgc
