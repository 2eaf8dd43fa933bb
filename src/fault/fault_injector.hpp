// FaultInjector — executes a FaultPlan against one collection attempt.
//
// The injector is the cross-cutting piece the hardware modules consult:
//   * MemorySystem asks on_mem_accept() for every transaction it accepts
//     and applies the returned action (drop / ghost-duplicate / delay);
//     single-bit corruption is applied by the injector itself through the
//     attached WordMemory (the functional store), bypassing the ECC shadow.
//   * SyncBlock asks lock_grant_suppressed() before granting the scan or
//     free lock, and busy_stuck() when reading the ScanState register.
//   * Coprocessor asks core_fate() before stepping each core in its walk.
//
// Core identities: fault events target PHYSICAL cores; the hardware modules
// pass LOGICAL core indices of the current attempt. begin_attempt() installs
// the logical->physical mapping for the attempt's active set, so events
// bound to a deconfigured physical core simply never fire again.
//
// Transient events fire at most once across the whole collection (retries
// included); persistent events re-arm on every attempt.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace hwgc {

class WordMemory;
class TelemetryBus;

/// What the memory scheduler must do with an accepted transaction.
struct MemFaultAction {
  enum class Kind : std::uint8_t { kNone = 0, kDrop, kDuplicate };
  Kind kind = Kind::kNone;
  Cycle extra_delay = 0;   ///< kMemDelay contribution (combinable with kNone)
  Word replay_value = 0;   ///< kDuplicate: stale value the ghost store carries
  Cycle ghost_lag = 0;     ///< kDuplicate: cycles the ghost trails the original
};

/// What the clock loop must do with a core this cycle.
enum class CoreFate : std::uint8_t { kRun = 0, kStall, kStopped };

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Functional memory the corrupt/duplicate classes act on. Must be set
  /// before the first attempt when the plan contains memory faults.
  void attach_memory(WordMemory* mem) noexcept { mem_ = mem; }

  /// Optional trace: every fired event is note()d with its clock cycle.
  void attach_trace(SignalTrace* trace) noexcept { trace_ = trace; }

  /// Optional bus: every fired event becomes an instant on its "faults"
  /// track, so injections line up with the stalls they cause.
  void attach_telemetry(TelemetryBus* bus) noexcept { tel_ = bus; }

  /// Starts an attempt: logical core i of this attempt is physical core
  /// active_physical[i]. Re-arms persistent events; resets per-attempt
  /// transaction counters and fire counts.
  void begin_attempt(std::uint32_t attempt,
                     const std::vector<CoreId>& active_physical);

  /// Clock edge, called once per cycle before any hardware hook.
  void begin_clock(Cycle now) noexcept { now_ = now; }

  // --- hooks (logical core ids) ------------------------------------------

  MemFaultAction on_mem_accept(CoreId logical, Port port, MemOp op, Addr addr);

  /// Ghost duplicate retiring: replay the stale value into memory.
  void on_ghost_store_retire(Addr addr, Word value);

  bool lock_grant_suppressed(LockKind lock);

  /// Consulted by the SB at the moment a free-lock grant would succeed:
  /// a kCoreFailStop event with when_holding_free set kills the core right
  /// there, inside the 1-cycle critical section. Returns true when the core
  /// died — the SB then leaves the lock held by the dead core forever (the
  /// nastiest hang: every other core stalls on the free lock).
  bool free_grant_fatal(CoreId logical);

  bool busy_stuck(CoreId logical);

  /// `holds_free`: whether the core currently owns the free lock — used by
  /// fail-stop events conditioned on the free critical section.
  CoreFate core_fate(CoreId logical, bool holds_free);

  // --- pure views (parking and the clock jump) ----------------------------
  //
  // The clock loop parks a core whose fate or lock grant only a fault
  // boundary can change, and jumps the clock while every core is parked.
  // Neither may consult the mutating hooks above (a consult can fire an
  // event, which is itself observable). These const views expose the
  // boundaries instead: every parked core rejoins the walk at the next
  // boundary and on every cycle ff_blocked() holds, and no jump crosses a
  // boundary, so armed events always fire on stepped cycles, at exactly
  // the cycle a ticked run fires them, in the same order.

  /// True when some armed, not-yet-fired cycle-triggered event is already
  /// due at `now` (it would fire on the next consult): every core must be
  /// stepped this cycle, and the cycle must not be skipped.
  bool ff_blocked(Cycle now) const noexcept;

  /// Next cycle boundary strictly after `now` at which any cycle-triggered
  /// event's behavior changes: an armed trigger (window entry / fail-stop /
  /// stuck-busy onset) or a window exit of an armed-or-latched kCoreStall /
  /// kLockDelay. ~Cycle{0} when none.
  Cycle next_cycle_boundary(Cycle now) const noexcept;

  /// busy_stuck() restricted to latched events (pure).
  bool stuck_busy_steady(CoreId logical) const noexcept;

  // --- accounting ----------------------------------------------------------

  const FaultPlan& plan() const noexcept { return plan_; }
  std::uint64_t fired_total() const noexcept { return fired_total_; }
  std::uint64_t fired_this_attempt() const noexcept { return fired_attempt_; }
  std::uint64_t fired_by_kind(FaultKind k) const noexcept {
    return fired_by_kind_[static_cast<std::size_t>(k)];
  }

  /// Human-readable log of every fired event ("cycle 123: mem-drop ...").
  const std::vector<std::string>& log() const noexcept { return log_; }

 private:
  struct EventState {
    bool armed = false;        ///< may still fire in this attempt
    bool fired_ever = false;   ///< transients: fired in some earlier attempt
    bool latched = false;      ///< standing condition active for the attempt
    std::uint64_t matches = 0; ///< mem faults: matching transactions seen
  };

  /// Marks event `i` fired at the current cycle.
  void fire(std::size_t i);

  FaultPlan plan_;
  std::vector<EventState> state_;
  std::vector<CoreId> logical_to_physical_;
  WordMemory* mem_ = nullptr;
  SignalTrace* trace_ = nullptr;
  TelemetryBus* tel_ = nullptr;
  Cycle now_ = 0;
  std::uint32_t attempt_ = 0;
  std::uint64_t fired_total_ = 0;
  std::uint64_t fired_attempt_ = 0;
  std::vector<std::uint64_t> fired_by_kind_ =
      std::vector<std::uint64_t>(kFaultKindCount, 0);
  std::vector<std::string> log_;
};

}  // namespace hwgc
