#include "core/coprocessor.hpp"

#include <stdexcept>
#include <vector>

#include "core/gc_core.hpp"
#include "core/schedule_policy.hpp"
#include "core/sync_block.hpp"
#include "fault/fault_injector.hpp"
#include "mem/header_fifo.hpp"
#include "mem/memory_system.hpp"
#include "profile/cycle_profiler.hpp"
#include "sim/abort.hpp"
#include "sim/clock_observer.hpp"
#include "telemetry/telemetry_bus.hpp"

namespace hwgc {

GcCycleStats Coprocessor::collect(SignalTrace* trace,
                                  ScheduleTrace* schedule_trace,
                                  FaultInjector* fault,
                                  TelemetryBus* telemetry,
                                  CycleProfiler* profiler) {
  const std::uint32_t n = cfg_.coprocessor.num_cores;
  if (n == 0) throw std::invalid_argument("coprocessor needs >= 1 core");

  // Every attached sink subscribes to one event stream: `obs` is null, the
  // only sink, or a fan-out over all of them.
  ClockFanout fanout;
  ClockObserver* const obs =
      fanout.over({trace, schedule_trace, telemetry, profiler});

  SyncBlock sb(n, fault, obs);
  MemorySystem mem(cfg_.memory, n, fault, obs);
  HeaderFifo fifo(cfg_.coprocessor.header_fifo_capacity, obs);
  GcContext ctx{sb, mem, fifo, heap_, cfg_.coprocessor};
  if (obs != nullptr) {
    obs->on_collection_begin(n);
    obs->on_phase(GcPhase::kRootEvacuation);
  }

  const Addr tospace_base = heap_.layout().tospace_base();
  sb.set_scan(tospace_base);
  sb.set_free(tospace_base);
  sb.set_alloc_top(heap_.layout().tospace_end());

  std::vector<GcCore> cores;
  cores.reserve(n);
  for (CoreId id = 0; id < n; ++id) cores.emplace_back(id, ctx);

  const auto policy = make_schedule_policy(cfg_.coprocessor.schedule,
                                           cfg_.coprocessor.schedule_seed);
  std::vector<CoreId> step_order;
  step_order.reserve(n);
  // The fixed-priority policy is stateless and always yields index order,
  // so its permutation is computed once instead of every cycle.
  const bool fixed_order =
      cfg_.coprocessor.schedule == SchedulePolicyKind::kFixedPriority;
  if (fixed_order) policy->order(0, sb, step_order);

  GcCycleStats stats;
  Cycle now = 0;
  const std::uint64_t start_gen = sb.barrier_generation();

  // Done bookkeeping: kDone is absorbing, so a per-core flag plus a count
  // replaces the every-cycle all-cores scan, and (fault-free) lets the
  // step loop skip finished cores entirely.
  std::vector<std::uint8_t> core_done(n, 0);
  std::uint32_t done_count = 0;

  // Watchdog activity monitor: the last cycle each core was clocked (work,
  // idle spin or stall all count), so an expiry can localize the core that
  // stopped making progress — a fail-stopped core misses its clock.
  std::vector<Cycle> last_change(n, 0);

  bool cores_halted = false;
  Cycle halted_at = 0;
  bool in_scan_phase = false;
  bool worklist_empty = false;  // Table I condition of the last cycle

  // Watchdog expiry (shared by the ticked path and the fast-forward jump
  // to the budget boundary). Localize a suspect before aborting. First
  // preference: a ScanState bit that reads busy while the core's
  // architectural bit is clear (stuck-at-1 fault). Second: the unfinished
  // core that has missed its clock the longest — a core that missed it
  // for an eighth of the whole budget is fail-stopped, not slow.
  const auto watchdog_abort = [&]() {
    CoreId suspect = kNoCore;
    for (CoreId c = 0; c < n && suspect == kNoCore; ++c) {
      if (sb.busy(c) && !sb.busy_raw(c)) suspect = c;
    }
    if (suspect == kNoCore) {
      Cycle worst = cfg_.coprocessor.watchdog_cycles / 8;
      for (CoreId c = 0; c < n; ++c) {
        if (cores[c].done()) continue;
        const Cycle stale = now - last_change[c];
        if (stale > worst) {
          worst = stale;
          suspect = c;
        }
      }
    }
    throw CollectionAbort(AbortReason::kWatchdog,
                          "GC coprocessor watchdog expired after " +
                              std::to_string(now) + " cycles" +
                              (suspect == kNoCore
                                   ? std::string{}
                                   : ", suspect core " +
                                         std::to_string(suspect)),
                          suspect, now);
  };

  // Done and progress bookkeeping, from each core's record of cycle `at`.
  const auto note_progress = [&](Cycle at) {
    for (CoreId c = 0; c < n; ++c) {
      if (core_done[c] == 0 && cores[c].done()) {
        core_done[c] = 1;
        ++done_count;
      }
      if (cores[c].cycle().activity != CoreActivity::kOff) last_change[c] = at;
    }
  };

  // The cycle just observed repeats k more times: the per-core counters,
  // the Table-I counter and every subscriber fold it in bulk.
  const auto absorb = [&](Cycle k) {
    stats.fast_forwarded_cycles += k;
    for (GcCore& core : cores) core.absorb(k);
    if (worklist_empty) stats.worklist_empty_cycles += k;
    if (obs != nullptr) obs->absorb(k);
  };

  // Event-driven fast-forward (DESIGN.md §13): when every component is
  // quiescent — memory ticks are pure waiting, every core's next steps
  // repeat its record of the cycle just observed — jump the clock to the
  // next event (memory completion, fault boundary or watchdog budget)
  // instead of ticking, and absorb the skipped cycles. Restricted to the
  // fixed-priority schedule: the other policies mutate per-cycle state in
  // order().
  const bool ff_active = cfg_.coprocessor.fast_forward && fixed_order;
  std::vector<GcCore::FfPoll> polls(n);
  const auto try_fast_forward = [&]() -> Cycle {
    // Memory gate: nothing acceptable queued, no completion due this cycle.
    if (!mem.ff_quiescent()) return 0;
    const Cycle completion = mem.next_completion();
    if (completion <= now) return 0;
    // Fault gate: no armed event may be due (it would fire on a consult
    // this cycle) and no steady state may change before the jump target.
    if (fault != nullptr && fault->ff_blocked(now)) return 0;
    Cycle target = cfg_.coprocessor.watchdog_cycles;
    if (completion < target) target = completion;
    if (fault != nullptr) {
      const Cycle boundary = fault->next_cycle_boundary(now);
      if (boundary < target) target = boundary;
    }
    if (target <= now) return 0;

    if (cores_halted) {
      // The halting cycle clocked the cores; only a drain cycle repeats.
      return now - 1 == halted_at ? 0 : target - now;
    }
    // Every core must be steady, repeating its record of the last cycle.
    // An injected fate (fail-stop, latched stall window) overrides the
    // state machine, exactly as core_fate() does before step().
    bool all_idle_steady = true;
    for (CoreId c = 0; c < n && all_idle_steady; ++c) {
      all_idle_steady = !sb.busy_raw(c) &&
                        (fault == nullptr || !fault->stuck_busy_steady(c));
    }
    for (CoreId c = 0; c < n; ++c) {
      GcCore::FfPoll& p = polls[c];
      const CoreFate fate =
          fault != nullptr ? fault->steady_fate(c, now) : CoreFate::kRun;
      if (fate != CoreFate::kRun) {
        p = GcCore::FfPoll{};
        p.steady = true;  // fail-stopped: kOff
        if (fate == CoreFate::kStall) {
          p.cycle = {CoreActivity::kStall, StallReason::kFault};
        }
      } else {
        p = cores[c].ff_poll();
        if (p.cycle.activity == CoreActivity::kIdle && all_idle_steady &&
            sb.stripes_idle()) {
          return 0;  // the spin ends: this core observes termination now
        }
        if (!p.steady && p.if_suppressed != StallReason::kNone &&
            fault != nullptr &&
            fault->lock_suppressed_steady(
                p.if_suppressed == StallReason::kScanLock ? LockKind::kScan
                                                          : LockKind::kFree,
                now)) {
          p.steady = true;
          p.cycle = {CoreActivity::kStall, p.if_suppressed};
        }
      }
      if (!p.steady || p.cycle != cores[c].cycle()) return 0;
    }
    // A lock waiter is steady only while the holder is: the holder must
    // itself be stalled (memory wait, fault stall) or fail-stopped.
    for (const GcCore::FfPoll& p : polls) {
      if (p.blocker != kNoCore &&
          polls[p.blocker].cycle.activity == CoreActivity::kIdle) {
        return 0;
      }
    }
    return target - now;
  };

  try {
  while (true) {
    if (ff_active) {
      const Cycle skipped = try_fast_forward();
      if (skipped > 0) {
        absorb(skipped);
        now += skipped;
        note_progress(now - 1);
        if (now >= cfg_.coprocessor.watchdog_cycles) {
          // Mirror the ticked run exactly: its last begin_clock() before
          // the expiry was for the final (here: skipped) cycle, and the
          // suspect scan's busy() consults run against that clock.
          if (fault != nullptr) fault->begin_clock(now - 1);
          watchdog_abort();
        }
      }
    }
    if (!cores_halted && !fixed_order) policy->order(now, sb, step_order);
    if (obs != nullptr) {
      obs->on_cycle_begin(now, cores_halted ? nullptr : &step_order);
    }
    if (fault != nullptr) fault->begin_clock(now);
    mem.tick(now);
    if (!cores_halted) {
      sb.begin_cycle();
      for (CoreId c : step_order) {
        GcCore& core = cores[c];
        if (fault != nullptr) {
          const CoreFate fate = fault->core_fate(c, sb.holds_free(c));
          if (fate == CoreFate::kStopped) {
            core.miss_clock();  // fail-stop: no clock
          } else if (fate == CoreFate::kStall) {
            core.note_fault_stall();
          } else {
            core.step(now);
          }
        } else if (core_done[c] != 0) {
          core.miss_clock();  // fault-free: a finished core's step is a no-op
        } else {
          core.step(now);
        }
        if (obs != nullptr) obs->on_core_cycle(c, core.cycle());
      }
      note_progress(now);
      cores_halted = done_count == n;
      // Table I: cycles during which the worklist is empty. Counted over
      // the parallel scan phase (after the start barrier released).
      const bool scanning = sb.barrier_generation() > start_gen;
      worklist_empty = !cores_halted && scanning && sb.worklist_empty();
      if (worklist_empty) ++stats.worklist_empty_cycles;
      if (obs != nullptr) {
        if (!in_scan_phase && scanning) {
          in_scan_phase = true;
          obs->on_phase(GcPhase::kParallelScan);
        }
        if (cores_halted) obs->on_phase(GcPhase::kDrain);
        obs->on_cycle_end(
            {now, false, sb.scan(), sb.free(), sb.busy_count()});
      }
      if (cores_halted) {
        // Store drain: from here on every core misses its clock.
        halted_at = now;
        for (GcCore& core : cores) core.miss_clock();
      }
    } else if (obs != nullptr) {
      obs->on_cycle_end({now, true});
    }
    ++now;
    if (cores_halted && (mem.stores_drained() ||
                         cfg_.coprocessor.skip_store_drain_for_test)) {
      break;  // flush complete (or deliberately defeated by a test)
    }
    if (now >= cfg_.coprocessor.watchdog_cycles) watchdog_abort();
  }
  } catch (const CollectionAbort& abort) {
    if (obs != nullptr) obs->on_collection_end(now, &abort);
    throw;
  }

  // "Restart the main processor": publish the compacted heap.
  const Addr free_final = sb.free();
  heap_.flip();
  heap_.set_alloc_ptr(free_final);
  if (obs != nullptr) obs->on_collection_end(now, nullptr);

  stats.total_cycles = now;
  stats.drain_cycles = now - halted_at;
  stats.restart_stores_drained = mem.stores_drained();
  stats.faults_fired = fault != nullptr ? fault->fired_this_attempt() : 0;
  stats.words_copied = free_final - tospace_base;
  stats.fifo_overflows = fifo.overflows();
  stats.fifo_hits = fifo.hits();
  stats.fifo_misses = fifo.misses();
  stats.mem_requests = mem.requests_issued();
  stats.lock_order_violations = sb.violations();
  stats.per_core.reserve(n);
  for (const auto& c : cores) {
    stats.per_core.push_back(c.counters());
    stats.objects_copied += c.counters().objects_evacuated;
    stats.pointers_forwarded += c.counters().pointers_processed;
  }
  return stats;
}

}  // namespace hwgc
