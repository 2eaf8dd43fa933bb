#include "core/coprocessor.hpp"

#include <bit>
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
  // The cycle whose clock edge was published last: it stamps every event
  // the observer gets without a cycle of its own.
  Cycle edge = 0;

  SyncBlock sb(n, fault, obs);
  MemorySystem mem(cfg_.memory, n, fault, obs);
  HeaderFifo fifo(cfg_.coprocessor.header_fifo_capacity, obs);
  GcContext ctx{sb, mem, fifo, heap_, cfg_.coprocessor};
  if (obs != nullptr) {
    obs->on_collection_begin(n, edge);
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

  // Publication per change (sim/clock_observer.hpp): the record last
  // published for each core (kOff before the first cycle), the step order
  // and the sample last published.
  std::vector<CoreCycle> shown(n);
  std::vector<CoreId> shown_order;
  ClockSample shown_sample{0, false, ~Addr{0}, ~Addr{0}, ~std::uint32_t{0}};
  const auto show = [&](CoreId c, Cycle at, CoreCycle rec) {
    if (obs != nullptr && rec != shown[c]) {
      shown[c] = rec;
      obs->on_core_run(c, at, rec);
    }
  };
  const auto show_order = [&](Cycle at) {
    if (obs != nullptr && step_order != shown_order) {
      shown_order = step_order;
      obs->on_step_order(at, &step_order);
    }
  };
  if (fixed_order) show_order(0);

  GcCycleStats stats;
  Cycle now = 0;
  const std::uint64_t start_gen = sb.barrier_generation();

  // Done bookkeeping, kept by the step loop: kDone is absorbing, so a
  // per-core flag plus a count tells when every core has halted, and
  // (fault-free) lets the step loop skip finished cores entirely.
  std::vector<std::uint8_t> core_done(n, 0);
  std::uint32_t done_count = 0;

  // Watchdog activity monitor: the last cycle each core was clocked (work,
  // idle spin or stall all count), so an expiry can localize the core that
  // stopped making progress — a fail-stopped core misses its clock.
  std::vector<Cycle> last_change(n, 0);

  // Parked cores (DESIGN.md §13). A fault-free core that waits on an
  // in-flight load repeats that stall, touching nothing, until the load
  // retires; one that only polled SyncBlock state (a spin on an
  // empty worklist, a wait for a held lock) repeats the poll until the
  // SyncBlock's work_version() moves. Either is parked from the next cycle
  // on (`parked_since`) and not stepped while its condition holds: until
  // the memory system's wake list names it, or until the version it parked
  // at (`parked_version`) is stale at its turn. The skipped cycles are
  // charged on wake in one absorb(k), and an observer sees none of them:
  // the core's run simply lasts. Fault runs keep consulting every core's
  // fate every cycle, and fast_forward=false stays the pure ticked
  // reference.
  constexpr Cycle kAwake = ~Cycle{0};
  constexpr std::uint64_t kOnLoad = ~std::uint64_t{0};
  const bool park_active = cfg_.coprocessor.fast_forward && fault == nullptr;
  std::vector<Cycle> parked_since(n, kAwake);
  std::vector<std::uint64_t> parked_version(n, kOnLoad);

  // The step loop walks only the runnable cores, in step order: as set bits
  // in index order under the fixed policy, through step_order otherwise. A
  // core leaves the set while it waits on a load or once it has finished.
  // (A polling core stays: a version check at its turn is what wakes it.)
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> runnable(words, ~std::uint64_t{0});
  if (n % 64 != 0) runnable.back() = (std::uint64_t{1} << (n % 64)) - 1;
  const auto set_runnable = [&](CoreId c, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (c % 64);
    runnable[c / 64] = on ? runnable[c / 64] | bit : runnable[c / 64] & ~bit;
  };
  // A core parked on its load leaves the walk, unless the stall it parked
  // with is still to be published: then it stays for one more turn.
  const auto park = [&](CoreId c, std::uint64_t version) {
    parked_since[c] = now + 1;
    parked_version[c] = version;
    if (version == kOnLoad &&
        (obs == nullptr || cores[c].cycle() == shown[c])) {
      set_runnable(c, false);
    }
  };
  // A parked core whose next step would still repeat its record.
  const auto still_parked = [&](CoreId c) {
    return parked_since[c] != kAwake &&
           (parked_version[c] == kOnLoad ||
            parked_version[c] == sb.work_version());
  };
  const auto wake = [&](CoreId c) {
    cores[c].absorb(now - parked_since[c]);
    parked_since[c] = kAwake;
    set_runnable(c, true);
  };

  bool cores_halted = false;
  Cycle halted_at = 0;
  bool in_scan_phase = false;
  bool worklist_empty = false;  // Table I condition of the last cycle
  bool busy_recorded = false;   // some core's record of the last cycle: kBusy

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
        // A parked core is clocked every cycle, stepped or not.
        const Cycle seen =
            parked_since[c] != kAwake ? now - 1 : last_change[c];
        const Cycle stale = now - seen;
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

  // The cycle just observed repeats k more times: the per-core counters
  // and the Table-I counter fold it in bulk. A parked core is charged on
  // wake for every cycle since it parked, jumps included.
  const auto absorb = [&](Cycle k) {
    stats.fast_forwarded_cycles += k;
    for (CoreId c = 0; c < n; ++c) {
      if (parked_since[c] == kAwake) cores[c].absorb(k);
    }
    if (worklist_empty) stats.worklist_empty_cycles += k;
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
    // A busy record never repeats: no steady poll below can match it.
    if (busy_recorded) return 0;
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
    const bool all_idle_steady = sb.busy_count() == 0;
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
      } else if (parked_since[c] != kAwake && parked_version[c] == kOnLoad) {
        p = GcCore::FfPoll{};
        p.steady = true;  // still waiting on its load
        p.cycle = cores[c].cycle();
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

  // An abort thrown inside a cycle (`cycle_open`) closes it for the
  // observer first: the cores the walk had not reached yet — from the one
  // it was stepping (`walking`) on in step order, all of them before the
  // walk began — missed that cycle's clock.
  bool cycle_open = false;
  CoreId walking = kNoCore;
  const auto close_aborted_cycle = [&]() {
    if (!cycle_open) return;
    bool missed = walking == kNoCore;
    for (CoreId c : step_order) {
      missed = missed || c == walking;
      if (missed) show(c, now, CoreCycle{});
    }
  };

  try {
  while (true) {
    if (ff_active) {
      const Cycle skipped = try_fast_forward();
      if (skipped > 0) {
        absorb(skipped);
        now += skipped;
        // The jump repeated every record, so no core finished; each core
        // clocked in the observed cycle was clocked through the jump too.
        for (CoreId c = 0; c < n; ++c) {
          if (cores[c].cycle().activity != CoreActivity::kOff) {
            last_change[c] = now - 1;
          }
        }
        if (now >= cfg_.coprocessor.watchdog_cycles) {
          // Mirror the ticked run exactly: its last begin_clock() before
          // the expiry was for the final (here: skipped) cycle, and the
          // suspect scan's busy() consults run against that clock.
          edge = now - 1;
          if (fault != nullptr) fault->begin_clock(now - 1);
          watchdog_abort();
        }
      }
    }
    edge = now;
    cycle_open = true;
    walking = kNoCore;
    if (!cores_halted) {
      if (!fixed_order) {
        policy->order(now, sb, step_order);
        show_order(now);
      }
    } else if (obs != nullptr && now == halted_at + 1) {
      // The first store-drain cycle: every core misses its clock from here.
      obs->on_step_order(now, nullptr);
      for (CoreId c = 0; c < n; ++c) show(c, now, CoreCycle{});
    }
    if (fault != nullptr) fault->begin_clock(now);
    mem.tick(now);
    for (CoreId c : mem.woken()) {
      if (parked_since[c] != kAwake) wake(c);
    }
    if (!cores_halted) {
      sb.begin_cycle();
      busy_recorded = false;
      // The walk over the runnable cores. Stepping a core changes only its
      // own runnable bit, so each word is read once.
      std::size_t pos = 0;
      std::size_t w = 0;
      std::uint64_t bits = runnable[0];
      const auto next_core = [&](CoreId& c) {
        if (!fixed_order) {
          while (pos < step_order.size()) {
            c = step_order[pos++];
            if ((runnable[c / 64] >> (c % 64) & 1) != 0) return true;
          }
          return false;
        }
        while (bits == 0) {
          if (++w == words) return false;
          bits = runnable[w];
        }
        c = static_cast<CoreId>(w * 64 + std::countr_zero(bits));
        bits &= bits - 1;
        return true;
      };
      for (CoreId c = 0; next_core(c);) {
        GcCore& core = cores[c];
        if (still_parked(c)) {
          // Its record of this cycle repeats. A core that parked on the
          // load it just issued publishes that stall here, then leaves.
          show(c, now, core.cycle());
          if (parked_version[c] == kOnLoad) set_runnable(c, false);
          continue;
        }
        if (parked_since[c] != kAwake) {
          wake(c);  // the state it polls has changed: step it
        }
        walking = c;
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
          set_runnable(c, false);
        } else {
          core.step(now);
        }
        const CoreCycle rec = core.cycle();
        show(c, now, rec);
        if (rec.activity != CoreActivity::kOff) last_change[c] = now;
        if (rec.activity == CoreActivity::kBusy) busy_recorded = true;
        if (core_done[c] == 0 && core.done()) {
          core_done[c] = 1;
          ++done_count;
        }
        // Park once this cycle's record is out. A core that just issued
        // the load it waits on parks too: its next step would stall.
        if (park_active) {
          if (core.park_on_load()) {
            park(c, kOnLoad);
          } else if (core.polling()) {
            park(c, sb.work_version());
          }
        }
      }
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
        const ClockSample sample{now, false, sb.scan(), sb.free(),
                                 sb.busy_count()};
        if (sample.scan != shown_sample.scan ||
            sample.free != shown_sample.free ||
            sample.busy_cores != shown_sample.busy_cores) {
          shown_sample = sample;
          obs->on_sample(sample);
        }
      }
      if (cores_halted) {
        // Store drain: from here on every core misses its clock.
        halted_at = now;
        for (GcCore& core : cores) core.miss_clock();
        busy_recorded = false;
      }
    } else if (obs != nullptr && now == halted_at + 1) {
      obs->on_sample({now, true});
    }
    ++now;
    cycle_open = false;
    if (cores_halted && (mem.stores_drained() ||
                         cfg_.coprocessor.skip_store_drain_for_test)) {
      break;  // flush complete (or deliberately defeated by a test)
    }
    if (now >= cfg_.coprocessor.watchdog_cycles) watchdog_abort();
  }
  } catch (const CollectionAbort& abort) {
    if (obs != nullptr) {
      close_aborted_cycle();
      obs->on_collection_end(now, &abort);
    }
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
