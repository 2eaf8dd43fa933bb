#include "core/coprocessor.hpp"

#include <bit>
#include <stdexcept>
#include <string>
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
  // lets the step loop drop finished cores (under a fault plan they park
  // until the next boundary instead).
  std::vector<std::uint8_t> core_done(n, 0);
  std::uint32_t done_count = 0;

  // Watchdog activity monitor: the last cycle each core was clocked (work,
  // idle spin or stall all count), so an expiry can localize the core that
  // stopped making progress — a fail-stopped core misses its clock.
  std::vector<Cycle> last_change(n, 0);

  // Parked cores (DESIGN.md §13). A core whose next steps repeat its record,
  // touching nothing, leaves the step walk from the next cycle on
  // (`parked_since`) until the event that ends the repeat:
  //   * a wait on an in-flight load, until the memory system's wake list
  //     names it;
  //   * a poll of SyncBlock state (a spin on an empty worklist, a wait for
  //     a held lock or at the start barrier), until the SyncBlock fires the
  //     wake channel of what it polled (GcCore::poll_channel);
  //   * under a fault plan, an injected fate (fail-stop, a core-stall
  //     window), a lock grant an injected delay withholds, or a finished
  //     core, until the plan's next cycle boundary. At that boundary, and
  //     on every cycle an armed event is due, every parked core rejoins
  //     the walk, so each consult that can fire an event happens on the
  //     cycle a ticked run makes it.
  // The skipped cycles are charged at its next turn in one absorb(k), and an
  // observer sees none of them: the core's run simply lasts.
  // fast_forward=false stays the pure ticked reference.
  constexpr Cycle kAwake = ~Cycle{0};
  const bool park_active = cfg_.coprocessor.fast_forward;
  std::vector<Cycle> parked_since(n, kAwake);
  std::vector<std::uint8_t> on_load(n, 0);  // parked on a load
  // The first cycle at which a parked core must rejoin: a fault boundary.
  Cycle rejoin_at = 0;

  // The step loop walks only the runnable cores, in step order: as set bits
  // in index order under the fixed policy, through step_order otherwise. A
  // core leaves the set while it is parked and once it has finished.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> runnable(words, ~std::uint64_t{0});
  if (n % 64 != 0) runnable.back() = (std::uint64_t{1} << (n % 64)) - 1;
  // A fired wake channel sets its waiters' bits (SyncBlock::wait_on).
  sb.set_wake_mask(runnable.data());
  const auto set_runnable = [&](CoreId c, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (c % 64);
    runnable[c / 64] = on ? runnable[c / 64] | bit : runnable[c / 64] & ~bit;
  };
  const auto walk_empty = [&]() {
    for (const std::uint64_t word : runnable) {
      if (word != 0) return false;
    }
    return true;
  };
  const auto park = [&](CoreId c) {
    parked_since[c] = now + 1;
    set_runnable(c, false);
  };
  // A core parked on its load leaves the walk, unless the stall it parked
  // with is still to be published: then it stays for one more turn.
  const auto park_on_load = [&](CoreId c) {
    parked_since[c] = now + 1;
    on_load[c] = 1;
    if (obs == nullptr || cores[c].cycle() == shown[c]) set_runnable(c, false);
  };
  // A polling core's record of this cycle is out already: it leaves now.
  const auto park_on_channel = [&](CoreId c, SyncBlock::Channel ch) {
    park(c);
    sb.wait_on(c, ch);
  };
  // Charges the cycles a parked core skipped before `until`; a core that
  // was clocked through them (any record but kOff) was last clocked in
  // the cycle before.
  const auto wake = [&](CoreId c, Cycle until) {
    cores[c].absorb(until - parked_since[c]);
    if (cores[c].cycle().activity != CoreActivity::kOff) {
      last_change[c] = until - 1;
    }
    parked_since[c] = kAwake;
    on_load[c] = 0;
  };
  // A fault boundary: every parked core is back in the walk, off any
  // channel, and is stepped (or charged) at its turn.
  const auto rejoin_all = [&]() {
    sb.wake_all();
    for (CoreId c = 0; c < n; ++c) {
      if (parked_since[c] != kAwake) {
        on_load[c] = 0;
        set_runnable(c, true);
      }
    }
  };
  // A fault run's record that repeats until the plan's next boundary: a
  // fail-stopped or finished core (kOff), an injected stall, or a wait for
  // an ownerless lock whose grant an injected delay withheld.
  const auto waits_for_boundary = [&](CoreCycle rec) {
    if (rec.activity == CoreActivity::kOff) return true;
    if (rec.activity != CoreActivity::kStall) return false;
    switch (rec.reason) {
      case StallReason::kFault:
        return true;
      case StallReason::kScanLock:
        return sb.scan_owner() == SyncBlock::kNoOwner && sb.scan_withheld();
      case StallReason::kFreeLock:
        return sb.free_owner() == SyncBlock::kNoOwner && sb.free_withheld();
      default:
        return false;
    }
  };

  bool cores_halted = false;
  Cycle halted_at = 0;
  bool in_scan_phase = false;
  bool worklist_empty = false;  // Table I condition of the last cycle

  // Watchdog expiry (shared by the ticked path and the jump to the budget
  // boundary). Localize a suspect before aborting. First preference: a
  // ScanState bit that reads busy while the core's architectural bit is
  // clear (stuck-at-1 fault). Second: the unfinished core that has missed
  // its clock the longest — a core that missed it for an eighth of the
  // whole budget is fail-stopped, not slow.
  const auto watchdog_abort = [&]() {
    CoreId suspect = kNoCore;
    for (CoreId c = 0; c < n && suspect == kNoCore; ++c) {
      if (sb.busy(c) && !sb.busy_raw(c)) suspect = c;
    }
    if (suspect == kNoCore) {
      Cycle worst = cfg_.coprocessor.watchdog_cycles / 8;
      for (CoreId c = 0; c < n; ++c) {
        if (cores[c].done()) continue;
        // A parked core is clocked every cycle, stepped or not, unless it
        // parked fail-stopped (kOff).
        const bool clocked = parked_since[c] != kAwake &&
                             cores[c].cycle().activity != CoreActivity::kOff;
        const Cycle seen = clocked ? now - 1 : last_change[c];
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

  // Lost-wake guard: a fault-free run with no core in the walk, the cores
  // not halted and nothing in flight. No event can end such a wait — a
  // missing channel firing, a simulator bug rather than a hardware fault —
  // so it throws here instead of running to the watchdog. (In a fault run
  // the same state is a dropped reply or a dead lock holder, and the
  // watchdog names it.) It is checked where it costs nothing per cycle:
  // before a jump under the fixed order (that state's jump target is the
  // watchdog budget), and before each cycle's order under the others.
  const auto check_lost_wake = [&]() {
    if (fault != nullptr || cores_halted || !walk_empty() || !mem.idle()) {
      return;
    }
    std::string parked;
    for (CoreId c = 0; c < n; ++c) {
      if (core_done[c] != 0) continue;
      const SyncBlock::Channel ch = sb.waiting_on(c);
      parked += (parked.empty() ? "core " : ", core ") + std::to_string(c) +
                " on " +
                (ch == SyncBlock::kNoChannel ? std::string("no channel")
                                             : SyncBlock::channel_name(ch));
    }
    throw std::logic_error("lost wake at cycle " + std::to_string(now) +
                           ": no core can run and nothing is in flight; " +
                           parked);
  };

  // The one jump rule (DESIGN.md §13), under the fixed order only: the
  // other policies publish and draw a step order every cycle. With no core
  // in the walk — every unfinished core parked — and memory pure waiting
  // (nothing acceptable queued, no completion due now), nothing changes
  // until the next completion, fault boundary or the watchdog budget, so
  // the clock jumps there. Parked cores are charged when they wake; in the
  // drain phase the halted cores miss their clock. A fault run never jumps
  // over a cycle on which an armed event is due.
  const bool jumps = cfg_.coprocessor.fast_forward && fixed_order;
  const auto jump = [&]() {
    if (cores_halted ? now - 1 == halted_at : !walk_empty()) return;
    if (!mem.ff_quiescent()) return;
    const Cycle completion = mem.next_completion();
    if (completion <= now) return;
    if (completion == MemorySystem::kNever) check_lost_wake();
    if (fault != nullptr && fault->ff_blocked(now)) return;
    Cycle target = cfg_.coprocessor.watchdog_cycles;
    if (completion < target) target = completion;
    if (fault != nullptr) {
      const Cycle boundary = fault->next_cycle_boundary(now);
      if (boundary < target) target = boundary;
    }
    if (target <= now) return;
    stats.fast_forwarded_cycles += target - now;
    if (worklist_empty) stats.worklist_empty_cycles += target - now;
    now = target;
    if (now >= cfg_.coprocessor.watchdog_cycles) {
      // Mirror the ticked run exactly: its last begin_clock() before the
      // expiry was for the final (here: skipped) cycle, and the suspect
      // scan's busy() consults run against that clock.
      edge = now - 1;
      if (fault != nullptr) fault->begin_clock(now - 1);
      watchdog_abort();
    }
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

  const bool fault_parks = park_active && fault != nullptr;
  try {
  while (true) {
    if (fault_parks && (now >= rejoin_at || fault->ff_blocked(now))) {
      rejoin_all();
    }
    if (jumps) {
      jump();
      if (fault_parks && now >= rejoin_at) rejoin_all();
    }
    edge = now;
    cycle_open = true;
    walking = kNoCore;
    if (!cores_halted) {
      if (!fixed_order) {
        if (park_active) check_lost_wake();
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
      if (on_load[c] != 0) {
        wake(c, now);
        set_runnable(c, true);
      }
    }
    if (!cores_halted) {
      sb.begin_cycle();
      // The walk over the runnable cores. Stepping a core changes its own
      // runnable bit and, through a fired wake channel, others' bits. The
      // walk re-reads the set at every turn, past the core it stepped last:
      // a woken core later in the order steps in this same cycle and sees
      // the change, as a ticked step would; an earlier one steps in the
      // next cycle.
      std::size_t pos = 0;
      std::size_t w = 0;
      std::uint64_t ahead = ~std::uint64_t{0};  // bits of word w not walked
      const auto next_core = [&](CoreId& c) {
        if (!fixed_order) {
          while (pos < step_order.size()) {
            c = step_order[pos++];
            if ((runnable[c / 64] >> (c % 64) & 1) != 0) return true;
          }
          return false;
        }
        std::uint64_t bits;
        while ((bits = runnable[w] & ahead) == 0) {
          if (++w == words) return false;
          ahead = ~std::uint64_t{0};
        }
        const int b = std::countr_zero(bits);
        c = static_cast<CoreId>(w * 64 + static_cast<std::size_t>(b));
        ahead = ~std::uint64_t{0} << b << 1;
        return true;
      };
      for (CoreId c = 0; next_core(c);) {
        GcCore& core = cores[c];
        if (parked_since[c] != kAwake) {
          if (on_load[c] != 0) {
            // A core that parked on the load it just issued publishes that
            // stall here, then leaves.
            show(c, now, core.cycle());
            set_runnable(c, false);
            continue;
          }
          wake(c, now);  // its wake channel fired, or a boundary: step it
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
        if (core_done[c] == 0 && core.done()) {
          core_done[c] = 1;
          ++done_count;
        }
        // Park once this cycle's record is out. A core that just issued
        // the load it waits on parks too: its next step would stall.
        if (park_active) {
          if (fault != nullptr && waits_for_boundary(rec)) {
            park(c);
          } else if (core.park_on_load()) {
            park_on_load(c);
          } else if (const SyncBlock::Channel ch = core.poll_channel();
                     ch != SyncBlock::kNoChannel) {
            park_on_channel(c, ch);
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
        // Store drain: from here on every core misses its clock. A core
        // still parked (a finished core in a fault-stall window) is
        // charged through this cycle first.
        halted_at = now;
        for (CoreId c = 0; c < n; ++c) {
          if (parked_since[c] != kAwake) wake(c, now + 1);
          cores[c].miss_clock();
        }
      }
    } else if (obs != nullptr && now == halted_at + 1) {
      obs->on_sample({now, true});
    }
    if (fault_parks) rejoin_at = fault->next_cycle_boundary(now);
    ++now;
    cycle_open = false;
    if (cores_halted && (mem.stores_drained() ||
                         cfg_.coprocessor.skip_store_drain_for_test)) {
      break;  // flush complete (or deliberately defeated by a test)
    }
    if (now >= cfg_.coprocessor.watchdog_cycles) watchdog_abort();
  }
  } catch (const CollectionAbort& abort) {
    fast_forwarded_ = stats.fast_forwarded_cycles;
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

  fast_forwarded_ = stats.fast_forwarded_cycles;
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
