#include "concurrent_mutator/snapshot_collector.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "concurrent_mutator/safe_point.hpp"
#include "concurrent_mutator/snapshot_space.hpp"
#include "heap/object_model.hpp"
#include "sim/rng.hpp"

namespace hwgc {

namespace {

/// One raw store the barrier diverted during the cycle: replayed against
/// the evacuated copy in the reconcile pause. `offset` is in words from
/// the object header, so the record does not care whether the slot is a
/// pointer or data word — the drain decides with offset_is_pointer_field.
struct LogRecord {
  Addr obj;
  Word offset;
};

struct alignas(64) WorkerCounters {
  std::uint64_t objects = 0;
  std::uint64_t words = 0;
  std::uint64_t cas_ops = 0;
  std::uint64_t cas_failures = 0;

  void merge_into(WorkerCounters& total) const {
    total.objects += objects;
    total.words += words;
    total.cas_ops += cas_ops;
    total.cas_failures += cas_failures;
  }
};

/// Private model of everything one mutator thread did to the heap. Kids
/// encode: -1 = null, >= 0 = index of another shadow node, <= -2 = a
/// reference to a pre-cycle root referent at fromspace address -(k + 2).
struct ShadowNode {
  Addr from = kNullPtr;
  Word pi = 0;
  Word delta = 0;
  std::vector<std::int64_t> kids;
  std::vector<Word> data;
};

struct MutatorState {
  std::vector<ShadowNode> nodes;
  std::vector<std::int64_t> regs;
  std::vector<LogRecord> log;
  std::size_t root_base = 0;
  std::uint64_t rng = 0;
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t dual_writes = 0;
  std::uint64_t snapshot_stores = 0;
  std::uint64_t backoffs = 0;
  std::size_t mismatches = 0;
  std::atomic<std::uint64_t> warm{0};
};

class SnapshotCycle {
 public:
  SnapshotCycle(const SnapshotCollector::Config& cfg, Heap& heap)
      : cfg_(cfg),
        heap_(heap),
        mem_(heap.memory()),
        mirror_(heap.memory().size()) {}

  SnapshotGcStats run();

 private:
  // --- collector machinery ------------------------------------------------
  Addr evacuate(Addr obj, bool from_snapshot, WorkerCounters& tc);
  void scan_loop(bool from_snapshot, WorkerCounters& tc,
                 TortureAgitator* agi, std::uint32_t tid);
  void worker_main(std::uint32_t tid, TortureAgitator* agi);

  // --- mutator machinery --------------------------------------------------
  void mutator_main(std::uint32_t mid, TortureAgitator* agi);
  void mutator_op(MutatorState& m, MutatorPhase ph);
  void store_ptr(MutatorState& m, Addr obj, Word i, Addr v, MutatorPhase ph);
  void store_data(MutatorState& m, Addr obj, Word pi, Word j, Word v,
                  MutatorPhase ph);
  std::size_t validate_shadow(const MutatorState& m);

  bool in_tospace_extent(Addr a) const noexcept {
    return a >= to_base_ && a < to_end_;
  }

  SnapshotCollector::Config cfg_;
  Heap& heap_;
  WordMemory& mem_;
  SnapshotSpace mirror_;
  SafePointRegistry reg_;

  Addr to_base_ = 0;
  Addr to_end_ = 0;
  std::atomic<Addr> scan_{0};
  std::atomic<Addr> free_{0};
  std::atomic<std::uint32_t> busy_{0};
  std::atomic<bool> overflow_{false};

  std::vector<Addr> snap_roots_;
  std::vector<Addr> ext_roots_;
  std::vector<std::unique_ptr<MutatorState>> muts_;
  std::vector<WorkerCounters> counters_;
};

Addr SnapshotCycle::evacuate(Addr obj, bool from_snapshot,
                             WorkerCounters& tc) {
  for (;;) {
    if (overflow_.load(std::memory_order_relaxed)) return kNullPtr;
    const Word link = mem_.load_atomic(link_addr(obj),
                                       std::memory_order_acquire);
    if (link == kBusyForwarding) {
      std::this_thread::yield();
      continue;
    }
    if (link != kNullPtr) return link;  // already forwarded
    ++tc.cas_ops;
    Word expected = kNullPtr;
    if (!mem_.cas(link_addr(obj), expected, kBusyForwarding)) {
      ++tc.cas_failures;
      continue;
    }
    const Word raw_attrs = mem_.load_atomic(attributes_addr(obj),
                                            std::memory_order_relaxed);
    // Strip flags left by earlier cycles: a fromspace original that was a
    // tospace copy last cycle still carries kBlackBit.
    const Word pi = pi_of(raw_attrs);
    const Word delta = delta_of(raw_attrs);
    const Word attrs = make_attributes(pi, delta);
    const Word need = object_words(attrs);
    const Addr copy = free_.fetch_add(need, std::memory_order_relaxed);
    if (copy + need > to_end_) {
      // Unclaim so nobody spins on the busy sentinel forever, flag the
      // abort; run() throws once every thread has drained out.
      mem_.store_atomic(link_addr(obj), kNullPtr, std::memory_order_release);
      overflow_.store(true, std::memory_order_relaxed);
      return kNullPtr;
    }
    mem_.store_atomic(link_addr(copy), kNullPtr, std::memory_order_relaxed);
    for (Word i = 0; i < pi; ++i) {
      const Addr src = pointer_field_addr(obj, i);
      // The double-pointer read: during the concurrent phase the collector
      // trusts only the frozen snapshot half; in the reconcile pause (and
      // for objects allocated mid-cycle) the live half is authoritative.
      const Word v = from_snapshot
                         ? mirror_.load(src)
                         : mem_.load_atomic(src, std::memory_order_relaxed);
      mem_.store_atomic(pointer_field_addr(copy, i), v,
                        std::memory_order_relaxed);
      mirror_.store(pointer_field_addr(copy, i), v);
    }
    for (Word j = 0; j < delta; ++j) {
      mem_.store_atomic(data_field_addr(copy, pi, j),
                        mem_.load_atomic(data_field_addr(obj, pi, j),
                                         std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    // Publication order matters: the black bit releases the body to
    // scanners, then the forwarding link releases the copy to other
    // evacuators.
    mem_.store_atomic(attributes_addr(copy), attrs | kBlackBit,
                      std::memory_order_release);
    mem_.store_atomic(link_addr(obj), copy, std::memory_order_release);
    mem_.store_atomic(attributes_addr(obj), attrs | kForwardedBit,
                      std::memory_order_release);
    ++tc.objects;
    tc.words += need;
    return copy;
  }
}

void SnapshotCycle::scan_loop(bool from_snapshot, WorkerCounters& tc,
                              TortureAgitator* agi, std::uint32_t tid) {
  for (;;) {
    if (agi != nullptr) agi->chaos(tid);
    if (overflow_.load(std::memory_order_relaxed)) return;
    const Addr s = scan_.load(std::memory_order_acquire);
    const Addr f = free_.load(std::memory_order_acquire);
    if (s == f) {
      // Exiting early is safe: any worker that could still grow `free_`
      // holds a busy_ count (taken before its claim CAS), so work can
      // never strand — the last worker inside drains everything.
      if (busy_.load(std::memory_order_seq_cst) == 0 &&
          scan_.load(std::memory_order_seq_cst) == s &&
          free_.load(std::memory_order_seq_cst) == f) {
        return;
      }
      std::this_thread::yield();
      continue;
    }
    // The copy at `s` may still be mid-copy by its evacuator; its black
    // bit (released last) gates both the size read and the field scan.
    const Word attrs = mem_.load_atomic(attributes_addr(s),
                                        std::memory_order_acquire);
    if (!is_black(attrs)) {
      std::this_thread::yield();
      continue;
    }
    busy_.fetch_add(1, std::memory_order_acq_rel);
    Addr claim = s;
    ++tc.cas_ops;
    if (!scan_.compare_exchange_strong(claim, s + object_words(attrs),
                                       std::memory_order_acq_rel)) {
      ++tc.cas_failures;
      busy_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    const Word pi = pi_of(attrs);
    for (Word i = 0; i < pi; ++i) {
      const Addr fa = pointer_field_addr(s, i);
      const Word v = mem_.load_atomic(fa, std::memory_order_relaxed);
      // Fields repaired by the reconciliation drain are already
      // translated; only fromspace referents still need evacuation.
      if (v == kNullPtr || in_tospace_extent(v)) continue;
      const Addr nv = evacuate(v, from_snapshot, tc);
      mem_.store_atomic(fa, nv, std::memory_order_relaxed);
      mirror_.store(fa, nv);
    }
    busy_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void SnapshotCycle::worker_main(std::uint32_t tid, TortureAgitator* agi) {
  WorkerCounters& tc = counters_[tid];
  if (agi != nullptr) agi->worker_start(tid);
  busy_.fetch_add(1, std::memory_order_acq_rel);
  for (std::size_t i = tid; i < snap_roots_.size(); i += cfg_.threads) {
    if (snap_roots_[i] != kNullPtr) evacuate(snap_roots_[i], true, tc);
  }
  busy_.fetch_sub(1, std::memory_order_acq_rel);
  scan_loop(true, tc, agi, tid);
}

void SnapshotCycle::store_ptr(MutatorState& m, Addr obj, Word i, Addr v,
                              MutatorPhase ph) {
  const Addr a = pointer_field_addr(obj, i);
  mem_.store_atomic(a, v, std::memory_order_relaxed);
  if (ph == MutatorPhase::kIdle) {
    mirror_.store(a, v);  // the dual write: both halves agree
    ++m.dual_writes;
  } else {
    m.log.push_back({obj, static_cast<Word>(a - obj)});
    ++m.snapshot_stores;
  }
}

void SnapshotCycle::store_data(MutatorState& m, Addr obj, Word pi, Word j,
                               Word v, MutatorPhase ph) {
  const Addr a = data_field_addr(obj, pi, j);
  mem_.store_atomic(a, v, std::memory_order_relaxed);
  if (ph != MutatorPhase::kIdle) {
    // Data words have no snapshot half, but a store racing the body copy
    // may land before or after the copy read it — log it so the reconcile
    // pause repairs the copy either way.
    m.log.push_back({obj, static_cast<Word>(a - obj)});
    ++m.snapshot_stores;
  }
}

void SnapshotCycle::mutator_op(MutatorState& m, MutatorPhase ph) {
  ++m.ops;
  const std::uint64_t r = splitmix64(m.rng);
  const std::uint32_t nregs = cfg_.mutator_registers;
  const std::uint32_t reg = static_cast<std::uint32_t>(r % nregs);
  switch ((r >> 8) % 4) {
    case 0: {  // allocate a fresh object into a register
      const Word pi = static_cast<Word>((r >> 16) % 4);
      const Word delta = static_cast<Word>((r >> 20) % 4);
      const Addr obj = heap_.allocate_shared(pi, delta);
      if (obj == kNullPtr) {
        ++m.backoffs;
        return;
      }
      ++m.allocs;
      if (ph == MutatorPhase::kIdle) {
        // Dual-write discipline covers initialization: the new object's
        // null pointer slots exist in both halves.
        for (Word i = 0; i < pi; ++i) {
          mirror_.store(pointer_field_addr(obj, i), kNullPtr);
        }
      }
      ShadowNode n;
      n.from = obj;
      n.pi = pi;
      n.delta = delta;
      n.kids.assign(pi, -1);
      n.data.assign(delta, 0);
      m.nodes.push_back(std::move(n));
      m.regs[reg] = static_cast<std::int64_t>(m.nodes.size()) - 1;
      heap_.roots()[m.root_base + reg] = obj;
      return;
    }
    case 1: {  // rewrite a pointer field of an owned object
      const std::int64_t src = m.regs[reg];
      if (src < 0) return;
      ShadowNode& n = m.nodes[static_cast<std::size_t>(src)];
      if (n.pi == 0) return;
      const Word i = static_cast<Word>((r >> 16) % n.pi);
      std::int64_t kid = -1;
      Addr target = kNullPtr;
      const std::uint64_t pick = (r >> 24) % 8;
      if (pick < 4) {
        const std::int64_t t =
            m.regs[static_cast<std::size_t>((r >> 32) % nregs)];
        if (t >= 0) {
          kid = t;
          target = m.nodes[static_cast<std::size_t>(t)].from;
        }
      } else if (pick < 6 && !ext_roots_.empty()) {
        // Point into the pre-cycle graph: reconciliation must translate
        // this reference through the snapshot closure's forwarding.
        const Addr e = ext_roots_[(r >> 32) % ext_roots_.size()];
        kid = -static_cast<std::int64_t>(e) - 2;
        target = e;
      }
      store_ptr(m, n.from, i, target, ph);
      n.kids[i] = kid;
      return;
    }
    case 2: {  // data store
      const std::int64_t src = m.regs[reg];
      if (src < 0) return;
      ShadowNode& n = m.nodes[static_cast<std::size_t>(src)];
      if (n.delta == 0) return;
      const Word j = static_cast<Word>((r >> 16) % n.delta);
      const Word v = static_cast<Word>(r >> 24);
      store_data(m, n.from, n.pi, j, v, ph);
      n.data[j] = v;
      return;
    }
    default: {  // read-back probe of an owned data word
      const std::int64_t src = m.regs[reg];
      if (src < 0) return;
      const ShadowNode& n = m.nodes[static_cast<std::size_t>(src)];
      if (n.delta == 0) return;
      const Word j = static_cast<Word>((r >> 16) % n.delta);
      const Word got = mem_.load_atomic(data_field_addr(n.from, n.pi, j),
                                        std::memory_order_relaxed);
      if (got != n.data[j]) ++m.mismatches;
      return;
    }
  }
}

void SnapshotCycle::mutator_main(std::uint32_t mid, TortureAgitator* agi) {
  MutatorState& m = *muts_[mid];
  SafePointRegistry::Scope scope(reg_);
  if (agi != nullptr) agi->worker_start(mid);
  for (;;) {
    const MutatorPhase ph = reg_.poll();
    if (ph == MutatorPhase::kFinished) break;
    if (agi != nullptr) agi->chaos(mid);
    mutator_op(m, ph);
    m.warm.store(m.ops, std::memory_order_release);
  }
}

std::size_t SnapshotCycle::validate_shadow(const MutatorState& m) {
  std::size_t bad = m.mismatches;
  // Register-reachable shadow closure; unreachable nodes are garbage the
  // collector is free to drop.
  std::vector<char> seen(m.nodes.size(), 0);
  std::vector<std::size_t> stack;
  for (const std::int64_t r : m.regs) {
    if (r >= 0 && seen[static_cast<std::size_t>(r)] == 0) {
      seen[static_cast<std::size_t>(r)] = 1;
      stack.push_back(static_cast<std::size_t>(r));
    }
  }
  while (!stack.empty()) {
    const std::size_t n = stack.back();
    stack.pop_back();
    for (const std::int64_t k : m.nodes[n].kids) {
      if (k >= 0 && seen[static_cast<std::size_t>(k)] == 0) {
        seen[static_cast<std::size_t>(k)] = 1;
        stack.push_back(static_cast<std::size_t>(k));
      }
    }
  }
  const auto translated = [&](Addr from) -> Addr {
    if (!is_forwarded(mem_.load(attributes_addr(from)))) return kNullPtr;
    return mem_.load(link_addr(from));
  };
  for (std::size_t n = 0; n < m.nodes.size(); ++n) {
    if (seen[n] == 0) continue;
    const ShadowNode& sn = m.nodes[n];
    const Addr copy = translated(sn.from);
    if (copy == kNullPtr) {
      ++bad;  // reachable at cycle end but never evacuated
      continue;
    }
    const Word cattrs = mem_.load(attributes_addr(copy));
    if (pi_of(cattrs) != sn.pi || delta_of(cattrs) != sn.delta) {
      ++bad;
      continue;
    }
    for (Word i = 0; i < sn.pi; ++i) {
      const Addr got = mem_.load(pointer_field_addr(copy, i));
      Addr want = kNullPtr;
      const std::int64_t k = sn.kids[i];
      if (k >= 0) {
        want = translated(m.nodes[static_cast<std::size_t>(k)].from);
      } else if (k <= -2) {
        want = translated(static_cast<Addr>(-(k + 2)));
      }
      if (got != want || (k != -1 && want == kNullPtr)) ++bad;
    }
    for (Word j = 0; j < sn.delta; ++j) {
      if (mem_.load(data_field_addr(copy, sn.pi, j)) != sn.data[j]) ++bad;
    }
  }
  for (std::size_t r = 0; r < m.regs.size(); ++r) {
    const Addr got = heap_.roots()[m.root_base + r];
    const std::int64_t k = m.regs[r];
    const Addr want =
        k >= 0 ? translated(m.nodes[static_cast<std::size_t>(k)].from)
               : kNullPtr;
    if (got != want || (k >= 0 && want == kNullPtr)) ++bad;
  }
  return bad;
}

SnapshotGcStats SnapshotCycle::run() {
  // --- setup (pre-cycle, single-threaded) ---------------------------------
  const Addr from_base = heap_.layout().current_base();
  const Addr from_alloc = heap_.alloc_ptr();
  // Resynchronize the snapshot half for heaps populated without the
  // barrier (setup state, not cycle cost — hardware maintains the pair on
  // every store for free).
  mirror_.sync_from(mem_, from_base, from_alloc);
  to_base_ = heap_.layout().tospace_base();
  to_end_ = heap_.layout().tospace_end();
  // Clear tospace so a stale header from two cycles ago can never satisfy
  // the scanner's black-bit gate.
  for (Addr a = to_base_; a < to_end_; ++a) mem_.store(a, 0);
  scan_.store(to_base_, std::memory_order_relaxed);
  free_.store(to_base_, std::memory_order_relaxed);

  const bool with_mutators =
      cfg_.mutator_threads > 0 && cfg_.mutator_registers > 0;

  // --- spawn mutators (dual-write phase) ----------------------------------
  std::vector<std::thread> mutator_threads;
  TortureAgitator mutator_agi(cfg_.torture, cfg_.mutator_threads);
  if (with_mutators) {
    for (const Addr r : heap_.roots()) {
      if (r != kNullPtr && ext_roots_.size() < 16) ext_roots_.push_back(r);
    }
    for (std::uint32_t mid = 0; mid < cfg_.mutator_threads; ++mid) {
      auto m = std::make_unique<MutatorState>();
      m->root_base = heap_.roots().size();
      m->regs.assign(cfg_.mutator_registers, -1);
      m->rng = cfg_.mutator_seed ^ (0x9e3779b97f4a7c15ULL * (mid + 1));
      heap_.roots().insert(heap_.roots().end(), cfg_.mutator_registers,
                           kNullPtr);
      muts_.push_back(std::move(m));
    }
    mutator_threads.reserve(cfg_.mutator_threads);
    for (std::uint32_t mid = 0; mid < cfg_.mutator_threads; ++mid) {
      mutator_threads.emplace_back(
          [this, mid, &mutator_agi] { mutator_main(mid, &mutator_agi); });
    }
    // Let every mutator exercise the dual-write barrier before the
    // snapshot freezes, so pre-cycle mutation is part of every run.
    for (const auto& m : muts_) {
      while (m->warm.load(std::memory_order_acquire) <
             cfg_.mutator_warmup_ops) {
        std::this_thread::yield();
      }
    }
  }

  // --- pause 1: freeze the snapshot ---------------------------------------
  reg_.request_stop();
  reg_.await_parked();
  snap_roots_ = heap_.roots();
  reg_.resume(MutatorPhase::kSnapshot);

  // --- concurrent phase: evacuate the snapshot closure --------------------
  counters_.assign(cfg_.threads, WorkerCounters{});
  TortureAgitator agi(cfg_.torture, cfg_.threads);
  {
    std::vector<std::thread> workers;
    workers.reserve(cfg_.threads);
    for (std::uint32_t t = 0; t < cfg_.threads; ++t) {
      workers.emplace_back([this, t, &agi] { worker_main(t, &agi); });
    }
    for (auto& w : workers) w.join();
  }
  WorkerCounters conc{};
  for (const auto& c : counters_) c.merge_into(conc);

  // --- pause 2: reconcile, flip, publish ----------------------------------
  reg_.request_stop();
  reg_.await_parked();
  WorkerCounters pause{};
  std::uint64_t repairs = 0;
  if (!overflow_.load(std::memory_order_relaxed)) {
    // Drain the reconciliation logs: re-read each mutated slot's live half
    // and repair the evacuated copy. Records against objects that were
    // never evacuated are skipped — if such an object is still reachable
    // it is copied below with its final field values anyway.
    for (const auto& m : muts_) {
      for (const LogRecord& rec : m->log) {
        const Word fattrs = mem_.load(attributes_addr(rec.obj));
        if (!is_forwarded(fattrs)) continue;
        const Addr copy = mem_.load(link_addr(rec.obj));
        const Word raw = mem_.load(rec.obj + rec.offset);
        Word v = raw;
        if (offset_is_pointer_field(fattrs, rec.offset)) {
          v = raw == kNullPtr ? kNullPtr : evacuate(raw, false, pause);
          mirror_.store(copy + rec.offset, v);
        }
        mem_.store(copy + rec.offset, v);
        ++repairs;
      }
    }
    // Redirect every root slot through the forwarding map, evacuating the
    // newly reachable (mid-cycle allocations) on demand…
    if (!overflow_.load(std::memory_order_relaxed)) {
      for (Addr& slot : heap_.roots()) {
        if (slot != kNullPtr) slot = evacuate(slot, false, pause);
      }
    }
    // …then run the bounded Cheney pass over just those copies.
    scan_loop(false, pause, nullptr, 0);
  }
  const bool failed = overflow_.load(std::memory_order_relaxed);
  if (!failed) {
    heap_.flip();
    heap_.set_alloc_ptr(free_.load(std::memory_order_relaxed));
  }
  reg_.resume(MutatorPhase::kFinished);
  for (auto& t : mutator_threads) t.join();
  if (failed) {
    throw std::runtime_error(
        "snapshot collector: tospace exhausted during evacuation");
  }

  // --- shadow validation + stats ------------------------------------------
  SnapshotGcStats s;
  s.threads = cfg_.threads;
  s.mutator_threads =
      with_mutators ? cfg_.mutator_threads : 0;
  s.objects_copied = conc.objects + pause.objects;
  s.words_copied = conc.words + pause.words;
  s.cas_ops = conc.cas_ops + pause.cas_ops;
  s.cas_failures = conc.cas_failures + pause.cas_failures;
  s.pause_evacuations = pause.objects;
  s.reconciliation_repairs = repairs;
  s.safe_point_waits = reg_.safe_point_waits();
  for (const auto& m : muts_) {
    s.dual_writes += m->dual_writes;
    s.snapshot_stores += m->snapshot_stores;
    s.mutator_ops += m->ops;
    s.mutator_allocations += m->allocs;
    s.alloc_backoffs += m->backoffs;
    s.validation_mismatches += validate_shadow(*m);
  }
  return s;
}

}  // namespace

SnapshotGcStats SnapshotCollector::collect(Heap& heap) {
  SnapshotCycle cycle(cfg_, heap);
  return cycle.run();
}

}  // namespace hwgc
