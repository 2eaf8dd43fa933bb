#include "mem/memory_system.hpp"

#include <cassert>

#include "fault/fault_injector.hpp"
#include "sim/clock_observer.hpp"

namespace hwgc {

MemorySystem::MemorySystem(const MemoryConfig& cfg, std::uint32_t num_cores,
                           FaultInjector* fault, ClockObserver* obs)
    : cfg_(cfg),
      fault_(fault),
      obs_(obs),
      buffers_(static_cast<std::size_t>(num_cores) * kPortCount),
      // Injected delays stretch individual latencies, so fault runs retire
      // out of order just like jittered ones.
      in_order_(cfg.latency_jitter == 0 && fault == nullptr),
      jitter_rng_(cfg.jitter_seed) {
  cache_tags_.assign(cfg_.header_cache_entries, kNullPtr);
}

bool MemorySystem::header_cache_lookup_and_fill(Addr addr) {
  if (cache_tags_.empty()) return false;
  Addr& tag = cache_tags_[addr % cache_tags_.size()];
  if (tag == addr) {
    ++cache_hits_;
    return true;
  }
  ++cache_misses_;
  tag = addr;  // allocate on miss (loads and stores alike)
  return false;
}

void MemorySystem::issue_store(CoreId core, Port port, Addr addr) {
  PortBuffer& b = buf(core, port);
  assert(b.stores_waiting < kStoreDepth &&
         "core must stall on a full store buffer");
  ++b.stores_waiting;
  ++uncommitted_stores_;
  if (port == Port::kHeader) {
    const auto p = pending_header_store(addr);
    if (p != pending_header_stores_.end()) {
      ++p->count;
    } else {
      pending_header_stores_.push_back(PendingStore{addr, 1});
    }
  }
  ++requests_;
  queue_.push_back(Request{core, port, MemOp::kStore, addr});
}

void MemorySystem::issue_load(CoreId core, Port port, Addr addr) {
  PortBuffer& b = buf(core, port);
  assert(!b.load_inflight && "core must consume the previous load first");
  b.load_inflight = true;
  ++requests_;
  queue_.push_back(Request{core, port, MemOp::kLoad, addr});
}

void MemorySystem::retire_one(const Inflight& f) {
  const Request& r = f.req;
  if (f.ghost) {
    // The duplicated store arrives a second time, resurrecting the value it
    // was accepted with. No accounting: the original already committed and
    // freed its slot.
    fault_->on_ghost_store_retire(r.addr, f.replay_value);
    return;
  }
  if (r.op == MemOp::kLoad) {
    buf(r.core, r.port).load_inflight = false;  // data arrived
    woken_.push_back(r.core);
    return;
  }
  --uncommitted_stores_;  // committed to memory
  if (r.port != Port::kHeader) return;
  const auto p = pending_header_store(r.addr);
  assert(p != pending_header_stores_.end());
  if (--p->count == 0) {
    *p = pending_header_stores_.back();
    pending_header_stores_.pop_back();
  }
}

void MemorySystem::retire_out_of_order(InflightClass& q, Cycle now) {
  // Retire every due entry in acceptance order (fault hooks fire in that
  // order) and close the gaps, keeping the rest in order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const Inflight f = q.at(i);
    if (f.complete_at <= now) {
      retire_one(f);
    } else {
      q.at(kept++) = f;
    }
  }
  q.count = kept;
}

void MemorySystem::tick(Cycle now) {
  woken_.clear();
  // Early-out: with nothing queued and no transaction due, the retire and
  // accept passes are no-ops (waiting components cost nothing) — the
  // observer still sees the first tick's in-flight count.
  if (queue_.empty() && next_completion() > now) {
    publish_inflight();
    return;
  }
  // 1. Retire transactions whose latency has elapsed. In acceptance order
  //    only the fronts can be due; jittered and fault runs scan instead.
  for (InflightClass* q :
       {&inflight_header_, &inflight_header_fast_, &inflight_body_}) {
    if (!in_order_) {
      retire_out_of_order(*q, now);
      continue;
    }
    while (!q->empty() && q->front().complete_at <= now) {
      retire_one(q->front());
      q->pop_front();
    }
  }

  // 2. Accept up to bandwidth_per_cycle queued requests, oldest first, in
  //    one pass over the queue. Header loads held back by the comparator
  //    array let younger, independent requests pass (split transactions);
  //    they stay in order ahead of the overflow past the bandwidth limit.
  std::uint32_t accepted = 0;
  std::size_t kept = 0;
  std::size_t i = 0;
  for (; i < queue_.size() && accepted < cfg_.bandwidth_per_cycle; ++i) {
    const Request r = queue_[i];
    if (r.op == MemOp::kLoad && r.port == Port::kHeader &&
        header_store_uncommitted(r.addr)) {
      queue_[kept++] = r;  // comparator array delays this header load
      continue;
    }
    ++accepted;
    if (r.op == MemOp::kStore) {
      --buf(r.core, r.port).stores_waiting;  // slot frees on acceptance
    }
    MemFaultAction fa;
    if (fault_ != nullptr) {
      fa = fault_->on_mem_accept(r.core, r.port, r.op, r.addr);
    }
    if (fa.kind == MemFaultAction::Kind::kDrop) {
      // The transaction vanishes after acceptance: a dropped load never
      // returns data (load_inflight stays set, the core stalls forever); a
      // dropped store never commits (uncommitted_stores_ and the comparator
      // array keep its entry, so the drain condition never holds). Either
      // way only the watchdog can end the cycle.
      continue;
    }
    Cycle extra = cfg_.latency_jitter != 0
                      ? jitter_rng_.below(cfg_.latency_jitter + 1)
                      : 0;
    extra += fa.extra_delay;
    Cycle complete_at;
    InflightClass* inflight;
    if (r.port == Port::kHeader) {
      if (header_cache_lookup_and_fill(r.addr)) {
        complete_at = now + cfg_.header_cache_hit_latency + extra;
        inflight = &inflight_header_fast_;
      } else {
        complete_at = now + cfg_.header_latency + extra;
        inflight = &inflight_header_;
      }
    } else {
      complete_at = now + cfg_.latency + extra;
      inflight = &inflight_body_;
    }
    inflight->push(Inflight{r, complete_at, false, 0});
    if (fa.kind == MemFaultAction::Kind::kDuplicate) {
      inflight->push(Inflight{r, complete_at + 1 + fa.ghost_lag, true,
                              fa.replay_value});
    }
  }
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept),
               queue_.begin() + static_cast<std::ptrdiff_t>(i));

  publish_inflight();
}

void MemorySystem::publish_inflight() {
  if (obs_ == nullptr) return;
  const std::uint64_t count = inflight_count();
  if (count == shown_inflight_) return;
  shown_inflight_ = count;
  obs_->on_mem_inflight(count);
}

}  // namespace hwgc
