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
      jitter_rng_(cfg.jitter_seed) {
  if (cfg_.max_outstanding == 0) cfg_.max_outstanding = 4 * num_cores;
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
  if (port == Port::kHeader) ++pending_header_stores_[addr];
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

void MemorySystem::tick(Cycle now) {
  // Idle early-out: with nothing queued or in flight the retire and accept
  // passes are no-ops, so skip them (idle components cost nothing) — the
  // observer still sees the tick's in-flight count.
  if (idle()) {
    if (obs_ != nullptr) obs_->on_mem_inflight(0);
    return;
  }
  // 1. Retire transactions whose latency has elapsed. Within each port
  //    class acceptance order is completion order (constant per-class
  //    latency), so only the fronts can retire — unless latency jitter is
  //    on, in which case completions interleave and the deque is scanned.
  // Injected delays stretch individual latencies, so fault runs need the
  // out-of-order retire scan just like jittered ones.
  const bool out_of_order = cfg_.latency_jitter != 0 || fault_ != nullptr;
  const auto retire = [&](std::deque<Inflight>& inflight) {
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->complete_at > now) {
        if (!out_of_order) break;
        ++it;
        continue;
      }
      const Request& r = it->req;
      if (it->ghost) {
        // The duplicated store arrives a second time, resurrecting the
        // value it was accepted with. No accounting: the original already
        // committed and freed its slot.
        fault_->on_ghost_store_retire(r.addr, it->replay_value);
        it = inflight.erase(it);
        continue;
      }
      if (r.op == MemOp::kLoad) {
        buf(r.core, r.port).load_inflight = false;  // data arrived
      } else {
        --uncommitted_stores_;  // committed to memory
        if (r.port == Port::kHeader) {
          auto ps = pending_header_stores_.find(r.addr);
          assert(ps != pending_header_stores_.end());
          if (--ps->second == 0) pending_header_stores_.erase(ps);
        }
      }
      it = inflight.erase(it);
    }
  };
  retire(inflight_header_);
  retire(inflight_header_fast_);
  retire(inflight_body_);

  // 2. Accept up to bandwidth_per_cycle queued requests, oldest first.
  //    Header loads held back by the comparator array let younger,
  //    independent requests pass (split transactions).
  std::uint32_t accepted = 0;
  for (auto it = queue_.begin();
       it != queue_.end() && accepted < cfg_.bandwidth_per_cycle;) {
    const Request r = *it;
    if (r.op == MemOp::kLoad && r.port == Port::kHeader &&
        header_store_uncommitted(r.addr)) {
      ++it;  // comparator array delays this header load
      continue;
    }
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
      it = queue_.erase(it);
      ++accepted;
      continue;
    }
    Cycle extra =
        out_of_order && cfg_.latency_jitter != 0
            ? jitter_rng_.below(cfg_.latency_jitter + 1)
            : 0;
    extra += fa.extra_delay;
    Cycle complete_at;
    std::deque<Inflight>* inflight;
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
    inflight->push_back(Inflight{r, complete_at, false, 0});
    if (fa.kind == MemFaultAction::Kind::kDuplicate) {
      inflight->push_back(Inflight{r, complete_at + 1 + fa.ghost_lag, true,
                                   fa.replay_value});
    }
    it = queue_.erase(it);
    ++accepted;
  }

  if (obs_ != nullptr) {
    obs_->on_mem_inflight(inflight_header_.size() +
                          inflight_header_fast_.size() +
                          inflight_body_.size());
  }
}

}  // namespace hwgc
