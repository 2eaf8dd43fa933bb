// Split-transaction memory access scheduler (paper Section V-D).
//
// Timing model only — architectural memory contents live in WordMemory and
// are updated by the cores at issue time, which is semantically equivalent
// because the locking protocol guarantees a single writer and ordered
// access for every location (see DESIGN.md §5).
//
// Modeled behaviour:
//  * Each core owns one load and one store buffer per port (header/body):
//    four buffers per core, as in the prototype.
//  * Store buffers hold up to kStoreDepth entries awaiting *acceptance* by
//    the scheduler; a store needs no reply, so its slot frees as soon as
//    the scheduler picks it up. A core stalls only when it issues a store
//    into a full buffer.
//  * A load occupies its buffer until the data returns (full latency); the
//    core stalls when it needs the data earlier.
//  * The scheduler accepts up to `bandwidth_per_cycle` requests per clock,
//    oldest first; an accepted request completes `latency` cycles later.
//  * Comparator array: a *header load* is not accepted while any header
//    store to the same address is still uncommitted. Body accesses are
//    never ordered (each body word is touched exactly once per cycle).
//  * stores_drained(): end-of-cycle flush — the main processor may only be
//    restarted once every store has committed (Section V-E).
//  * Optional seeded latency jitter (MemoryConfig::latency_jitter) for
//    schedule-exploration fuzzing: adds a random number of cycles to each
//    accepted request, so completions can retire out of acceptance order
//    as they would under real DRAM bank conflicts or refresh.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/ports.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace hwgc {

class ClockObserver;
class FaultInjector;

class MemorySystem {
 public:
  /// Entries per store buffer. Two slots let an evacuation issue its pair
  /// of header stores (fromspace forwarding + tospace frame) in
  /// consecutive cycles without stalling, which the prototype's 1-cycle
  /// free-lock critical section requires.
  static constexpr std::uint8_t kStoreDepth = 2;

  /// `fault`, when non-null, is consulted for every accepted transaction
  /// (src/fault/): it can drop the transaction, stretch its latency or
  /// schedule a ghost duplicate of a store. `obs`, when non-null, sees the
  /// in-flight transaction count after every tick (observation only).
  MemorySystem(const MemoryConfig& cfg, std::uint32_t num_cores,
               FaultInjector* fault = nullptr, ClockObserver* obs = nullptr);

  // --- Core-side buffer interface ---------------------------------------

  /// True when the store buffer is full; the core must stall before
  /// issuing another store on this port.
  bool store_busy(CoreId core, Port port) const noexcept {
    return buf(core, port).stores_waiting >= kStoreDepth;
  }

  /// Free slots in the store buffer (0..kStoreDepth).
  std::uint8_t store_slots_free(CoreId core, Port port) const noexcept {
    return static_cast<std::uint8_t>(kStoreDepth -
                                     buf(core, port).stores_waiting);
  }

  /// True while a load is outstanding and its data has not yet arrived.
  bool load_pending(CoreId core, Port port) const noexcept {
    return buf(core, port).load_inflight;
  }

  /// Issues a store. Precondition: !store_busy(core, port).
  void issue_store(CoreId core, Port port, Addr addr);

  /// Issues a load. Precondition: !load_pending(core, port).
  void issue_load(CoreId core, Port port, Addr addr);

  // --- Global timing -----------------------------------------------------

  /// Advances the memory system by one clock cycle: completes transactions
  /// whose latency elapsed, then accepts up to bandwidth_per_cycle queued
  /// requests.
  void tick(Cycle now);

  /// Wake list: the core of every load whose data arrived in the last
  /// tick(), in retirement order. The clock loop wakes a core it parked on
  /// that load from here; any number of cores can appear.
  const std::vector<CoreId>& woken() const noexcept { return woken_; }

  /// True when no store (any port, any core) is still uncommitted.
  bool stores_drained() const noexcept { return uncommitted_stores_ == 0; }

  /// True when nothing at all is in flight.
  bool idle() const noexcept {
    return queue_.empty() && inflight_header_.empty() &&
           inflight_header_fast_.empty() && inflight_body_.empty();
  }

  /// Sentinel returned by next_completion() when nothing is in flight.
  static constexpr Cycle kNever = ~Cycle{0};

  /// True when the next tick would accept nothing: the queue is empty or
  /// holds only header loads held back by the comparator array. Ticks are
  /// then pure waiting until the next completion — the memory-side
  /// precondition for fast-forwarding the clock.
  bool ff_quiescent() const noexcept {
    for (const Request& r : queue_) {
      if (r.op != MemOp::kLoad || r.port != Port::kHeader ||
          !header_store_uncommitted(r.addr)) {
        return false;
      }
    }
    return true;
  }

  /// Earliest complete_at over every in-flight transaction (ghost replays
  /// included — they mutate memory when they retire); kNever when nothing
  /// is in flight. The first cycle whose tick is not a pure no-op. In
  /// acceptance order each class's front completes first, so this reads
  /// three fronts; only jittered or fault-injected runs scan.
  Cycle next_completion() const noexcept {
    return std::min({inflight_header_.earliest(in_order_),
                     inflight_header_fast_.earliest(in_order_),
                     inflight_body_.earliest(in_order_)});
  }

  std::uint64_t requests_issued() const noexcept { return requests_; }
  std::uint64_t header_cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t header_cache_misses() const noexcept { return cache_misses_; }
  std::uint32_t num_cores() const noexcept {
    return static_cast<std::uint32_t>(buffers_.size() / kPortCount);
  }

 private:
  struct PortBuffer {
    bool load_inflight = false;
    std::uint8_t stores_waiting = 0;  // issued, not yet accepted
  };

  struct Request {
    CoreId core = 0;
    Port port = Port::kHeader;
    MemOp op = MemOp::kLoad;
    Addr addr = 0;
  };

  struct Inflight {
    Request req;
    Cycle complete_at = 0;
    /// Injected duplicate of a store: replays `replay_value` into the
    /// functional memory when it retires; carries no buffer/drain
    /// accounting (the architectural original already committed).
    bool ghost = false;
    Word replay_value = 0;
  };

  /// Accepted transactions of one latency class, oldest first, in a ring
  /// whose capacity is a power of two: retiring the front and pushing at
  /// the back move nothing, and the ring stops growing after warm-up.
  struct InflightClass {
    std::vector<Inflight> ring;
    std::size_t head = 0;
    std::size_t count = 0;

    bool empty() const noexcept { return count == 0; }
    std::size_t size() const noexcept { return count; }
    /// The i-th oldest entry.
    Inflight& at(std::size_t i) noexcept {
      return ring[(head + i) & (ring.size() - 1)];
    }
    const Inflight& at(std::size_t i) const noexcept {
      return ring[(head + i) & (ring.size() - 1)];
    }
    const Inflight& front() const noexcept { return ring[head]; }
    void pop_front() noexcept {
      head = (head + 1) & (ring.size() - 1);
      --count;
    }
    /// Earliest complete_at, kNever when empty: the front when the class
    /// retires in acceptance order, else a scan.
    Cycle earliest(bool in_order) const noexcept {
      if (empty()) return kNever;
      if (in_order) return front().complete_at;
      Cycle t = kNever;
      for (std::size_t i = 0; i < count; ++i) {
        t = std::min(t, at(i).complete_at);
      }
      return t;
    }
    void push(const Inflight& f) {
      if (count == ring.size()) {
        std::vector<Inflight> grown(std::max<std::size_t>(16, 2 * count));
        for (std::size_t i = 0; i < count; ++i) grown[i] = at(i);
        ring.swap(grown);
        head = 0;
      }
      at(count++) = f;
    }
  };

  /// Comparator-array entry: uncommitted header stores to one address.
  /// A count, not a flag: an evacuation's gray-header store and its later
  /// blacken store can both be pending on one tospace header.
  struct PendingStore {
    Addr addr = 0;
    std::uint32_t count = 0;
  };

  PortBuffer& buf(CoreId core, Port port) noexcept {
    return buffers_[core * kPortCount + static_cast<std::size_t>(port)];
  }
  const PortBuffer& buf(CoreId core, Port port) const noexcept {
    return buffers_[core * kPortCount + static_cast<std::size_t>(port)];
  }

  /// Comparator array: is a header store to `addr` queued or in flight?
  bool header_store_uncommitted(Addr addr) const noexcept {
    return std::any_of(
        pending_header_stores_.begin(), pending_header_stores_.end(),
        [addr](const PendingStore& p) { return p.addr == addr; });
  }
  std::vector<PendingStore>::iterator pending_header_store(Addr addr) {
    return std::find_if(
        pending_header_stores_.begin(), pending_header_stores_.end(),
        [addr](const PendingStore& p) { return p.addr == addr; });
  }

  std::size_t inflight_count() const noexcept {
    return inflight_header_.size() + inflight_header_fast_.size() +
           inflight_body_.size();
  }

  void retire_one(const Inflight& f);
  void retire_out_of_order(InflightClass& q, Cycle now);
  /// Tells the observer the in-flight count when it changed.
  void publish_inflight();

  MemoryConfig cfg_;
  FaultInjector* fault_ = nullptr;
  ClockObserver* obs_ = nullptr;
  std::uint64_t shown_inflight_ = ~std::uint64_t{0};  ///< last published
  std::vector<PortBuffer> buffers_;  // num_cores x kPortCount
  // Issued, not yet accepted, oldest first. Each tick rewrites it in one
  // pass: accepted requests drop out, held-back header loads and the
  // overflow past bandwidth_per_cycle stay in order.
  std::vector<Request> queue_;
  // Accepted requests of one latency class complete in acceptance order
  // (constant per-class latency), so one FIFO per class suffices: only the
  // front can retire. Header-cache hits form their own, faster class. With
  // latency jitter or a fault injector, completions within a class can
  // retire out of acceptance order (`in_order_` false) and the class is
  // scanned and compacted instead (fuzzing and fault runs only — never
  // the measured configuration).
  bool in_order_ = true;
  Rng jitter_rng_{0};
  InflightClass inflight_header_;
  InflightClass inflight_header_fast_;
  InflightClass inflight_body_;

  /// Header cache (Section VII future work 2): direct-mapped tag array.
  /// Contents are architectural memory (functional state is elsewhere), so
  /// only tags are modeled. Loads and stores both allocate.
  bool header_cache_lookup_and_fill(Addr addr);
  std::vector<Addr> cache_tags_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  // Comparator array: one entry per address with an uncommitted header
  // store, in no particular order. It holds at most a few dozen entries,
  // so a linear scan beats hashing and no store allocates.
  std::vector<PendingStore> pending_header_stores_;
  std::vector<CoreId> woken_;  // see woken(); refilled by every tick
  std::uint64_t uncommitted_stores_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace hwgc
