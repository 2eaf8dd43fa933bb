// The snapshot half of the double-pointer reference encoding.
//
// The snapshot collector (snapshot_collector.hpp) gives every pointer slot
// a *pair* of words: the live half is the ordinary heap word, the snapshot
// half lives in this parallel address space. Outside a collection cycle the
// mutator write barrier stores to both halves, so the two spaces agree word
// for word on every pointer slot. When a cycle starts the snapshot half is
// frozen: mutator stores go to the live half only (and are logged for the
// reconciliation pass), while the collector walks the graph through the
// frozen half — a snapshot-at-the-beginning view that no mutator store can
// perturb. At cycle end the collector repairs the halves so they agree
// again on the freshly evacuated space.
//
// In the paper's hardware model the second slot is a second physical write
// port — the dual store is free. In this host-threaded reproduction it is
// a mirror array indexed by the same word addresses as the heap's
// WordMemory. Only pointer slots are ever consulted; the words mirroring
// headers and data areas are dead weight the model carries for addressing
// simplicity (exactly like the hardware, which pairs every heap word with
// a shadow word regardless of its role).
#pragma once

#include <atomic>
#include <cassert>
#include <vector>

#include "heap/word_memory.hpp"
#include "sim/types.hpp"

namespace hwgc {

class SnapshotSpace {
 public:
  explicit SnapshotSpace(std::size_t words) : words_(words, 0) {}

  std::size_t size() const noexcept { return words_.size(); }

  Word load(Addr a) const noexcept {
    assert(a < words_.size());
    return std::atomic_ref<const Word>(words_[a]).load(
        std::memory_order_relaxed);
  }

  void store(Addr a, Word v) noexcept {
    assert(a < words_.size());
    std::atomic_ref<Word>(words_[a]).store(v, std::memory_order_relaxed);
  }

  /// Bulk-resynchronizes the snapshot half from the live half over
  /// [begin, end). Used when a heap was populated without the dual-write
  /// barrier (the conformance harness materializes graphs through the plain
  /// Heap interface; the service runs quiescent shards the same way): the
  /// hardware would have maintained the pair on every store, so the copy
  /// models setup state, not cycle cost.
  void sync_from(WordMemory& mem, Addr begin, Addr end) {
    for (Addr a = begin; a < end; ++a) {
      store(a, mem.load_atomic(a, std::memory_order_relaxed));
    }
  }

 private:
  mutable std::vector<Word> words_;
};

}  // namespace hwgc
