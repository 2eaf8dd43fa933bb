// Heap verifier: proves that a collection cycle preserved the live graph.
//
// Usage: capture a HeapSnapshot of the live graph *before* the cycle, run
// any collector, then verify(). The checks implement DESIGN.md invariants
// 1-4: single evacuation, graph isomorphism through the forwarding map,
// dense compaction and absence of stale fromspace pointers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "heap/heap.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// Deep copy of the live object graph, in BFS order from the roots. An
/// object is named by its *slot*, its position in objects[]; pointer fields
/// are stored as child slots, so no check ever looks an address up.
struct HeapSnapshot {
  /// Child slot of a null pointer field, root slot of a null root.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct ObjectRecord {
    Addr addr = kNullPtr;
    Word pi = 0;
    Word delta = 0;
  };

  std::vector<ObjectRecord> objects;
  /// Every pointer field as a child slot, and every data word, both in
  /// slot order: object s's fields follow those of objects 0..s-1.
  std::vector<std::uint32_t> children;
  std::vector<Word> data;
  std::vector<Addr> roots;
  std::vector<std::uint32_t> root_slots;  ///< roots[k]'s slot
  Addr space_base = 0;  ///< base of the space the snapshot was taken in
  Addr space_end = 0;
  Word live_words = 0;

  /// Walks the heap's current space from its roots.
  static HeapSnapshot capture(const Heap& heap);
};

/// The forwarding relation of a collected heap, read out of the fromspace
/// headers once: slot -> forwarding pointer, plus a byte table over tospace
/// marking where images start. Every oracle check reads this one table.
struct ForwardingTable {
  enum class Link : std::uint8_t {
    kMissing,  ///< the original's header is not forwarded
    kImage,    ///< forwarded to a copy no earlier slot claimed
    kShared,   ///< forwarded to a copy an earlier slot already claimed
  };

  ForwardingTable(const HeapSnapshot& pre, const Heap& post);

  Addr base = 0;  ///< tospace [base, end): the post heap's current space
  Addr end = 0;
  std::vector<Addr> copy;  ///< slot -> forwarding pointer (unless kMissing)
  std::vector<Link> link;  ///< slot -> classification
  /// Tospace word -> 1 at a kImage copy, up to the highest copy.
  std::vector<std::uint8_t> image;
  std::vector<Addr> strays;  ///< kImage copies outside tospace, ascending

  bool in_tospace(Addr a) const { return a >= base && a < end; }
  /// Where a pointer to `slot` (kNoSlot: null) must point after the cycle.
  Addr target(std::uint32_t slot) const {
    return slot == HeapSnapshot::kNoSlot ? kNullPtr : copy[slot];
  }

  /// The images walked in address order from `base`, each expected where
  /// the previous one ends: the end of the tiled prefix, and the first
  /// image that is not there.
  struct Tiling {
    Addr end = 0;
    std::optional<Addr> gap;
  };
  Tiling tile(const WordMemory& mem) const;

  /// Visits every kImage copy in ascending address order until `visit`
  /// returns false.
  template <typename Visit>
  void for_each_image(Visit&& visit) const {
    auto s = strays.begin();
    for (; s != strays.end() && *s < base; ++s) {
      if (!visit(*s)) return;
    }
    for (std::size_t i = 0; i < image.size(); ++i) {
      if (image[i] != 0 && !visit(static_cast<Addr>(base + i))) return;
    }
    for (; s != strays.end(); ++s) {
      if (!visit(*s)) return;
    }
  }
};

/// How every oracle diagnostic spells an address: "0x" and lowercase hex.
std::string hex(Addr a);

struct VerifyResult {
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string msg) {
    ok = false;
    if (errors.size() < 32) errors.push_back(std::move(msg));
  }
  std::string summary() const;
};

struct VerifyOptions {
  /// Cheney-order collectors (the coprocessor, sequential, naive parallel,
  /// work-packets) produce a densely packed tospace; chunk- and LAB-based
  /// collectors legitimately leave holes (the fragmentation the paper holds
  /// against them), so they are verified for containment and non-overlap
  /// instead.
  bool require_dense = true;
};

/// Checks a completed collection cycle against the pre-cycle snapshot.
/// Expects the collector to have flipped the heap, updated the roots and
/// published the final free pointer via set_alloc_ptr(). Reads `fwd` when
/// the caller already built it, else builds its own.
VerifyResult verify_collection(const HeapSnapshot& pre, const Heap& post,
                               VerifyOptions options = {},
                               const ForwardingTable* fwd = nullptr);

}  // namespace hwgc
