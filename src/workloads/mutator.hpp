// A churning mutator with a shadow model — the stand-in for the paper's
// Java applications *between* collection cycles.
//
// The FPGA system runs real programs that allocate, mutate and drop
// references; Core 1 stops them when the semispace fills and the
// coprocessor collects (Section V-E). ShadowMutator reproduces that
// allocate/mutate/release churn against the Runtime facade and keeps a
// host-side shadow of the expected object graph, so tests can prove that
// *arbitrarily many* collection cycles preserve every reachable object,
// pointer and data word — not just the single cycle the HeapSnapshot
// verifier covers.
//
// The live set. live_ holds the shadow slots the RNG picks from, so its
// contents and order are part of the step stream every simulated number
// depends on. It is ascending (slots are allocated in order and only ever
// filtered), a superset of the objects reachable from rooted ones between
// releases (an unlink, or a link that overwrites a pointer field, may orphan
// an object that stays listed), and exactly the reachable set after each
// release.
//
// The shadow graph is flat and slot-indexed: per-slot shape, rooted flag,
// rooted_in count (edges from rooted objects) and unrooted_in count (edges
// from listed unrooted ones), children as int32 slots at stride max_pi, data
// words at stride max_delta. A release marks only when an orphan event (an
// unrooted slot left at rooted_in == 0) happened since the last mark, and the
// mark walks only what the orphans reach through unrooted slots (DESIGN.md
// "Shadow model" gives the argument).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/runtime.hpp"
#include "sim/rng.hpp"

namespace hwgc {

class ShadowMutator {
 public:
  struct Config {
    std::uint64_t seed = 1;
    Word max_pi = 4;
    Word max_delta = 8;
    /// Rough number of rooted objects the mutator tries to keep alive;
    /// beyond it, allocation steps are balanced by root releases (creating
    /// garbage for the next cycle).
    std::size_t target_live = 256;
  };

  ShadowMutator() : ShadowMutator(Config{}) {}

  /// Validates the configuration eagerly: target_live == 0 (the mutator
  /// could never hold an object, so every step would be a no-op or a
  /// release of nothing) and max_pi/max_delta beyond the header encoding
  /// (object_model.hpp kMaxPi/kMaxDelta) throw std::invalid_argument here
  /// instead of corrupting headers or failing on a late allocation.
  explicit ShadowMutator(Config cfg);

  /// Performs one mutation action: allocate, link, unlink, overwrite data
  /// or release a root. Throws std::invalid_argument on the first call
  /// against a runtime whose semispace cannot hold even one max-shape
  /// object (such a config would otherwise die much later, whenever the
  /// rng first draws the unsatisfiable shape).
  void step(Runtime& rt);

  void run(Runtime& rt, std::size_t steps) {
    for (std::size_t i = 0; i < steps; ++i) step(rt);
  }

  /// Walks the shadow graph and compares every reachable object's shape,
  /// data words and link structure against the real heap. Returns the
  /// number of mismatches (0 = heap and shadow agree).
  std::size_t validate(Runtime& rt) const;

  /// Read-only probe for service-style read traffic (src/service/): picks
  /// one rooted object and compares every data word against the shadow.
  /// Returns the number of words read (0 when nothing is rooted); each
  /// divergent word increments *mismatches when non-null. Unlike
  /// validate() this is O(object), cheap enough to run per request.
  std::size_t probe(Runtime& rt, std::size_t* mismatches = nullptr);

  std::size_t live_rooted() const noexcept { return rooted_; }
  std::uint64_t allocations() const noexcept { return allocations_; }

  /// One shadow object as Image stores it. Public only so Image below can
  /// be a value type the service-layer checkpoint stores and digests; not
  /// part of the mutation API.
  struct ShadowObj {
    Runtime::Ref ref;  ///< valid while rooted
    bool rooted = false;
    Word pi = 0;
    Word delta = 0;
    std::vector<std::int64_t> children;  ///< shadow index or -1
    std::vector<Word> data;
  };

  /// Checkpoint seam: the complete mutator state — shadow graph, live set,
  /// RNG stream position and allocation count. Restoring an image resumes
  /// the exact step sequence the mutator would have produced from the
  /// capture point (paired with Runtime::restore_image so the shadow and
  /// the real heap stay in lockstep).
  struct Image {
    std::array<std::uint64_t, 4> rng{};
    std::vector<ShadowObj> objs;
    std::vector<std::size_t> live;
    std::uint64_t allocations = 0;
  };

  Image save_image() const;
  /// Throws std::invalid_argument, naming the object and the field, and
  /// leaves this mutator untouched when the image cannot be this mutator's
  /// state: a shape beyond max_pi/max_delta (the image belongs to another
  /// config), children/data sizes that differ from pi/delta, a child outside
  /// [-1, objs.size()), a live entry out of range or out of order, a rooted
  /// object missing from live, or an unrooted child of a listed object that
  /// is not listed.
  void restore_image(const Image& img);

  /// FNV-1a 64 over data words — the shadow-side counterpart of
  /// Runtime::read_probe's heap-side digest (identical byte order), so a
  /// probe can compare one digest instead of every word.
  static std::uint64_t data_digest(std::span<const Word> data);

 private:
  struct Slot {
    Runtime::Ref ref;  ///< valid while rooted
    std::uint32_t delta = 0;
    std::uint32_t rooted_in = 0;    ///< edges into this slot from rooted ones
    std::uint32_t unrooted_in = 0;  ///< edges from listed unrooted ones
    std::uint16_t pi = 0;           ///< kMaxPi fits; Slot stays 24 bytes
    bool rooted = false;
  };

  std::int32_t* children(std::size_t slot) {
    return children_.data() + slot * cfg_.max_pi;
  }
  const std::int32_t* children(std::size_t slot) const {
    return children_.data() + slot * cfg_.max_pi;
  }
  Word* data(std::size_t slot) {
    return data_.data() + slot * cfg_.max_delta;
  }
  const Word* data(std::size_t slot) const {
    return data_.data() + slot * cfg_.max_delta;
  }

  /// Removes one edge from a rooted object to `child`; an unrooted child
  /// left without rooted in-edges is an orphan.
  void drop_rooted_edge(std::int32_t child);

  /// Drops from live_ the slots the orphans' region holds that are no
  /// longer reachable from a rooted one (garbage in the real heap too).
  void mark_live();

  std::size_t pick_live();

  Config cfg_;
  Rng rng_;
  std::vector<Slot> slots_;
  std::vector<std::int32_t> children_;  ///< stride max_pi, -1 = null
  std::vector<Word> data_;              ///< stride max_delta
  std::vector<std::size_t> live_;       ///< see the contract at the top
  std::size_t rooted_ = 0;              ///< rooted slots (all in live_)
  /// Unrooted slots left at rooted_in == 0 since the last mark (possibly
  /// repeated); reachability may have shrunk only when this is non-empty.
  std::vector<std::size_t> orphans_;
  /// Per slot, 0 outside a mark. During one: 1 + the outside support of a
  /// region slot, then 0 again once the slot is marked live.
  std::vector<std::uint32_t> support_;
  std::vector<std::size_t> region_;
  std::vector<std::size_t> mark_stack_;
  std::uint64_t allocations_ = 0;
};

}  // namespace hwgc
