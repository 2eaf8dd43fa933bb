#include "heap/verifier.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "heap/object_model.hpp"

namespace hwgc {

HeapSnapshot HeapSnapshot::capture(const Heap& heap) {
  HeapSnapshot snap;
  snap.roots = heap.roots();
  snap.space_base = heap.layout().current_base();
  snap.space_end = heap.layout().current_end();

  // A dense address -> slot side table over [lo, lo + slots.size()). It
  // starts over the allocated extent, which holds every object a sane heap
  // reaches, and widens to the whole memory the first time a pointer lands
  // elsewhere. objects[] itself is the BFS queue.
  const WordMemory& mem = heap.memory();
  Addr lo = snap.space_base;
  std::vector<std::uint32_t> slots(
      std::clamp<std::size_t>(heap.alloc_ptr(), lo, mem.size()) - lo, kNoSlot);
  auto slot_of = [&](Addr a) {
    if (a == kNullPtr) return kNoSlot;
    const auto fresh = static_cast<std::uint32_t>(snap.objects.size());
    if (a >= mem.size()) {
      // No entry: reading this slot aborts the walk with the memory's
      // wild-access CollectionAbort.
      snap.objects.push_back({.addr = a});
      return fresh;
    }
    if (a < lo || a - lo >= slots.size()) {
      slots.insert(slots.begin(), lo, kNoSlot);
      slots.resize(mem.size(), kNoSlot);
      lo = 0;
    }
    std::uint32_t& slot = slots[a - lo];
    if (slot == kNoSlot) {
      slot = fresh;
      snap.objects.push_back({.addr = a});
    }
    return slot;
  };
  snap.root_slots.reserve(snap.roots.size());
  for (Addr r : snap.roots) snap.root_slots.push_back(slot_of(r));

  // BFS; record full contents of every reachable object.
  for (std::size_t next = 0; next < snap.objects.size(); ++next) {
    const Addr obj = snap.objects[next].addr;
    const Word attrs = mem.load(attributes_addr(obj));
    const Word pi = pi_of(attrs);
    const Word delta = delta_of(attrs);
    snap.objects[next] = {.addr = obj, .pi = pi, .delta = delta};
    for (Word i = 0; i < pi; ++i) {
      snap.children.push_back(slot_of(mem.load(pointer_field_addr(obj, i))));
    }
    for (Word j = 0; j < delta; ++j) {
      snap.data.push_back(mem.load(data_field_addr(obj, pi, j)));
    }
    snap.live_words += object_words(pi, delta);
  }
  return snap;
}

ForwardingTable::ForwardingTable(const HeapSnapshot& pre, const Heap& post)
    : base(post.layout().current_base()),
      end(post.layout().current_end()),
      copy(pre.objects.size(), kNullPtr),
      link(pre.objects.size(), Link::kMissing) {
  // Read every forwarding pointer first, so the image table spans only up
  // to the highest copy rather than the whole semispace.
  const WordMemory& mem = post.memory();
  Addr image_end = base;
  for (std::size_t s = 0; s < pre.objects.size(); ++s) {
    const Addr addr = pre.objects[s].addr;
    if (!is_forwarded(mem.load(attributes_addr(addr)))) continue;
    copy[s] = mem.load(link_addr(addr));
    link[s] = Link::kImage;
    if (in_tospace(copy[s])) image_end = std::max(image_end, copy[s] + 1);
  }
  image.assign(image_end - base, 0);
  for (std::size_t s = 0; s < pre.objects.size(); ++s) {
    if (link[s] == Link::kMissing) continue;
    const Addr c = copy[s];
    bool claimed;
    if (in_tospace(c)) {
      claimed = std::exchange(image[c - base], 1) != 0;
    } else {  // only a corrupted heap has strays
      const auto at = std::lower_bound(strays.begin(), strays.end(), c);
      claimed = at != strays.end() && *at == c;
      if (!claimed) strays.insert(at, c);
    }
    if (claimed) link[s] = Link::kShared;
  }
}

ForwardingTable::Tiling ForwardingTable::tile(const WordMemory& mem) const {
  Tiling t{.end = base, .gap = std::nullopt};
  for_each_image([&](Addr c) {
    if (c != t.end) {
      t.gap = c;
      return false;
    }
    t.end += object_words(mem.load(attributes_addr(c)));
    return true;
  });
  return t;
}

std::string VerifyResult::summary() const {
  if (ok) return "OK";
  std::ostringstream os;
  os << errors.size() << (errors.size() == 32 ? "+" : "") << " error(s): ";
  for (const auto& e : errors) os << "\n  - " << e;
  return os.str();
}

std::string hex(Addr a) {
  std::ostringstream os;
  os << "0x" << std::hex << a;
  return os.str();
}

VerifyResult verify_collection(const HeapSnapshot& pre, const Heap& post,
                               VerifyOptions options,
                               const ForwardingTable* fwd) {
  using Link = ForwardingTable::Link;
  VerifyResult res;
  const WordMemory& mem = post.memory();
  const Addr new_base = post.layout().current_base();

  // The collector must have flipped: the new space must not be the space
  // the snapshot was taken in.
  if (new_base == pre.space_base) {
    res.fail("heap was not flipped after collection");
    return res;
  }
  std::optional<ForwardingTable> own;
  if (fwd == nullptr) fwd = &own.emplace(pre, post);

  // Invariant 1: every pre-live object is forwarded exactly once, into the
  // new space, and the forwarding map is injective.
  for (std::size_t s = 0; s < pre.objects.size(); ++s) {
    const Addr addr = pre.objects[s].addr;
    const Addr copy = fwd->copy[s];
    if (fwd->link[s] == Link::kMissing) {
      res.fail("live object " + hex(addr) + " was not evacuated");
    } else if (!fwd->in_tospace(copy)) {
      res.fail("forwarding pointer of " + hex(addr) +
               " points outside tospace: " + hex(copy));
    } else if (fwd->link[s] == Link::kShared) {
      res.fail("two objects forwarded to the same copy " + hex(copy));
    }
  }
  if (!res.ok) return res;

  // Invariant 2: each copy is black, carries identical attributes, has
  // pointer fields mapped through fwd and bit-identical data words.
  // Object s's fields start where objects 0..s-1's end.
  std::size_t child = 0;
  std::size_t datum = 0;
  for (std::size_t s = 0; s < pre.objects.size();
       child += pre.objects[s].pi, datum += pre.objects[s].delta, ++s) {
    const HeapSnapshot::ObjectRecord& rec = pre.objects[s];
    const Addr copy = fwd->copy[s];
    const Word attrs = mem.load(attributes_addr(copy));
    if (!is_black(attrs)) {
      res.fail("copy " + hex(copy) + " of " + hex(rec.addr) + " is not black");
    }
    if (pi_of(attrs) != rec.pi || delta_of(attrs) != rec.delta) {
      res.fail("copy " + hex(copy) + " has wrong shape: pi " +
               std::to_string(pi_of(attrs)) + "/" + std::to_string(rec.pi) +
               " delta " + std::to_string(delta_of(attrs)) + "/" +
               std::to_string(rec.delta));
      continue;
    }
    for (Word i = 0; i < rec.pi; ++i) {
      const Addr new_child = mem.load(pointer_field_addr(copy, i));
      const Addr expect = fwd->target(pre.children[child + i]);
      if (new_child != expect) {
        res.fail("pointer field " + std::to_string(i) + " of copy " +
                 hex(copy) + " is " + hex(new_child) + ", expected " +
                 hex(expect));
      }
      // Invariant 4: no pointer may refer into the evacuated space.
      if (new_child != kNullPtr &&
          (new_child >= pre.space_base && new_child < pre.space_end)) {
        res.fail("stale fromspace pointer in copy " + hex(copy));
      }
    }
    for (Word j = 0; j < rec.delta; ++j) {
      const Word v = mem.load(data_field_addr(copy, rec.pi, j));
      if (v != pre.data[datum + j]) {
        res.fail("data word " + std::to_string(j) + " of copy " + hex(copy) +
                 " corrupted: " + std::to_string(v) + " != " +
                 std::to_string(pre.data[datum + j]));
      }
    }
  }

  // Invariant 3: compaction. For Cheney-order collectors the copies tile
  // the new space contiguously from its base and the published allocation
  // pointer sits right behind the last copy. Chunk/LAB collectors are
  // checked for non-overlap and containment below the allocation pointer
  // instead (their holes are the fragmentation cost the paper cites).
  if (options.require_dense) {
    const ForwardingTable::Tiling tiling = fwd->tile(mem);
    const Addr expect = tiling.end;
    if (tiling.gap) {
      res.fail("compaction hole: expected object at " + hex(expect) +
               ", found " + hex(*tiling.gap));
    }
    if (expect != new_base + pre.live_words) {
      res.fail("tospace extent mismatch: " +
               std::to_string(expect - new_base) + " words copied, snapshot " +
               "had " + std::to_string(pre.live_words) + " live words");
    }
    if (post.alloc_ptr() != expect) {
      res.fail("allocation pointer not at end of copied data: " +
               hex(post.alloc_ptr()) + " != " + hex(expect));
    }
  } else {
    Addr prev_end = new_base;
    fwd->for_each_image([&](Addr copy) {
      if (copy < prev_end) {
        res.fail("overlapping copies near " + hex(copy));
        return false;
      }
      prev_end = copy + object_words(mem.load(attributes_addr(copy)));
      return true;
    });
    if (prev_end > post.alloc_ptr()) {
      res.fail("copy extends past the published allocation pointer");
    }
  }

  // Roots must have been redirected to the copies.
  if (post.roots().size() != pre.roots.size()) {
    res.fail("root count changed during collection");
  } else {
    for (std::size_t k = 0; k < pre.roots.size(); ++k) {
      const Addr expect_root = fwd->target(pre.root_slots[k]);
      if (post.roots()[k] != expect_root) {
        res.fail("root " + std::to_string(k) + " not forwarded: " +
                 hex(post.roots()[k]) + " != " + hex(expect_root));
      }
    }
  }
  return res;
}

}  // namespace hwgc
