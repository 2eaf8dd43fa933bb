// The managed heap: allocation, field access and root registration over a
// semispace word memory. This is the substrate shared by the coprocessor
// simulator and by all software baseline collectors.
#pragma once

#include <cstdint>
#include <vector>

#include "heap/object_model.hpp"
#include "heap/semispace.hpp"
#include "heap/word_memory.hpp"
#include "sim/types.hpp"

namespace hwgc {

class Heap {
 public:
  explicit Heap(Word semispace_words);

  // --- Mutator interface -------------------------------------------------

  /// Bump-allocates an object with `pi` pointer fields and `delta` data
  /// words in the current space. Pointer fields are null-initialized, data
  /// words zeroed. Returns kNullPtr when the space is exhausted (a real
  /// runtime would trigger a collection; see runtime/).
  Addr allocate(Word pi, Word delta);

  Word attributes(Addr obj) const { return mem_.load(attributes_addr(obj)); }
  Word pi(Addr obj) const { return pi_of(attributes(obj)); }
  Word delta(Addr obj) const { return delta_of(attributes(obj)); }
  Word size_words(Addr obj) const { return object_words(attributes(obj)); }

  Addr pointer(Addr obj, Word i) const;
  void set_pointer(Addr obj, Word i, Addr target);
  Word data(Addr obj, Word j) const;
  void set_data(Addr obj, Word j, Word value);

  /// Mutable root set (models the main processor's registers and stacks,
  /// which Core 1 reads at the start of a cycle, Section V-E).
  std::vector<Addr>& roots() noexcept { return roots_; }
  const std::vector<Addr>& roots() const noexcept { return roots_; }

  // --- Collector interface -----------------------------------------------

  /// Flips the semispaces: the current space becomes fromspace and the
  /// other space the (empty) tospace. The collector then owns `free`.
  void flip() { layout_.flip(); }

  /// Publishes the collector's final `free` pointer as the mutator's new
  /// allocation frontier after a completed cycle.
  void set_alloc_ptr(Addr a) noexcept { alloc_ = a; }
  Addr alloc_ptr() const noexcept { return alloc_; }

  /// Words currently allocated in the active space.
  Word used_words() const noexcept {
    return alloc_ - layout_.current_base();
  }
  Word capacity_words() const noexcept { return layout_.semispace_words(); }

  SemispaceLayout& layout() noexcept { return layout_; }
  const SemispaceLayout& layout() const noexcept { return layout_; }
  WordMemory& memory() noexcept { return mem_; }
  const WordMemory& memory() const noexcept { return mem_; }

  /// Number of objects allocated since construction (across all cycles).
  std::uint64_t objects_allocated() const noexcept { return allocated_; }

 private:
  SemispaceLayout layout_;
  WordMemory mem_;
  Addr alloc_;
  std::vector<Addr> roots_;
  std::uint64_t allocated_ = 0;
};

}  // namespace hwgc
