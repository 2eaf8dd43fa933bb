#include "heap/heap.hpp"

#include <cassert>

namespace hwgc {

Heap::Heap(Word semispace_words)
    : layout_(semispace_words),
      mem_(layout_.total_words()),
      alloc_(layout_.current_base()) {}

Addr Heap::allocate(Word pi, Word delta) {
  assert(pi <= kMaxPi && delta <= kMaxDelta);
  const Word need = object_words(pi, delta);
  if (alloc_ + need > layout_.current_end()) return kNullPtr;
  const Addr obj = alloc_;
  alloc_ += need;
  mem_.store(attributes_addr(obj), make_attributes(pi, delta));
  mem_.store(link_addr(obj), kNullPtr);
  for (Word i = 0; i < pi; ++i) {
    mem_.store(pointer_field_addr(obj, i), kNullPtr);
  }
  for (Word j = 0; j < delta; ++j) {
    mem_.store(data_field_addr(obj, pi, j), 0);
  }
  ++allocated_;
  return obj;
}

Addr Heap::pointer(Addr obj, Word i) const {
  assert(i < pi(obj));
  return mem_.load(pointer_field_addr(obj, i));
}

void Heap::set_pointer(Addr obj, Word i, Addr target) {
  assert(i < pi(obj));
  mem_.store(pointer_field_addr(obj, i), target);
}

Word Heap::data(Addr obj, Word j) const {
  assert(j < delta(obj));
  return mem_.load(data_field_addr(obj, pi(obj), j));
}

void Heap::set_data(Addr obj, Word j, Word value) {
  assert(j < delta(obj));
  mem_.store(data_field_addr(obj, pi(obj), j), value);
}

}  // namespace hwgc
