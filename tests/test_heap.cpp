// Unit tests for the heap substrate: word memory, semispace geometry and
// bump allocation.
#include <gtest/gtest.h>

#include "heap/heap.hpp"
#include "heap/object_model.hpp"

namespace hwgc {
namespace {

TEST(WordMemory, ReservesNullWord) {
  WordMemory mem(16);
  EXPECT_EQ(mem.size(), 16u);
  mem.store(1, 0xabcd);
  EXPECT_EQ(mem.load(1), 0xabcdu);
}

TEST(WordMemory, AtomicAccessAgreesWithPlain) {
  WordMemory mem(8);
  mem.store_atomic(3, 77);
  EXPECT_EQ(mem.load(3), 77u);
  Word expected = 77;
  EXPECT_TRUE(mem.cas(3, expected, 99));
  EXPECT_EQ(mem.load_atomic(3), 99u);
  expected = 77;  // stale
  EXPECT_FALSE(mem.cas(3, expected, 11));
  EXPECT_EQ(expected, 99u) << "failed CAS must report the observed value";
}

TEST(SemispaceLayout, GeometryAndFlip) {
  SemispaceLayout layout(100);
  EXPECT_EQ(layout.total_words(), 201u);
  EXPECT_EQ(layout.fromspace_base(), 1u);
  EXPECT_EQ(layout.tospace_base(), 101u);
  EXPECT_TRUE(layout.in_fromspace(1));
  EXPECT_TRUE(layout.in_fromspace(100));
  EXPECT_FALSE(layout.in_fromspace(101));
  EXPECT_TRUE(layout.in_tospace(101));
  EXPECT_TRUE(layout.in_tospace(200));
  EXPECT_FALSE(layout.in_tospace(201));

  layout.flip();
  EXPECT_EQ(layout.fromspace_base(), 101u);
  EXPECT_EQ(layout.tospace_base(), 1u);
  layout.flip();
  EXPECT_EQ(layout.fromspace_base(), 1u);
}

TEST(Heap, AllocationInitializesObject) {
  Heap heap(1024);
  const Addr obj = heap.allocate(2, 3);
  ASSERT_NE(obj, kNullPtr);
  EXPECT_EQ(heap.pi(obj), 2u);
  EXPECT_EQ(heap.delta(obj), 3u);
  EXPECT_EQ(heap.size_words(obj), 7u);
  EXPECT_EQ(heap.pointer(obj, 0), kNullPtr);
  EXPECT_EQ(heap.pointer(obj, 1), kNullPtr);
  EXPECT_EQ(heap.data(obj, 0), 0u);
  EXPECT_EQ(heap.data(obj, 2), 0u);
}

// A semispace is reused two flips later with the previous cycle's words
// still in it, so allocation itself must clear every field.
TEST(Heap, AllocationClearsAReusedSpace) {
  constexpr Word kObjects = 10;
  Heap heap(kObjects * object_words(2, 3));
  const Addr base = heap.layout().current_base();
  Addr prev = kNullPtr;
  for (Word k = 0; k < kObjects; ++k) {
    const Addr obj = heap.allocate(2, 3);
    ASSERT_NE(obj, kNullPtr);
    heap.set_pointer(obj, 0, obj);
    heap.set_pointer(obj, 1, prev == kNullPtr ? obj : prev);
    for (Word j = 0; j < 3; ++j) heap.set_data(obj, j, 0xdead0000 + k * 3 + j);
    prev = obj;
  }
  ASSERT_EQ(heap.allocate(0, 0), kNullPtr) << "the space must be full";

  for (int flips = 0; flips < 2; ++flips) {
    heap.flip();
    heap.set_alloc_ptr(heap.layout().current_base());
  }
  ASSERT_EQ(heap.layout().current_base(), base);

  for (Word k = 0; k < kObjects; ++k) {
    const Addr obj = heap.allocate(2, 3);
    ASSERT_EQ(obj, base + k * object_words(2, 3));
    EXPECT_EQ(heap.pointer(obj, 0), kNullPtr) << "object " << k;
    EXPECT_EQ(heap.pointer(obj, 1), kNullPtr) << "object " << k;
    for (Word j = 0; j < 3; ++j) {
      EXPECT_EQ(heap.data(obj, j), 0u) << "object " << k << " word " << j;
    }
  }
}

TEST(Heap, AllocationIsDenseAndOrdered) {
  Heap heap(1024);
  const Addr a = heap.allocate(1, 1);
  const Addr b = heap.allocate(0, 0);
  const Addr c = heap.allocate(3, 2);
  EXPECT_EQ(b, a + 4);
  EXPECT_EQ(c, b + 2);
  EXPECT_EQ(heap.used_words(), 4u + 2u + 7u);
  EXPECT_EQ(heap.objects_allocated(), 3u);
}

TEST(Heap, ReturnsNullWhenFull) {
  Heap heap(16);
  EXPECT_NE(heap.allocate(0, 10), kNullPtr);  // 12 words
  EXPECT_EQ(heap.allocate(0, 10), kNullPtr);  // would exceed 16
  EXPECT_NE(heap.allocate(0, 2), kNullPtr);   // 4 words still fit
}

TEST(Heap, FieldReadWriteRoundTrip) {
  Heap heap(256);
  const Addr a = heap.allocate(2, 2);
  const Addr b = heap.allocate(0, 1);
  heap.set_pointer(a, 1, b);
  heap.set_data(a, 0, 0x12345678);
  heap.set_data(b, 0, 42);
  EXPECT_EQ(heap.pointer(a, 1), b);
  EXPECT_EQ(heap.pointer(a, 0), kNullPtr);
  EXPECT_EQ(heap.data(a, 0), 0x12345678u);
  EXPECT_EQ(heap.data(b, 0), 42u);
}

TEST(Heap, RootsAreStable) {
  Heap heap(256);
  const Addr a = heap.allocate(0, 1);
  heap.roots().push_back(a);
  heap.roots().push_back(kNullPtr);
  EXPECT_EQ(heap.roots().size(), 2u);
  EXPECT_EQ(heap.roots()[0], a);
}

}  // namespace
}  // namespace hwgc
