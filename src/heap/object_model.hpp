// Object layout (paper Figure 3) and header encoding (paper Figure 4).
//
// Every object is
//
//     [ header word 0: attributes ][ header word 1: link ]
//     [ pointer area: pi words    ][ data area: delta words ]
//
// Attributes pack the GC state bits and the two area lengths; the link word
// holds the forwarding pointer (in a fromspace original, once evacuated) or
// the backlink to the fromspace original (in a tospace frame, while gray).
//
// The object-state life cycle during a collection cycle is:
//   White : untouched fromspace object; attributes = {pi, delta}, no flags.
//   Gray1 : evacuated. Fromspace original: kForwardedBit set, link =
//           forwarding pointer. Tospace frame: attributes = {pi, delta},
//           link = backlink; body not yet copied.
//   Gray2 : a core is copying the body word by word (transient).
//   Black : tospace copy complete; kBlackBit set, link cleared.
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/types.hpp"

namespace hwgc {

/// Header bit budget: 2 state bits + 12 bits of pointer-area length + 18
/// bits of data-area length. Pointer areas are bounded by real fan-out
/// (4095 fields); data areas must accommodate the multi-hundred-KiB buffer
/// arrays of compress-like applications (up to 1 MiB per object).
inline constexpr Word kMaxPi = (1u << 12) - 1;
inline constexpr Word kMaxDelta = (1u << 18) - 1;

/// Attribute bit: set in a *fromspace* header when the object has been
/// evacuated (this is the paper's per-object mark/evacuated bit).
inline constexpr Word kForwardedBit = 1u << 31;

/// Attribute bit: set in a *tospace* header when the copy is complete.
inline constexpr Word kBlackBit = 1u << 30;

/// Builds an attributes word from pointer-area and data-area lengths.
constexpr Word make_attributes(Word pi, Word delta, Word flags = 0) noexcept {
  return flags | (pi << 18) | delta;
}

constexpr Word pi_of(Word attributes) noexcept {
  return (attributes >> 18) & kMaxPi;
}

constexpr Word delta_of(Word attributes) noexcept {
  return attributes & kMaxDelta;
}

constexpr bool is_forwarded(Word attributes) noexcept {
  return (attributes & kForwardedBit) != 0;
}

constexpr bool is_black(Word attributes) noexcept {
  return (attributes & kBlackBit) != 0;
}

/// Total object footprint in words, header included.
constexpr Word object_words(Word attributes) noexcept {
  return kHeaderWords + pi_of(attributes) + delta_of(attributes);
}

constexpr Word object_words(Word pi, Word delta) noexcept {
  return kHeaderWords + pi + delta;
}

/// Field addressing helpers. `obj` is the address of header word 0.
constexpr Addr attributes_addr(Addr obj) noexcept { return obj; }
constexpr Addr link_addr(Addr obj) noexcept { return obj + 1; }
constexpr Addr pointer_field_addr(Addr obj, Word i) noexcept {
  return obj + kHeaderWords + i;
}
constexpr Addr data_field_addr(Addr obj, Word pi, Word j) noexcept {
  return obj + kHeaderWords + pi + j;
}

}  // namespace hwgc
