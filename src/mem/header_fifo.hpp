// On-chip gray-header FIFO (paper Section V-D, last paragraph).
//
// Scan can only advance once the size of the object at `scan` is known,
// i.e. once its tospace header has been read — so header loads inside the
// scan critical section are a serial bottleneck. Because gray tospace
// headers are read in *exactly* the order they are written, the hardware
// buffers them in a FIFO: as long as the number of gray objects does not
// exceed its capacity, scanning needs no memory access for the header.
//
// On overflow, an evacuation simply skips the push (the header still goes
// to memory through the normal store path); the scanning core then takes a
// FIFO miss for that object and must load the header from memory while
// holding the scan lock — the effect the paper observes for `cup`.
//
// Attribution note: a header *store* stalled behind this FIFO is charged
// to the `fifo-backpressure` StallClass by the cycle profiler; the FIFO
// *miss* path surfaces as `mem-port-contention` on the scanning core
// (the header load it forces), matching how Table II separates the two.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/clock_observer.hpp"
#include "sim/types.hpp"

namespace hwgc {

class HeaderFifo {
 public:
  struct Entry {
    Addr tospace_addr = kNullPtr;  ///< address of the gray frame's header
    Word attributes = 0;           ///< {pi, delta} of the object
    Addr backlink = kNullPtr;      ///< fromspace original
  };

  /// `obs`, when non-null, sees every push, pop and overflow.
  explicit HeaderFifo(std::uint32_t capacity, ClockObserver* obs = nullptr)
      : capacity_(capacity), obs_(obs) {}

  std::uint32_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// Attempts to record an evacuated header. Returns false (and counts an
  /// overflow) when the FIFO is full or disabled.
  bool push(Entry e) {
    if (entries_.size() >= capacity_) {
      ++overflows_;
      if (obs_ != nullptr) obs_->on_fifo_overflow(overflows_, capacity_);
      return false;
    }
    entries_.push_back(e);
    if (obs_ != nullptr) obs_->on_fifo_push(entries_.size());
    return true;
  }

  /// Attempts to serve the header of the gray object at `tospace_addr`.
  /// Hit: pops and returns the entry. Miss (the entry was lost to an
  /// overflow): returns false and the caller falls back to a memory load.
  ///
  /// Because pushes and pops follow the same global order (allocation order
  /// of tospace frames), a miss can only mean the entry was never pushed —
  /// the front entry is then for a *later* frame and must stay queued.
  bool pop(Addr tospace_addr, Entry& out) {
    if (entries_.empty() || entries_.front().tospace_addr != tospace_addr) {
      ++misses_;
      return false;
    }
    out = entries_.front();
    entries_.pop_front();
    ++hits_;
    if (obs_ != nullptr) obs_->on_fifo_pop(entries_.size());
    return true;
  }

  void clear() { entries_.clear(); }

  std::uint64_t overflows() const noexcept { return overflows_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

 private:
  std::uint32_t capacity_;
  ClockObserver* obs_ = nullptr;
  std::deque<Entry> entries_;
  std::uint64_t overflows_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hwgc
