#include "runtime/runtime.hpp"

#include <stdexcept>

#include "core/coprocessor.hpp"

namespace hwgc {

Runtime::Runtime(Word semispace_words, SimConfig cfg)
    : heap_(semispace_words), cfg_(cfg) {
  cfg_.heap.semispace_words = semispace_words;
}

Addr Runtime::addr(Ref ref) const {
  if (ref.is_null()) return kNullPtr;
  return heap_.roots()[ref.slot_];
}

std::size_t Runtime::take_slot(Addr a) {
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    const std::size_t live = heap_.roots().size() - free_slots_.size();
    if (live > root_high_water_) root_high_water_ = live;
    heap_.roots()[slot] = a;
    return slot;
  }
  heap_.roots().push_back(a);
  const std::size_t live = heap_.roots().size() - free_slots_.size();
  if (live > root_high_water_) root_high_water_ = live;
  return heap_.roots().size() - 1;
}

Runtime::Ref Runtime::alloc(Word pi, Word delta) {
  Addr obj = heap_.allocate(pi, delta);
  if (obj == kNullPtr) {
    // Exhaustion cycles run unrecorded (collect_now, not collect): replay
    // of the same allocation sequence re-triggers them deterministically.
    collect_now();
    obj = heap_.allocate(pi, delta);
    if (obj == kNullPtr) {
      throw std::runtime_error(
          "Runtime: heap exhausted even after a collection cycle");
    }
  }
  const Ref ref(take_slot(obj));
  if (sink_ != nullptr) sink_->on_alloc(*this, ref.slot_, pi, delta);
  return ref;
}

void Runtime::release(Ref ref) {
  if (ref.is_null()) return;
  if (sink_ != nullptr) sink_->on_release(*this, ref.slot_);
  heap_.roots()[ref.slot_] = kNullPtr;
  free_slots_.push_back(ref.slot_);
}

void Runtime::set_ptr(Ref obj, Word field, Ref target) {
  heap_.set_pointer(addr(obj), field, addr(target));
  if (sink_ != nullptr) {
    sink_->on_set_ptr(*this, obj.slot_, field, target.is_null(),
                      target.slot_);
  }
}

void Runtime::set_ptr_null(Ref obj, Word field) {
  heap_.set_pointer(addr(obj), field, kNullPtr);
  if (sink_ != nullptr) sink_->on_set_ptr(*this, obj.slot_, field, true, 0);
}

Runtime::Ref Runtime::load_ptr(Ref obj, Word field) {
  const Addr child = heap_.pointer(addr(obj), field);
  if (child == kNullPtr) return Ref{};
  const Ref out(take_slot(child));
  if (sink_ != nullptr) sink_->on_load_ptr(*this, obj.slot_, field, out.slot_);
  return out;
}

Runtime::Ref Runtime::dup(Ref ref) {
  if (ref.is_null()) return Ref{};
  const Ref out(take_slot(addr(ref)));
  if (sink_ != nullptr) sink_->on_dup(*this, ref.slot_, out.slot_);
  return out;
}

void Runtime::set_data(Ref obj, Word j, Word value) {
  heap_.set_data(addr(obj), j, value);
  if (sink_ != nullptr) sink_->on_set_data(*this, obj.slot_, j, value);
}

ReadProbe Runtime::read_probe(Ref obj) {
  const Addr a = addr(obj);
  ReadProbe probe;
  probe.words = heap_.delta(a);
  std::uint64_t h = 14695981039346656037ull;
  for (Word j = 0; j < probe.words; ++j) {
    Word w = heap_.data(a, j);
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ (w & 0xffu)) * 1099511628211ull;
      w >>= 8;
    }
  }
  probe.digest = h;
  if (sink_ != nullptr) sink_->on_read(*this, obj.slot_, probe);
  return probe;
}

Word Runtime::get_data(Ref obj, Word j) const {
  return heap_.data(addr(obj), j);
}

Word Runtime::pi(Ref obj) const { return heap_.pi(addr(obj)); }
Word Runtime::delta(Ref obj) const { return heap_.delta(addr(obj)); }

Runtime::Image Runtime::save_image() const {
  Image img;
  img.base = heap_.layout().current_base();
  img.alloc = heap_.alloc_ptr();
  img.words.reserve(static_cast<std::size_t>(img.alloc - img.base));
  for (Addr a = img.base; a < img.alloc; ++a) {
    img.words.push_back(heap_.memory().load(a));
  }
  img.roots = heap_.roots();
  img.free_slots = free_slots_;
  img.root_high_water = root_high_water_;
  return img;
}

void Runtime::restore_image(const Image& img) {
  if (heap_.layout().current_base() != img.base) heap_.flip();
  for (std::size_t i = 0; i < img.words.size(); ++i) {
    heap_.memory().store(img.base + static_cast<Addr>(i), img.words[i]);
  }
  heap_.set_alloc_ptr(img.alloc);
  heap_.roots() = img.roots;
  free_slots_ = img.free_slots;
  root_high_water_ = img.root_high_water;
  // An aborted fault run may have left stale checksums outside the restored
  // prefix; enable_ecc() recomputes every word's checksum (idempotent).
  if (heap_.memory().ecc_enabled()) heap_.memory().enable_ecc();
}

const GcCycleStats& Runtime::collect() {
  if (sink_ != nullptr) sink_->on_collect(*this);
  return collect_now();
}

const GcCycleStats& Runtime::collect_now() {
  if (observer_ != nullptr) observer_->before_collection(*this);
  CycleProfiler profiler;
  CycleProfiler* prof = profiling_ ? &profiler : nullptr;
  // Allocation into the current space is dense, so alloc_ptr is already
  // consistent; every backend flips the heap and republishes it.
  const bool recovering = cfg_.fault.enabled() || cfg_.recovery.enabled;
  if (plugin_ != nullptr) {
    if (recovering) {
      throw std::logic_error(
          "Runtime: a collector plugin cannot be combined with fault "
          "injection/recovery (the recovery ladder owns the cycle)");
    }
    // Plugin cycles run outside the coprocessor clock: the profiler stays
    // untouched and its profile invalid.
    history_.push_back(plugin_->collect(heap_));
  } else if (recovering) {
    RecoveringCollector collector(cfg_, heap_);
    RecoveryReport report = collector.collect(nullptr, telemetry_, prof);
    if (!report.ok) {
      recovery_history_.push_back(std::move(report));
      throw std::runtime_error(
          "Runtime: collection unrecoverable — " +
          recovery_history_.back().summary());
    }
    history_.push_back(report.stats);
    recovery_history_.push_back(std::move(report));
  } else {
    Coprocessor coproc(cfg_, heap_);
    history_.push_back(
        coproc.collect(signal_trace_, nullptr, nullptr, telemetry_, prof));
  }
  // Section V-E: "the main processor is only restarted after all updates
  // are written back to the memory". A cycle whose store buffers had not
  // drained at restart must never publish its heap to the mutator.
  if (!history_.back().restart_stores_drained) {
    ++drain_violations_;
    history_.pop_back();
    throw std::logic_error(
        "Runtime: mutator restart with undrained GC store buffers "
        "(Section V-E restart condition violated)");
  }
  // Kept aligned with history_: pushed only once the cycle is accepted.
  if (prof != nullptr) profile_history_.push_back(profiler.take_profile());
  if (observer_ != nullptr) observer_->after_collection(*this, history_.back());
  return history_.back();
}

}  // namespace hwgc
