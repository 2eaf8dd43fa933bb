#include "core/gc_core.hpp"

#include <cassert>
#include <string>

#include "heap/object_model.hpp"
#include "sim/abort.hpp"

namespace hwgc {

GcCore::GcCore(CoreId id, GcContext& ctx)
    : id_(id),
      ctx_(ctx),
      state_(id == 0 ? State::kRootInit : State::kStartBarrier),
      start_barrier_gen_(ctx.sb.barrier_generation()) {}

void GcCore::step(Cycle now) {
  now_ = now;
  cycle_ = {};  // a finished core's step is a no-op: it stays kOff
  switch (state_) {
    case State::kRootInit: do_root_init(); break;
    case State::kStartBarrier: do_start_barrier(); break;
    case State::kFetchWork: do_fetch_work(); break;
    case State::kFetchHeaderWait: do_fetch_header_wait(); break;
    case State::kPtrLoadIssue: do_ptr_load_issue(); break;
    case State::kPtrLoadWait: do_ptr_load_wait(); break;
    case State::kChildPeek: do_child_peek(); break;
    case State::kChildPeekWait: do_child_peek_wait(); break;
    case State::kChildLock: do_child_lock(); break;
    case State::kChildHeaderWait: do_child_header_wait(); break;
    case State::kEvacuate: do_evacuate(); break;
    case State::kPtrStore: do_ptr_store(); break;
    case State::kDataLoadIssue: do_data_load_issue(); break;
    case State::kDataLoadWait: do_data_load_wait(); break;
    case State::kBlacken: do_blacken(); break;
    case State::kStripePublish: do_stripe_publish(); break;
    case State::kStripeLoadIssue: do_stripe_load_issue(); break;
    case State::kStripeLoadWait: do_stripe_load_wait(); break;
    case State::kStripeBlacken: do_stripe_blacken(); break;
    case State::kDone: break;
  }
}

// --- Root phase ------------------------------------------------------------

void GcCore::do_root_init() {
  assert(id_ == 0 && "only core 0 walks the root set");
  auto& roots = ctx_.heap.roots();
  // Skip null roots, one per cycle (register scan on the main processor).
  while (root_k_ < roots.size() && roots[root_k_] == kNullPtr) ++root_k_;
  if (root_k_ >= roots.size()) {
    state_ = State::kStartBarrier;
    work();
    return;
  }
  child_ = roots[root_k_];
  processing_root_ = true;
  state_ = ctx_.cfg.markbit_early_read ? State::kChildPeek : State::kChildLock;
  work();
}

void GcCore::do_start_barrier() {
  ctx_.sb.barrier_arrive(id_);
  if (ctx_.sb.barrier_generation() > start_barrier_gen_) {
    state_ = State::kFetchWork;
    work();
  } else {
    stall(StallReason::kBarrier);
  }
}

// --- Work fetch (scan-lock critical section) --------------------------------

void GcCore::do_fetch_work() {
  // The scan and free registers "can simultaneously be read by all cores"
  // (Section V-C), so the idle poll and the termination check are
  // lock-free; the scan lock is only claimed once work is visible.
  if (ctx_.sb.worklist_empty()) {
    // Sub-object extension: an idle core offers itself to the stripe
    // dispenser before spinning.
    if (ctx_.cfg.subobject_copy &&
        ctx_.sb.stripe_grab(ctx_.cfg.stripe_words, stripe_task_)) {
      stripe_j_ = 0;
      ctx_.sb.set_busy(id_, true);
      state_ = State::kStripeLoadIssue;
      work();
      return;
    }
    if (ctx_.sb.all_idle() && ctx_.sb.stripes_idle()) {
      // Termination: scan == free, no core mid-object (Section IV) and no
      // stripe job in flight.
      state_ = State::kDone;
      work();
      return;
    }
    idle();  // spin; gray objects may still appear
    return;
  }
  if (!ctx_.sb.try_lock_scan(id_)) {
    stall(StallReason::kScanLock);
    return;
  }
  if (ctx_.sb.worklist_empty()) {
    // Another core fetched the last gray object between our poll and the
    // lock acquisition; back off.
    ctx_.sb.unlock_scan(id_);
    idle();
    return;
  }
  frame_addr_ = ctx_.sb.scan();
  HeaderFifo::Entry entry;
  if (ctx_.fifo.pop(frame_addr_, entry)) {
    ++counters_.fifo_hits;
    begin_object(entry.attributes, entry.backlink);
    work();
    return;
  }
  // FIFO overflow made us lose this header: read it from memory while
  // holding the scan lock — the prolonged critical section the paper
  // reports for cup.
  ++counters_.fifo_misses;
  ctx_.mem.issue_load(id_, Port::kHeader, attributes_addr(frame_addr_));
  state_ = State::kFetchHeaderWait;
  work();
}

void GcCore::do_fetch_header_wait() {
  if (ctx_.mem.load_pending(id_, Port::kHeader)) {
    stall(StallReason::kHeaderLoad);
    return;
  }
  verify_header_ecc(frame_addr_);
  const auto& m = ctx_.heap.memory();
  begin_object(m.load(attributes_addr(frame_addr_)),
               m.load(link_addr(frame_addr_)));
  work();
}

void GcCore::verify_header_ecc(Addr obj) const {
  const auto& m = ctx_.heap.memory();
  if (!m.ecc_enabled()) return;
  for (const Addr a : {attributes_addr(obj), link_addr(obj)}) {
    if (!m.ecc_ok(a)) {
      throw CollectionAbort(AbortReason::kChecksum,
                            "core " + std::to_string(id_) +
                                ": header checksum mismatch at word " +
                                std::to_string(a),
                            id_, now_);
    }
  }
}

void GcCore::begin_object(Word attrs, Addr backlink) {
  assert(ctx_.sb.holds_scan(id_));
  attrs_ = attrs;
  pi_ = pi_of(attrs);
  delta_ = delta_of(attrs);
  orig_addr_ = backlink;
  field_i_ = 0;
  data_j_ = 0;
  ctx_.sb.set_scan(frame_addr_ + object_words(attrs));
  ctx_.sb.set_busy(id_, true);
  ctx_.sb.unlock_scan(id_);
  state_ = pi_ > 0 ? State::kPtrLoadIssue : data_phase_state();
}

GcCore::State GcCore::data_phase_state() const {
  if (delta_ == 0) return State::kBlacken;
  if (ctx_.cfg.subobject_copy && delta_ >= ctx_.cfg.stripe_threshold) {
    return State::kStripePublish;
  }
  return State::kDataLoadIssue;
}

// --- Pointer-field processing ------------------------------------------------

void GcCore::do_ptr_load_issue() {
  assert(!ctx_.mem.load_pending(id_, Port::kBody));
  ctx_.mem.issue_load(id_, Port::kBody,
                      pointer_field_addr(orig_addr_, field_i_));
  state_ = State::kPtrLoadWait;
  work();
}

void GcCore::do_ptr_load_wait() {
  if (ctx_.mem.load_pending(id_, Port::kBody)) {
    stall(StallReason::kBodyLoad);
    return;
  }
  child_ = ctx_.heap.memory().load(pointer_field_addr(orig_addr_, field_i_));
  ++counters_.pointers_processed;
  if (child_ == kNullPtr) {
    fwd_ = kNullPtr;
    state_ = State::kPtrStore;
  } else if (ctx_.heap.layout().in_tospace(child_)) {
    // Concurrent mode: the mutator's read barrier maintains the to-space
    // invariant, so a field it wrote during the cycle already holds a
    // tospace pointer — final as-is. (Never occurs when the main
    // processor is stopped.)
    fwd_ = child_;
    state_ = State::kPtrStore;
  } else if (!ctx_.heap.layout().in_fromspace(child_)) {
    // Address-decode fault detection: a pointer field must hold null or an
    // address inside one of the semispaces. Anything else is a corrupted
    // pointer (e.g. an injected bit flip) about to become a wild access.
    throw CollectionAbort(AbortReason::kWildPointer,
                          "core " + std::to_string(id_) +
                              ": pointer field holds " +
                              std::to_string(child_) +
                              ", outside both semispaces",
                          id_, now_);
  } else {
    state_ =
        ctx_.cfg.markbit_early_read ? State::kChildPeek : State::kChildLock;
  }
  work();
}

void GcCore::do_child_peek() {
  // Mark-bit early read (Section VI-B): inspect the child header WITHOUT
  // acquiring the header lock. The header transaction is atomic and the
  // comparator array orders it after any in-flight store, so the core sees
  // either the pre-evacuation or the complete post-evacuation header.
  assert(!ctx_.mem.load_pending(id_, Port::kHeader));
  ctx_.mem.issue_load(id_, Port::kHeader, attributes_addr(child_));
  state_ = State::kChildPeekWait;
  work();
}

void GcCore::do_child_peek_wait() {
  if (ctx_.mem.load_pending(id_, Port::kHeader)) {
    stall(StallReason::kHeaderLoad);
    return;
  }
  verify_header_ecc(child_);
  const auto& m = ctx_.heap.memory();
  const Word attrs = m.load(attributes_addr(child_));
  if (is_forwarded(attrs)) {
    fwd_ = m.load(link_addr(child_));
    child_resolved();  // no lock was needed
  } else {
    state_ = State::kChildLock;  // must lock and re-read
  }
  work();
}

void GcCore::do_child_lock() {
  if (!ctx_.sb.try_lock_header(id_, attributes_addr(child_))) {
    stall(StallReason::kHeaderLock);
    return;
  }
  assert(!ctx_.mem.load_pending(id_, Port::kHeader));
  ctx_.mem.issue_load(id_, Port::kHeader, attributes_addr(child_));
  state_ = State::kChildHeaderWait;
  work();
}

void GcCore::do_child_header_wait() {
  if (ctx_.mem.load_pending(id_, Port::kHeader)) {
    stall(StallReason::kHeaderLoad);
    return;
  }
  verify_header_ecc(child_);
  const auto& m = ctx_.heap.memory();
  child_attrs_ = m.load(attributes_addr(child_));
  if (is_forwarded(child_attrs_)) {
    fwd_ = m.load(link_addr(child_));
    ctx_.sb.unlock_header(id_);
    child_resolved();
  } else {
    state_ = State::kEvacuate;
  }
  work();
}

void GcCore::do_evacuate() {
  // Keep the free-lock critical section at one cycle: both header stores
  // must be issuable immediately, so wait for two free slots first.
  if (ctx_.mem.store_slots_free(id_, Port::kHeader) < 2) {
    stall(StallReason::kHeaderStore);
    return;
  }
  if (!ctx_.sb.try_lock_free(id_)) {
    stall(StallReason::kFreeLock);
    return;
  }
  const Word size_c = object_words(child_attrs_);
  const Addr new_addr = ctx_.sb.free();
  if (new_addr + size_c > ctx_.heap.layout().tospace_end() ||
      new_addr + size_c > ctx_.sb.alloc_top()) {
    // Never reachable with equally sized semispaces and the concurrent
    // mutator's allocation admission control — unless a fault corrupted a
    // header's size field; a hard failure beats silent corruption of the
    // allocation region.
    throw CollectionAbort(AbortReason::kOverflow,
                          "core " + std::to_string(id_) +
                              ": evacuation overflow, tospace exhausted "
                              "during collection",
                          id_, now_);
  }
  ctx_.sb.set_free(new_addr + size_c);

  auto& m = ctx_.heap.memory();
  // Fromspace original: mark evacuated + install forwarding pointer.
  m.store(attributes_addr(child_), child_attrs_ | kForwardedBit);
  m.store(link_addr(child_), new_addr);
  ctx_.mem.issue_store(id_, Port::kHeader, attributes_addr(child_));
  // Tospace frame: gray header {pi, delta} + backlink to the original.
  m.store(attributes_addr(new_addr), child_attrs_);
  m.store(link_addr(new_addr), child_);
  ctx_.mem.issue_store(id_, Port::kHeader, attributes_addr(new_addr));
  ctx_.fifo.push(HeaderFifo::Entry{new_addr, child_attrs_, child_});

  ctx_.sb.unlock_free(id_);
  ctx_.sb.unlock_header(id_);
  fwd_ = new_addr;
  ++counters_.objects_evacuated;
  child_resolved();
  work();
}

void GcCore::child_resolved() {
  if (processing_root_) {
    // Roots live in main-processor registers: updating them needs no heap
    // memory operation (Section V-E).
    ctx_.heap.roots()[root_k_] = fwd_;
    ++root_k_;
    processing_root_ = false;
    state_ = State::kRootInit;
  } else {
    state_ = State::kPtrStore;
  }
}

void GcCore::do_ptr_store() {
  if (ctx_.mem.store_busy(id_, Port::kBody)) {
    stall(StallReason::kBodyStore);
    return;
  }
  // Concurrent mode: a mutator store may have overwritten this field of
  // the original between our load and now. The read barrier guarantees
  // mutator stores carry tospace (or null) pointers, so a changed value is
  // final and replaces our resolution. (No-op when the main processor is
  // stopped: nothing mutates fromspace during the cycle.)
  const Addr current =
      ctx_.heap.memory().load(pointer_field_addr(orig_addr_, field_i_));
  if (current != child_) {
    assert(current == kNullPtr || ctx_.heap.layout().in_tospace(current));
    fwd_ = current;
  }
  const Addr dst = pointer_field_addr(frame_addr_, field_i_);
  ctx_.heap.memory().store(dst, fwd_);
  ctx_.mem.issue_store(id_, Port::kBody, dst);
  ++field_i_;
  advance_field();
  work();
}

void GcCore::advance_field() {
  state_ = field_i_ < pi_ ? State::kPtrLoadIssue : data_phase_state();
}

// --- Data-area copy ----------------------------------------------------------

void GcCore::do_data_load_issue() {
  assert(!ctx_.mem.load_pending(id_, Port::kBody));
  ctx_.mem.issue_load(id_, Port::kBody,
                      data_field_addr(orig_addr_, pi_, data_j_));
  state_ = State::kDataLoadWait;
  work();
}

void GcCore::do_data_load_wait() {
  if (ctx_.mem.load_pending(id_, Port::kBody)) {
    stall(StallReason::kBodyLoad);
    return;
  }
  if (ctx_.mem.store_busy(id_, Port::kBody)) {
    stall(StallReason::kBodyStore);
    return;
  }
  auto& m = ctx_.heap.memory();
  const Word v = m.load(data_field_addr(orig_addr_, pi_, data_j_));
  const Addr dst = data_field_addr(frame_addr_, pi_, data_j_);
  m.store(dst, v);
  ctx_.mem.issue_store(id_, Port::kBody, dst);
  ++data_j_;
  state_ = data_j_ < delta_ ? State::kDataLoadIssue : State::kBlacken;
  work();
}

// --- Sub-object striped copy (Section VII future work 1) --------------------

void GcCore::do_stripe_publish() {
  // Hand the data area to the SB dispenser; this core is then free to
  // fetch more scan work while idle cores copy the stripes. On a full
  // dispenser, fall back to the ordinary sequential copy.
  if (!ctx_.sb.stripe_publish(orig_addr_, frame_addr_, attrs_)) {
    state_ = State::kDataLoadIssue;
    work();
    return;
  }
  ++counters_.objects_scanned;  // pointer area done; data now dispensed
  ctx_.sb.set_busy(id_, false);
  state_ = State::kFetchWork;
  work();
}

void GcCore::do_stripe_load_issue() {
  assert(!ctx_.mem.load_pending(id_, Port::kBody));
  ctx_.mem.issue_load(id_, Port::kBody,
                      data_field_addr(stripe_task_.orig, stripe_task_.pi,
                                      stripe_task_.offset + stripe_j_));
  state_ = State::kStripeLoadWait;
  work();
}

void GcCore::do_stripe_load_wait() {
  if (ctx_.mem.load_pending(id_, Port::kBody)) {
    stall(StallReason::kBodyLoad);
    return;
  }
  if (ctx_.mem.store_busy(id_, Port::kBody)) {
    stall(StallReason::kBodyStore);
    return;
  }
  auto& m = ctx_.heap.memory();
  const Word j = stripe_task_.offset + stripe_j_;
  const Word v = m.load(data_field_addr(stripe_task_.orig, stripe_task_.pi, j));
  const Addr dst = data_field_addr(stripe_task_.copy, stripe_task_.pi, j);
  m.store(dst, v);
  ctx_.mem.issue_store(id_, Port::kBody, dst);
  ++stripe_j_;
  if (stripe_j_ < stripe_task_.length) {
    state_ = State::kStripeLoadIssue;
  } else if (ctx_.sb.stripe_complete(stripe_task_.slot)) {
    state_ = State::kStripeBlacken;  // last stripe: finish the object
  } else {
    ctx_.sb.set_busy(id_, false);
    state_ = State::kFetchWork;
  }
  work();
}

void GcCore::do_stripe_blacken() {
  if (ctx_.mem.store_busy(id_, Port::kHeader)) {
    stall(StallReason::kHeaderStore);
    return;
  }
  auto& m = ctx_.heap.memory();
  m.store(attributes_addr(stripe_task_.copy),
          stripe_task_.attrs | kBlackBit);
  m.store(link_addr(stripe_task_.copy), kNullPtr);
  ctx_.mem.issue_store(id_, Port::kHeader,
                       attributes_addr(stripe_task_.copy));
  ctx_.sb.set_busy(id_, false);
  state_ = State::kFetchWork;
  work();
}

// --- Blackening ----------------------------------------------------------------

void GcCore::do_blacken() {
  if (ctx_.mem.store_busy(id_, Port::kHeader)) {
    stall(StallReason::kHeaderStore);
    return;
  }
  auto& m = ctx_.heap.memory();
  m.store(attributes_addr(frame_addr_), attrs_ | kBlackBit);
  m.store(link_addr(frame_addr_), kNullPtr);
  ctx_.mem.issue_store(id_, Port::kHeader, attributes_addr(frame_addr_));
  ctx_.sb.set_busy(id_, false);
  ++counters_.objects_scanned;
  state_ = State::kFetchWork;
  work();
}

}  // namespace hwgc
