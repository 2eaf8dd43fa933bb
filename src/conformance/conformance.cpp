#include "conformance/conformance.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "conformance/forwarding.hpp"
#include "heap/object_model.hpp"

namespace hwgc {

namespace {

std::string hex(Addr a) {
  std::ostringstream os;
  os << "0x" << std::hex << a;
  return os.str();
}

/// The concurrent collector's checks: its mutator may disconnect pre-live
/// objects mid-cycle (incremental update loses them by design) and keeps
/// rewriting fields, so the oracle verifies the *evacuated subset* — every
/// forwarded pre-live object maps injectively into a dense evacuation
/// extent [base, alloc_ptr), shapes survive, the untouched root prefix is
/// redirected, and the collector's own counters agree with the subset.
void check_concurrent_structure(const char* who, const HeapSnapshot& pre,
                                const Heap& post, const CycleReport& report,
                                std::vector<std::string>& errors) {
  const WordMemory& mem = post.memory();
  const Addr base = post.layout().current_base();

  std::unordered_map<Addr, Addr> fwd;
  std::unordered_map<Addr, Addr> image_to_pre;
  for (const auto& rec : pre.objects) {
    const Word attrs = mem.load(attributes_addr(rec.addr));
    if (!is_forwarded(attrs)) continue;  // disconnected mid-cycle: allowed
    const Addr copy = mem.load(link_addr(rec.addr));
    if (!image_to_pre.emplace(copy, rec.addr).second) {
      errors.push_back(std::string(who) +
                       ": forwarding map not injective at copy " + hex(copy));
      return;
    }
    fwd.emplace(rec.addr, copy);
    // Shape survival: the copy's header must describe the same object.
    const Word cattrs = mem.load(attributes_addr(copy));
    if (pi_of(cattrs) != rec.pi || delta_of(cattrs) != rec.delta) {
      errors.push_back(std::string(who) + ": copy of " + hex(rec.addr) +
                       " changed shape");
    }
  }

  // The evacuated copies must tile [base, alloc_ptr) exactly — evacuation
  // stays dense even while the mutator bump-allocates from the top.
  std::vector<Addr> sorted;
  sorted.reserve(image_to_pre.size());
  for (const auto& [copy, from] : image_to_pre) {
    (void)from;
    sorted.push_back(copy);
  }
  std::sort(sorted.begin(), sorted.end());
  Addr expect = base;
  for (Addr copy : sorted) {
    if (copy != expect) {
      errors.push_back(std::string(who) +
                       ": evacuated copies do not tile the evacuation "
                       "extent: expected image at " +
                       hex(expect) + ", next is " + hex(copy));
      return;
    }
    expect += object_words(mem.load(attributes_addr(copy)));
  }
  if (expect != post.alloc_ptr()) {
    errors.push_back(std::string(who) +
                     ": evacuation extent ends at " + hex(expect) +
                     ", published alloc pointer is " + hex(post.alloc_ptr()));
  }
  const std::uint64_t evac_words = expect - base;
  if (report.words_copied != evac_words) {
    errors.push_back(std::string(who) + ": words_copied counter " +
                     std::to_string(report.words_copied) + " != " +
                     std::to_string(evac_words) + " evacuated words");
  }
  if (report.evacuations != fwd.size()) {
    errors.push_back(std::string(who) + ": evacuation count " +
                     std::to_string(report.evacuations) + " != " +
                     std::to_string(fwd.size()) + " forwarded objects");
  }

  // The original root slots (the prefix before the mutator's registers,
  // which the mutator never writes) must be redirected through the map.
  const auto& roots = post.roots();
  for (std::size_t i = 0; i < pre.roots.size() && i < roots.size(); ++i) {
    const Addr old_root = pre.roots[i];
    if (old_root == kNullPtr) continue;
    const auto it = fwd.find(old_root);
    if (it == fwd.end()) {
      errors.push_back(std::string(who) + ": root " + std::to_string(i) +
                       " referent " + hex(old_root) + " was never evacuated");
    } else if (roots[i] != it->second) {
      errors.push_back(std::string(who) + ": root " + std::to_string(i) +
                       " not forwarded: holds " + hex(roots[i]) +
                       ", copy is at " + hex(it->second));
    }
  }
}

/// The pauseless snapshot collector's checks. SATB gives a *stronger*
/// property than the incremental-update concurrent cycle: every object live
/// at the snapshot is evacuated (totality), even if the racing mutators
/// dropped their last reference mid-cycle. The evacuation extent also holds
/// copies of mid-cycle allocations that became root-reachable, so instead
/// of tiling the extent with snapshot copies the oracle walks it header by
/// header and verifies it is closed: every copy is complete (black), every
/// pointer field lands on a copy start or null, every root slot does too,
/// and the collector's counters agree with the walk.
void check_snapshot_structure(const char* who, const HeapSnapshot& pre,
                              const Heap& post, const CycleReport& report,
                              std::vector<std::string>& errors) {
  const WordMemory& mem = post.memory();
  const Addr base = post.layout().current_base();
  const Addr end = post.alloc_ptr();

  // SATB totality + injectivity + shape survival over the snapshot set.
  std::unordered_map<Addr, Addr> fwd;
  std::unordered_set<Addr> images;
  for (const auto& rec : pre.objects) {
    const Word attrs = mem.load(attributes_addr(rec.addr));
    if (!is_forwarded(attrs)) {
      errors.push_back(std::string(who) + ": snapshot-live object " +
                       hex(rec.addr) +
                       " was never evacuated (SATB totality violated)");
      return;
    }
    const Addr copy = mem.load(link_addr(rec.addr));
    if (!images.insert(copy).second) {
      errors.push_back(std::string(who) +
                       ": forwarding map not injective at copy " + hex(copy));
      return;
    }
    fwd.emplace(rec.addr, copy);
    const Word cattrs = mem.load(attributes_addr(copy));
    if (pi_of(cattrs) != rec.pi || delta_of(cattrs) != rec.delta) {
      errors.push_back(std::string(who) + ": copy of " + hex(rec.addr) +
                       " changed shape");
    }
  }

  // Walk the dense evacuation extent [base, alloc_ptr): snapshot copies
  // interleave with copies of newly reachable mid-cycle allocations.
  std::unordered_set<Addr> starts;
  std::uint64_t walked = 0;
  Addr a = base;
  while (a < end) {
    const Word attrs = mem.load(attributes_addr(a));
    if (!is_black(attrs)) {
      errors.push_back(std::string(who) + ": copy at " + hex(a) +
                       " missing the copy-complete (black) bit");
      return;
    }
    starts.insert(a);
    ++walked;
    a += object_words(attrs);
  }
  if (a != end) {
    errors.push_back(std::string(who) + ": evacuation extent walk overruns "
                     "the published alloc pointer at " + hex(a));
    return;
  }
  for (const Addr copy : images) {
    if (starts.find(copy) == starts.end()) {
      errors.push_back(std::string(who) + ": snapshot copy " + hex(copy) +
                       " lies outside the evacuation extent");
    }
  }
  // Closure: no pointer field of any copy may dangle outside the extent.
  for (const Addr s : starts) {
    const Word attrs = mem.load(attributes_addr(s));
    for (Word i = 0; i < pi_of(attrs); ++i) {
      const Addr v = mem.load(pointer_field_addr(s, i));
      if (v != kNullPtr && starts.find(v) == starts.end()) {
        errors.push_back(std::string(who) + ": field " + std::to_string(i) +
                         " of copy " + hex(s) + " dangles to " + hex(v));
      }
    }
  }

  if (report.evacuations != walked) {
    errors.push_back(std::string(who) + ": evacuation count " +
                     std::to_string(report.evacuations) + " != " +
                     std::to_string(walked) + " copies in the extent");
  }
  if (report.objects_copied != walked) {
    errors.push_back(std::string(who) + ": objects_copied counter " +
                     std::to_string(report.objects_copied) + " != " +
                     std::to_string(walked) + " copies in the extent");
  }
  if (report.words_copied != end - base) {
    errors.push_back(std::string(who) + ": words_copied counter " +
                     std::to_string(report.words_copied) + " != " +
                     std::to_string(end - base) + " extent words");
  }

  // Original root slots (the prefix before the mutator registers, which
  // the mutators never write) are redirected through the snapshot map;
  // every slot, mutator registers included, must land inside the extent.
  const auto& roots = post.roots();
  for (std::size_t i = 0; i < pre.roots.size() && i < roots.size(); ++i) {
    const Addr old_root = pre.roots[i];
    if (old_root == kNullPtr) continue;
    const auto it = fwd.find(old_root);
    if (it == fwd.end()) {
      errors.push_back(std::string(who) + ": root " + std::to_string(i) +
                       " referent " + hex(old_root) + " was never evacuated");
    } else if (roots[i] != it->second) {
      errors.push_back(std::string(who) + ": root " + std::to_string(i) +
                       " not forwarded: holds " + hex(roots[i]) +
                       ", copy is at " + hex(it->second));
    }
  }
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (roots[i] != kNullPtr && starts.find(roots[i]) == starts.end()) {
      errors.push_back(std::string(who) + ": root " + std::to_string(i) +
                       " points outside the evacuation extent: " +
                       hex(roots[i]));
    }
  }
}

}  // namespace

std::string ConformanceVerdict::summary() const {
  if (ok) return "OK";
  std::ostringstream os;
  os << errors.size() << " oracle error(s):";
  for (const auto& e : errors) os << "\n  - " << e;
  if (!report.schedule_tail.empty()) {
    os << "\nschedule tail:\n" << report.schedule_tail;
  }
  return os.str();
}

double conformance_heap_factor(CollectorId id, const ConformanceCase& c) {
  const CollectorTraits t = traits_of(id);
  double factor = 2.0;  // the paper's rule of thumb (Section VI-B)
  if (t.threaded && !t.dense) {
    // Chunk/LAB collectors clamp their allocation unit to
    // semispace / (4 * threads) with a 16-word floor, so heavy
    // oversubscription of a small graph can burn more tospace in
    // per-thread slack than the 2x rule leaves. Scale headroom with the
    // thread count so the floor-sized chunks of every thread always fit.
    const double live =
        static_cast<double>(std::max<std::uint64_t>(1, c.plan.live_words()));
    factor += static_cast<double>(c.harness.threads) * 64.0 / live;
  }
  if (t.concurrent_mutator) {
    // Real mutator threads bump-allocate fromspace while the cycle runs;
    // give them room to make progress before they hit the backoff path.
    factor += 1.0;
  }
  return factor * c.extra_heap_factor;
}

void check_post_structure(CollectorId id, const HeapSnapshot& pre,
                          const Heap& post, const CycleReport& report,
                          std::vector<std::string>& errors) {
  const CollectorTraits t = traits_of(id);
  const char* who = to_string(id);

  if (report.recovery.has_value()) {
    // An injected fault may be masked or explicitly recovered, never
    // silently corrupting: a failed ladder leaves the restored pre-cycle
    // image behind, and every planned, fired and logged event must be
    // accounted for.
    const RecoveryReport& rec = *report.recovery;
    if (!rec.ok) {
      errors.push_back("recovery failed: " + rec.summary());
      return;
    }
    if (rec.faults_injected != rec.faults_requested) {
      errors.push_back("fault plan holds " +
                       std::to_string(rec.faults_injected) +
                       " events, config requested " +
                       std::to_string(rec.faults_requested));
    }
    std::uint64_t fired = 0;
    for (const auto& a : rec.attempts) fired += a.faults_fired;
    if (fired != rec.faults_fired) {
      errors.push_back("fault accounting mismatch: attempts account for " +
                       std::to_string(fired) + " firings, injector reports " +
                       std::to_string(rec.faults_fired));
    }
    if (rec.faults_fired != rec.fault_log.size()) {
      errors.push_back("fault log holds " +
                       std::to_string(rec.fault_log.size()) +
                       " entries for " + std::to_string(rec.faults_fired) +
                       " firings");
    }
  }

  for (const auto& x : report.lock_order_violations) {
    errors.push_back(std::string(who) + ": lock order: " + x);
  }
  if (report.validation_mismatches != 0) {
    errors.push_back(std::string(who) + ": " +
                     std::to_string(report.validation_mismatches) +
                     " shadow-graph validation mismatches");
  }

  if (t.concurrent_mutator) {
    check_snapshot_structure(who, pre, post, report, errors);
    return;
  }
  if (!t.preserves_image) {
    check_concurrent_structure(who, pre, post, report, errors);
    return;
  }

  // Liveness preservation + (where promised) dense compaction.
  VerifyOptions opts;
  opts.require_dense = t.dense;
  const VerifyResult vr = verify_collection(pre, post, opts);
  for (const auto& e : vr.errors) {
    errors.push_back(std::string(who) + ": " + e);
  }

  // Forwarding-map bijectivity; dense tiling where promised.
  std::unordered_map<Addr, Addr> fwd;
  if (extract_forwarding_map(who, pre, post, errors, fwd) && t.dense) {
    check_dense_tiling(who, pre, post, fwd, errors);
  }

  // Single-evacuation counters: injectivity above rules out double copies,
  // the collector's own counter rules out phantom or lost evacuations.
  if (report.evacuations != pre.objects.size()) {
    errors.push_back(std::string(who) + ": evacuation count " +
                     std::to_string(report.evacuations) + " != " +
                     std::to_string(pre.objects.size()) + " live objects");
  }
  if (report.objects_copied != pre.objects.size()) {
    errors.push_back(std::string(who) + ": objects_copied counter " +
                     std::to_string(report.objects_copied) + " != " +
                     std::to_string(pre.objects.size()) + " live objects");
  }
  if (report.words_copied != pre.live_words) {
    errors.push_back(std::string(who) + ": words_copied counter " +
                     std::to_string(report.words_copied) + " != " +
                     std::to_string(pre.live_words) + " live words");
  }

  // Fragmentation accounting: everything the collector took from tospace
  // is either a landed live word or admitted waste.
  const std::uint64_t consumed = post.alloc_ptr() - post.layout().current_base();
  if (report.words_copied + report.wasted_words != consumed) {
    errors.push_back(std::string(who) + ": tospace accounting: " +
                     std::to_string(report.words_copied) + " copied + " +
                     std::to_string(report.wasted_words) + " wasted != " +
                     std::to_string(consumed) + " words consumed");
  }
  if (t.dense && report.wasted_words != 0) {
    errors.push_back(std::string(who) + ": dense collector reported " +
                     std::to_string(report.wasted_words) + " wasted words");
  }
}

ConformanceVerdict run_conformance_case(CollectorId id,
                                        const ConformanceCase& c) {
  ConformanceVerdict v;
  const CollectorTraits t = traits_of(id);
  const char* who = to_string(id);

  Workload w = materialize(c.plan, conformance_heap_factor(id, c));
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  v.live_objects = pre.objects.size();
  v.live_words = pre.live_words;

  auto harness = make_harness(id, c.harness);
  try {
    v.report = harness->collect(*w.heap);
  } catch (const std::exception& e) {
    v.fail(std::string(who) + " threw: " + e.what());
    v.report.schedule_tail = harness->schedule_tail();
    return v;
  }

  {
    std::vector<std::string> errs;
    check_post_structure(id, pre, *w.heap, v.report, errs);
    for (auto& e : errs) v.fail(std::move(e));
  }

  // Cross-collector equivalence: the same plan through the sequential
  // reference must yield the identical image modulo copy order.
  if (t.preserves_image && c.cross_compare && v.ok) {
    Workload ref = materialize(c.plan, conformance_heap_factor(id, c));
    const HeapSnapshot pre_ref = HeapSnapshot::capture(*ref.heap);
    if (pre_ref.objects.size() != pre.objects.size()) {
      v.fail("materialization diverged between the two heaps");
      return v;
    }
    SequentialCheney::collect(*ref.heap);
    std::vector<std::string> errs;
    std::unordered_map<Addr, Addr> fwd, fwd_ref;
    const bool a_ok = extract_forwarding_map(who, pre, *w.heap, errs, fwd);
    const bool b_ok =
        extract_forwarding_map("sequential", pre_ref, *ref.heap, errs, fwd_ref);
    if (a_ok && b_ok) {
      cross_compare_images(who, "sequential", pre, *w.heap, *ref.heap, fwd,
                           fwd_ref, errs);
    }
    for (auto& e : errs) v.fail(std::move(e));
  }

  // Idempotence: an immediate second cycle over the freshly collected heap
  // must preserve the graph again and copy exactly the same live set. The
  // concurrent collector's second cycle goes through the sequential
  // reference instead — re-running its mutator would change the graph.
  if (c.check_idempotence && v.ok) {
    const HeapSnapshot pre2 = HeapSnapshot::capture(*w.heap);
    if (t.preserves_image && pre2.objects.size() != pre.objects.size()) {
      v.fail(std::string(who) + ": re-collection sees " +
             std::to_string(pre2.objects.size()) + " live objects, first "
             "cycle had " + std::to_string(pre.objects.size()));
      return v;
    }
    std::vector<std::string> errs;
    if (t.preserves_image) {
      CycleReport second;
      try {
        second = harness->collect(*w.heap);
      } catch (const std::exception& e) {
        v.fail(std::string(who) + " threw on re-collection: " + e.what());
        return v;
      }
      check_post_structure(id, pre2, *w.heap, second, errs);
    } else {
      SequentialCheney::collect(*w.heap);
      const VerifyResult vr = verify_collection(pre2, *w.heap);
      errs = vr.errors;
    }
    for (auto& e : errs) v.fail("recollect: " + std::move(e));
  }

  return v;
}

}  // namespace hwgc
