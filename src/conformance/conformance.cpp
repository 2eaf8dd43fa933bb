#include "conformance/conformance.hpp"

#include <algorithm>
#include <sstream>

#include "core/schedule_policy.hpp"
#include "heap/object_model.hpp"
#include "sim/rng.hpp"

namespace hwgc {

namespace {

/// Totality over the pre-live set and injectivity of the forwarding
/// table. Returns false when the map is unusable for later comparison.
bool check_forwarding_map(const char* who, const HeapSnapshot& pre,
                          const ForwardingTable& fwd,
                          std::vector<std::string>& errors) {
  using Link = ForwardingTable::Link;
  bool total = true;
  for (std::size_t s = 0; s < pre.objects.size(); ++s) {
    if (fwd.link[s] == Link::kMissing) {
      errors.push_back(std::string(who) + ": live object " +
                       hex(pre.objects[s].addr) +
                       " has no forwarding pointer");
      total = false;
    } else if (fwd.link[s] == Link::kShared) {
      errors.push_back(std::string(who) +
                       ": forwarding map not injective at copy " +
                       hex(fwd.copy[s]));
      total = false;
    }
  }
  return total;
}

/// Injectivity and shape survival over the forwarded snapshot objects, in
/// slot order; an unforwarded object was disconnected mid-cycle, which is
/// allowed. Returns false at the first defect that makes later checks
/// unsound.
bool check_copies(const char* who, const HeapSnapshot& pre, const Heap& post,
                  const ForwardingTable& fwd,
                  std::vector<std::string>& errors) {
  using Link = ForwardingTable::Link;
  for (std::size_t s = 0; s < pre.objects.size(); ++s) {
    const HeapSnapshot::ObjectRecord& rec = pre.objects[s];
    if (fwd.link[s] == Link::kMissing) continue;
    if (fwd.link[s] == Link::kShared) {
      errors.push_back(std::string(who) +
                       ": forwarding map not injective at copy " +
                       hex(fwd.copy[s]));
      return false;
    }
    // Shape survival: the copy's header must describe the same object.
    const Word cattrs = post.memory().load(attributes_addr(fwd.copy[s]));
    if (pi_of(cattrs) != rec.pi || delta_of(cattrs) != rec.delta) {
      errors.push_back(std::string(who) + ": copy of " + hex(rec.addr) +
                       " changed shape");
    }
  }
  return true;
}

/// The original root slots (the prefix before the mutator registers, which
/// the mutator never writes) must be redirected through the forwarding
/// table, which check_copies found injective.
void check_root_prefix(const char* who, const HeapSnapshot& pre,
                       const Heap& post, const ForwardingTable& fwd,
                       std::vector<std::string>& errors) {
  const auto& roots = post.roots();
  for (std::size_t i = 0; i < pre.roots.size() && i < roots.size(); ++i) {
    const std::uint32_t slot = pre.root_slots[i];
    if (slot == HeapSnapshot::kNoSlot) continue;
    if (fwd.link[slot] == ForwardingTable::Link::kMissing) {
      errors.push_back(std::string(who) + ": root " + std::to_string(i) +
                       " referent " + hex(pre.roots[i]) +
                       " was never evacuated");
    } else if (roots[i] != fwd.copy[slot]) {
      errors.push_back(std::string(who) + ": root " + std::to_string(i) +
                       " not forwarded: holds " + hex(roots[i]) +
                       ", copy is at " + hex(fwd.copy[slot]));
    }
  }
}

/// The concurrent collector's checks: its mutator may disconnect pre-live
/// objects mid-cycle (incremental update loses them by design) and keeps
/// rewriting fields, so the oracle verifies the *evacuated subset* — every
/// forwarded pre-live object maps injectively into a dense evacuation
/// extent [base, alloc_ptr), shapes survive, the untouched root prefix is
/// redirected, and the collector's own counters agree with the subset.
void check_concurrent_structure(const char* who, const HeapSnapshot& pre,
                                const Heap& post, const ForwardingTable& fwd,
                                const CycleReport& report,
                                std::vector<std::string>& errors) {
  if (!check_copies(who, pre, post, fwd, errors)) return;

  // The evacuated copies must tile [base, alloc_ptr) exactly — evacuation
  // stays dense even while the mutator bump-allocates from the top.
  const ForwardingTable::Tiling tiling = fwd.tile(post.memory());
  if (tiling.gap) {
    errors.push_back(std::string(who) +
                     ": evacuated copies do not tile the evacuation "
                     "extent: expected image at " +
                     hex(tiling.end) + ", next is " + hex(*tiling.gap));
    return;
  }
  if (tiling.end != post.alloc_ptr()) {
    errors.push_back(std::string(who) +
                     ": evacuation extent ends at " + hex(tiling.end) +
                     ", published alloc pointer is " + hex(post.alloc_ptr()));
  }
  const std::uint64_t evac_words = tiling.end - fwd.base;
  if (report.words_copied != evac_words) {
    errors.push_back(std::string(who) + ": words_copied counter " +
                     std::to_string(report.words_copied) + " != " +
                     std::to_string(evac_words) + " evacuated words");
  }
  const auto forwarded = static_cast<std::uint64_t>(
      std::ranges::count(fwd.link, ForwardingTable::Link::kImage));
  if (report.evacuations != forwarded) {
    errors.push_back(std::string(who) + ": evacuation count " +
                     std::to_string(report.evacuations) + " != " +
                     std::to_string(forwarded) + " forwarded objects");
  }
  check_root_prefix(who, pre, post, fwd, errors);
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

void cross_compare_images(const char* a_name, const char* b_name,
                          const HeapSnapshot& pre_a, const Heap& a,
                          const ForwardingTable& fwd_a,
                          const HeapSnapshot& pre_b, const Heap& b,
                          const ForwardingTable& fwd_b,
                          std::vector<std::string>& errors) {
  if (!std::ranges::equal(pre_a.objects, pre_b.objects, {},
                          &HeapSnapshot::ObjectRecord::addr,
                          &HeapSnapshot::ObjectRecord::addr)) {
    errors.push_back("materialization diverged between the two heaps");
    return;
  }
  std::size_t child = 0;  // object s's first field in pre_a.children
  for (std::size_t s = 0; s < pre_a.objects.size();
       child += pre_a.objects[s].pi, ++s) {
    const HeapSnapshot::ObjectRecord& rec = pre_a.objects[s];
    const Addr ca = fwd_a.copy[s];
    const Addr cb = fwd_b.copy[s];
    const Word attrs_a = a.memory().load(attributes_addr(ca));
    const Word attrs_b = b.memory().load(attributes_addr(cb));
    if (pi_of(attrs_a) != pi_of(attrs_b) ||
        delta_of(attrs_a) != delta_of(attrs_b)) {
      errors.push_back("image shapes diverge for pre object " + hex(rec.addr));
      continue;
    }
    for (Word i = 0; i < rec.pi; ++i) {
      const Addr want_a = fwd_a.target(pre_a.children[child + i]);
      const Addr want_b = fwd_b.target(pre_a.children[child + i]);
      const Addr got_a = a.memory().load(pointer_field_addr(ca, i));
      const Addr got_b = b.memory().load(pointer_field_addr(cb, i));
      if (got_a != want_a || got_b != want_b) {
        errors.push_back("pointer field " + std::to_string(i) +
                         " of pre object " + hex(rec.addr) +
                         " denotes different children: " + a_name + " " +
                         hex(got_a) + "/" + hex(want_a) + ", " + b_name + " " +
                         hex(got_b) + "/" + hex(want_b));
      }
    }
    for (Word j = 0; j < rec.delta; ++j) {
      const Word da = a.memory().load(data_field_addr(ca, rec.pi, j));
      const Word db = b.memory().load(data_field_addr(cb, rec.pi, j));
      if (da != db) {
        errors.push_back("data word " + std::to_string(j) + " of pre object " +
                         hex(rec.addr) + " diverges: " + std::to_string(da) +
                         " != " + std::to_string(db));
      }
    }
  }
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
  return factor * c.extra_heap_factor;
}

std::optional<ForwardingTable> check_post_structure(
    CollectorId id, const HeapSnapshot& pre, const Heap& post,
    const CycleReport& report, std::vector<std::string>& errors) {
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
      return std::nullopt;
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

  // Every check below reads this one table.
  std::optional<ForwardingTable> fwd(std::in_place, pre, post);
  if (!t.preserves_image) {
    check_concurrent_structure(who, pre, post, *fwd, report, errors);
    return fwd;
  }

  // Liveness preservation + (where promised) dense compaction.
  VerifyOptions opts;
  opts.require_dense = t.dense;
  const VerifyResult vr = verify_collection(pre, post, opts, &*fwd);
  for (const auto& e : vr.errors) {
    errors.push_back(std::string(who) + ": " + e);
  }

  // Forwarding-map bijectivity; where promised, the images tile the dense
  // extent [base, base + live words) with the allocation pointer at its end.
  if (check_forwarding_map(who, pre, *fwd, errors) && t.dense) {
    const auto [expect, gap] = fwd->tile(post.memory());
    if (gap) {
      errors.push_back(std::string(who) +
                       ": forwarding images do not tile tospace: " +
                       "expected image at " + hex(expect) + ", next is " +
                       hex(*gap));
    } else if (expect != fwd->base + pre.live_words ||
               post.alloc_ptr() != expect) {
      errors.push_back(std::string(who) +
                       ": forwarding map not onto the live extent (" +
                       std::to_string(expect - fwd->base) + " image words, " +
                       std::to_string(pre.live_words) +
                       " live words, alloc at " + hex(post.alloc_ptr()) + ")");
    }
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
  return fwd;
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

  std::vector<std::string> errs;
  const std::optional<ForwardingTable> fwd =
      check_post_structure(id, pre, *w.heap, v.report, errs);
  for (auto& e : errs) v.fail(std::move(e));

  // Cross-collector equivalence: the same plan through the sequential
  // reference must yield the identical image modulo copy order. A clean
  // verdict means the collector's own table already passed
  // check_forwarding_map.
  if (t.preserves_image && c.cross_compare && v.ok) {
    Workload ref = materialize(c.plan, conformance_heap_factor(id, c));
    const HeapSnapshot pre_ref = HeapSnapshot::capture(*ref.heap);
    SequentialCheney::collect(*ref.heap);
    const ForwardingTable fwd_ref(pre_ref, *ref.heap);
    errs.clear();
    if (check_forwarding_map("sequential", pre_ref, fwd_ref, errs)) {
      cross_compare_images(who, "sequential", pre, *w.heap, *fwd, pre_ref,
                           *ref.heap, fwd_ref, errs);
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
    errs.clear();
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

std::string FuzzCase::summary() const {
  const HarnessConfig& h = harness;
  std::ostringstream os;
  os << "--graph-seed " << graph_seed << " --schedule " << to_string(h.schedule)
     << " --schedule-seed " << h.schedule_seed << " --cores " << h.threads
     << " --fifo " << h.header_fifo_capacity << " --jitter "
     << h.latency_jitter;
  if (h.subobject_copy) os << " --subobject";
  if (h.markbit_early_read) os << " --earlyread";
  if (h.fault.enabled()) {
    const FaultConfig& fault = h.fault;
    os << " --fault-events " << fault.events << " --fault-seed " << fault.seed;
    const FaultConfig fdef;
    if (fault.class_mask != fdef.class_mask) {
      os << " --fault-mask " << fault.class_mask;
    }
    if (fault.persistent_fraction != fdef.persistent_fraction) {
      os << " --fault-persistent " << fault.persistent_fraction;
    }
    if (fault.trigger_scale != fdef.trigger_scale) {
      os << " --fault-scale " << fault.trigger_scale;
    }
  }
  const FuzzGraphConfig def;
  if (graph.min_nodes != def.min_nodes) os << " --min-nodes " << graph.min_nodes;
  if (graph.max_nodes != def.max_nodes) os << " --max-nodes " << graph.max_nodes;
  if (graph.max_pi != def.max_pi) os << " --max-pi " << graph.max_pi;
  if (graph.max_delta != def.max_delta) os << " --max-delta " << graph.max_delta;
  if (graph.edge_probability != def.edge_probability) {
    os << " --edge-prob " << graph.edge_probability;
  }
  if (graph.garbage_fraction != def.garbage_fraction) {
    os << " --garbage " << graph.garbage_fraction;
  }
  if (graph.huge_fraction != def.huge_fraction) {
    os << " --huge-frac " << graph.huge_fraction;
  }
  if (graph.huge_delta != def.huge_delta) os << " --huge-delta " << graph.huge_delta;
  if (graph.hubs != def.hubs) os << " --hubs " << graph.hubs;
  if (graph.mutation_fraction != def.mutation_fraction) {
    os << " --mutation " << graph.mutation_fraction;
  }
  if (graph.max_roots != def.max_roots) os << " --max-roots " << graph.max_roots;
  return os.str();
}

ConformanceVerdict run_fuzz_case(const FuzzCase& fc) {
  ConformanceCase c;
  c.plan = make_fuzz_plan(fc.graph_seed, fc.graph);
  c.harness = fc.harness;
  // Re-collecting would re-run the fault plan; fault runs stop at one cycle.
  c.check_idempotence = !fc.harness.fault.enabled();
  return run_conformance_case(CollectorId::kCoprocessor, c);
}

FuzzCase case_from_seed(std::uint64_t master_seed) {
  std::uint64_t s = master_seed;
  FuzzCase fc;
  fc.graph_seed = splitmix64(s);
  fc.harness.schedule = static_cast<SchedulePolicyKind>(splitmix64(s) % 4);
  fc.harness.schedule_seed = splitmix64(s);
  static constexpr std::uint32_t kCores[] = {1, 2, 3, 4, 6, 8, 12, 16};
  fc.harness.threads = kCores[splitmix64(s) % 8];
  // Tiny capacities force the FIFO-overflow path (scan-locked header
  // loads); 32k is the prototype's configuration.
  static constexpr std::uint32_t kFifo[] = {32 * 1024, 32 * 1024, 64, 4, 0};
  fc.harness.header_fifo_capacity = kFifo[splitmix64(s) % 5];
  static constexpr Cycle kJitter[] = {0, 0, 1, 3, 7};
  fc.harness.latency_jitter = kJitter[splitmix64(s) % 5];
  const std::uint64_t features = splitmix64(s);
  fc.harness.subobject_copy = features % 4 == 0;
  fc.harness.markbit_early_read = features % 8 >= 6;
  return fc;
}

FuzzCase minimize_case(const FuzzCase& failing, std::uint32_t budget) {
  FuzzCase best = failing;
  const auto fails = [&budget](const FuzzCase& c) {
    if (budget == 0) return false;
    --budget;
    return !run_fuzz_case(c).ok;
  };

  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    std::vector<FuzzCase> candidates;
    const auto propose = [&](auto&& mutate) {
      FuzzCase c = best;
      if (mutate(c)) candidates.push_back(c);
    };
    // Shrink the graph first — a small graph makes every later probe cheap.
    propose([](FuzzCase& c) {
      if (c.graph.max_nodes <= 4) return false;
      c.graph.max_nodes /= 2;
      c.graph.min_nodes = std::min(c.graph.min_nodes, c.graph.max_nodes);
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.graph.max_delta <= 1 && c.graph.huge_fraction == 0.0) return false;
      c.graph.max_delta = std::max<Word>(1, c.graph.max_delta / 2);
      c.graph.huge_fraction = 0.0;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.graph.hubs == 0 && c.graph.mutation_fraction == 0.0) return false;
      c.graph.hubs = 0;
      c.graph.mutation_fraction = 0.0;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.graph.garbage_fraction == 0.0) return false;
      c.graph.garbage_fraction = 0.0;
      return true;
    });
    // Then the collector features and hardware knobs.
    propose([](FuzzCase& c) {
      HarnessConfig& h = c.harness;
      if (!h.subobject_copy && !h.markbit_early_read) return false;
      h.subobject_copy = false;
      h.markbit_early_read = false;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.harness.latency_jitter == 0) return false;
      c.harness.latency_jitter = 0;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.harness.header_fifo_capacity >= 32 * 1024) return false;
      c.harness.header_fifo_capacity = 32 * 1024;
      return true;
    });
    propose([](FuzzCase& c) {
      HarnessConfig& h = c.harness;
      if (h.schedule == SchedulePolicyKind::kFixedPriority) return false;
      h.schedule = SchedulePolicyKind::kFixedPriority;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.harness.threads <= 2) return false;
      c.harness.threads /= 2;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.harness.threads <= 1) return false;
      --c.harness.threads;
      return true;
    });
    for (const auto& c : candidates) {
      if (fails(c)) {
        best = c;
        progress = true;
        break;
      }
      if (budget == 0) break;
    }
  }
  return best;
}

}  // namespace hwgc
