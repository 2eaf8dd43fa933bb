// Negative conformance tests: seed a deliberate corruption into a
// correctly collected heap and require the oracle to name that specific
// failure — a conformance kit that cannot distinguish "dropped an object"
// from "copied it twice" would be useless for debugging a collector. The
// last group drives the per-cycle oracle heapd and trace replay share
// (CycleOracle) through fault-injected Runtime cycles.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "baselines/sequential_cheney.hpp"
#include "conformance/conformance.hpp"
#include "conformance/harness.hpp"
#include "heap/object_model.hpp"
#include "heap/verifier.hpp"
#include "runtime/runtime.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

bool has_error(const std::vector<std::string>& errors,
               const std::string& needle) {
  for (const auto& e : errors) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string joined(const std::vector<std::string>& errors) {
  std::string s;
  for (const auto& e : errors) s += "\n  - " + e;
  return s;
}

/// Collects a random graph with `id`, hands the pre snapshot + post heap
/// to `corrupt`, and returns the oracle's diagnostics.
template <typename Corrupt>
std::vector<std::string> diagnose(CollectorId id, Corrupt&& corrupt) {
  RandomGraphConfig g;
  g.nodes = 60;
  ConformanceCase c;
  c.plan = make_random_plan(17, g);
  Workload w = materialize(c.plan, conformance_heap_factor(id, c));
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  EXPECT_GE(pre.objects.size(), 2u);
  const CycleReport report = make_harness(id)->collect(*w.heap);

  corrupt(pre, *w.heap);

  std::vector<std::string> errors;
  check_post_structure(id, pre, *w.heap, report, errors);
  return errors;
}

TEST(ConformanceNegative, CleanCollectionHasNoDiagnostics) {
  const auto errors =
      diagnose(CollectorId::kSequential, [](const HeapSnapshot&, Heap&) {});
  EXPECT_TRUE(errors.empty()) << joined(errors);
}

TEST(ConformanceNegative, DroppedEvacuationIsNamed) {
  const auto errors = diagnose(
      CollectorId::kSequential, [](const HeapSnapshot& pre, Heap& heap) {
        // Pretend the collector forgot one object: strip the forwarded
        // bit from its fromspace header.
        const Addr victim = pre.objects[1].addr;
        WordMemory& mem = heap.memory();
        mem.store(attributes_addr(victim),
                  mem.load(attributes_addr(victim)) & ~kForwardedBit);
      });
  EXPECT_TRUE(has_error(errors, "was not evacuated")) << joined(errors);
  EXPECT_TRUE(has_error(errors, "has no forwarding pointer"))
      << joined(errors);
}

TEST(ConformanceNegative, DoubleCopyIsNamed) {
  const auto errors = diagnose(
      CollectorId::kSequential, [](const HeapSnapshot& pre, Heap& heap) {
        // Two fromspace objects claiming the same copy — the failure a
        // lost CAS race in the evacuation protocol would produce.
        WordMemory& mem = heap.memory();
        const Addr a = pre.objects[0].addr;
        const Addr b = pre.objects[1].addr;
        mem.store(link_addr(b), mem.load(link_addr(a)));
      });
  EXPECT_TRUE(has_error(errors, "two objects forwarded to the same copy"))
      << joined(errors);
  EXPECT_TRUE(has_error(errors, "forwarding map not injective"))
      << joined(errors);
}

TEST(ConformanceNegative, StaleFromspacePointerIsNamed) {
  const auto errors = diagnose(
      CollectorId::kSequential, [](const HeapSnapshot& pre, Heap& heap) {
        // An unforwarded pointer left behind in a copy: find a copy with a
        // pointer field and point it back into the evacuated space.
        WordMemory& mem = heap.memory();
        for (const auto& rec : pre.objects) {
          if (rec.pi == 0) continue;
          const Addr copy = mem.load(link_addr(rec.addr));
          mem.store(pointer_field_addr(copy, 0), rec.addr);
          return;
        }
        FAIL() << "corpus held no object with a pointer field";
      });
  EXPECT_TRUE(has_error(errors, "stale fromspace pointer")) << joined(errors);
}

TEST(ConformanceNegative, OverlappingLabCopiesAreNamed) {
  const auto errors = diagnose(
      CollectorId::kStealing, [](const HeapSnapshot& pre, Heap& heap) {
        // A LAB handed to two threads at once would land one copy inside
        // another: shift an object's forwarding pointer one word into its
        // neighbor's copy.
        WordMemory& mem = heap.memory();
        const Addr a = pre.objects[0].addr;
        const Addr b = pre.objects[1].addr;
        mem.store(link_addr(b), mem.load(link_addr(a)) + 1);
      });
  EXPECT_TRUE(has_error(errors, "overlapping copies")) << joined(errors);
}

// ---------------------------------------------------------------------------
// Exact diagnostics of the forwarding helpers and the cross-collector image
// comparison, on a three-object graph whose addresses are fixed by the plan.
// ---------------------------------------------------------------------------

using Errors = std::vector<std::string>;

/// a -> {b, c}, b -> c; a is the only root. A leading garbage object
/// shifts every live address by `shift` words.
GraphPlan small_plan(Word shift = 0) {
  GraphPlan p;
  if (shift != 0) p.add(0, shift - kHeaderWords, /*garbage=*/true);
  const auto a = p.add(2, 1);
  const auto b = p.add(1, 2);
  const auto c = p.add(0, 3);
  p.link(a, 0, b);
  p.link(a, 1, c);
  p.link(b, 0, c);
  p.add_root(a);
  return p;
}

/// diagnose() over small_plan() with the sequential reference.
template <typename Corrupt>
Errors diagnose_small(Corrupt&& corrupt) {
  Workload w = materialize(small_plan());
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  const CycleReport report =
      make_harness(CollectorId::kSequential)->collect(*w.heap);
  corrupt(pre, *w.heap);
  Errors errors;
  check_post_structure(CollectorId::kSequential, pre, *w.heap, report, errors);
  return errors;
}

TEST(ConformanceText, ImagesThatDoNotTileAreNamed) {
  // Slide c's copy (the last one) up by two words and move its forwarding
  // pointer, b's field and the allocation pointer along: the map stays a
  // bijection, but the images leave a hole.
  const Errors errors = diagnose_small([](const HeapSnapshot& pre, Heap& heap) {
    WordMemory& mem = heap.memory();
    const Addr old_c = pre.objects[2].addr;
    const Addr c_copy = mem.load(link_addr(old_c));
    const Word words = object_words(mem.load(attributes_addr(c_copy)));
    for (Word i = words; i-- > 0;) {
      mem.store(c_copy + 2 + i, mem.load(c_copy + i));
    }
    mem.store(link_addr(old_c), c_copy + 2);
    const Addr a_copy = mem.load(link_addr(pre.objects[0].addr));
    const Addr b_copy = mem.load(link_addr(pre.objects[1].addr));
    mem.store(pointer_field_addr(a_copy, 1), c_copy + 2);
    mem.store(pointer_field_addr(b_copy, 0), c_copy + 2);
    heap.set_alloc_ptr(heap.alloc_ptr() + 2);
  });
  EXPECT_EQ(errors, (Errors{
                "sequential: compaction hole: expected object at 0x5a, found "
                "0x5c",
                "sequential: tospace extent mismatch: 10 words copied, "
                "snapshot had 15 live words",
                "sequential: allocation pointer not at end of copied data: "
                "0x61 != 0x5a",
                "sequential: forwarding images do not tile tospace: expected "
                "image at 0x5a, next is 0x5c",
                "sequential: tospace accounting: 15 copied + 0 wasted != 17 "
                "words consumed"}));
}

TEST(ConformanceText, ImagesNotOntoTheLiveExtentAreNamed) {
  const Errors errors = diagnose_small([](const HeapSnapshot&, Heap& heap) {
    heap.set_alloc_ptr(heap.alloc_ptr() + 4);
  });
  EXPECT_EQ(errors, (Errors{
                "sequential: allocation pointer not at end of copied data: "
                "0x63 != 0x5f",
                "sequential: forwarding map not onto the live extent (15 "
                "image words, 15 live words, alloc at 0x63)",
                "sequential: tospace accounting: 15 copied + 0 wasted != 19 "
                "words consumed"}));
}

/// Collects small_plan() twice with the sequential reference, corrupts the
/// second image, and returns cross_compare_images' diagnostics.
template <typename Corrupt>
Errors cross_compare_small(Corrupt&& corrupt) {
  Workload a = materialize(small_plan());
  Workload b = materialize(small_plan());
  const HeapSnapshot pre_a = HeapSnapshot::capture(*a.heap);
  const HeapSnapshot pre_b = HeapSnapshot::capture(*b.heap);
  SequentialCheney::collect(*a.heap);
  SequentialCheney::collect(*b.heap);
  corrupt(pre_b, *b.heap);
  Errors errors;
  const ForwardingTable fwd_a(pre_a, *a.heap);
  const ForwardingTable fwd_b(pre_b, *b.heap);
  cross_compare_images("coprocessor", "sequential", pre_a, *a.heap, fwd_a,
                       pre_b, *b.heap, fwd_b, errors);
  return errors;
}

Addr copy_in(const Heap& heap, const HeapSnapshot& pre, std::size_t slot) {
  return heap.memory().load(link_addr(pre.objects[slot].addr));
}

TEST(ConformanceText, CrossCompareNamesDivergentShapes) {
  const Errors errors =
      cross_compare_small([](const HeapSnapshot& pre, Heap& heap) {
        heap.memory().store(attributes_addr(copy_in(heap, pre, 2)),
                            make_attributes(0, 2, kBlackBit));
      });
  EXPECT_EQ(errors, Errors{"image shapes diverge for pre object 0xb"});
}

TEST(ConformanceText, CrossCompareNamesDivergentChildren) {
  const Errors errors =
      cross_compare_small([](const HeapSnapshot& pre, Heap& heap) {
        WordMemory& mem = heap.memory();
        const Addr copy = copy_in(heap, pre, 0);
        const Addr f0 = mem.load(pointer_field_addr(copy, 0));
        const Addr f1 = mem.load(pointer_field_addr(copy, 1));
        mem.store(pointer_field_addr(copy, 0), f1);
        mem.store(pointer_field_addr(copy, 1), f0);
      });
  EXPECT_EQ(errors,
            (Errors{"pointer field 0 of pre object 0x1 denotes different "
                    "children: coprocessor 0x55/0x55, sequential 0x5a/0x55",
                    "pointer field 1 of pre object 0x1 denotes different "
                    "children: coprocessor 0x5a/0x5a, sequential 0x55/0x5a"}));
}

TEST(ConformanceText, CrossCompareNamesDivergentData) {
  const Errors errors =
      cross_compare_small([](const HeapSnapshot& pre, Heap& heap) {
        WordMemory& mem = heap.memory();
        const Addr word = data_field_addr(copy_in(heap, pre, 1), 1, 0);
        mem.store(word, mem.load(word) + 7);
      });
  EXPECT_EQ(errors, Errors{"data word 0 of pre object 0x6 diverges: "
                           "1592590467 != 1592590474"});
}

TEST(ConformanceText, CrossCompareNeedsTheSameSlotOrder) {
  // Images are paired by slot: a reference heap whose snapshot lists other
  // addresses cannot be compared object by object.
  Workload a = materialize(small_plan());
  Workload b = materialize(small_plan(/*shift=*/4));
  const HeapSnapshot pre_a = HeapSnapshot::capture(*a.heap);
  const HeapSnapshot pre_b = HeapSnapshot::capture(*b.heap);
  ASSERT_EQ(pre_a.objects.size(), pre_b.objects.size());
  SequentialCheney::collect(*a.heap);
  SequentialCheney::collect(*b.heap);
  const ForwardingTable fwd_a(pre_a, *a.heap);
  const ForwardingTable fwd_b(pre_b, *b.heap);
  Errors errors;
  cross_compare_images("coprocessor", "sequential", pre_a, *a.heap, fwd_a,
                       pre_b, *b.heap, fwd_b, errors);
  EXPECT_EQ(errors,
            Errors{"materialization diverged between the two heaps"});
}

TEST(ConformanceNegative, ShadowMismatchCounterIsNamed) {
  // The concurrent collector's own oracle channel: a nonzero shadow-graph
  // validation counter must surface as a diagnostic.
  RandomGraphConfig g;
  g.nodes = 40;
  ConformanceCase c;
  c.plan = make_random_plan(5, g);
  Workload w = materialize(c.plan, 2.0);
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  CycleReport report = make_harness(CollectorId::kConcurrent)->collect(*w.heap);
  report.validation_mismatches = 3;
  std::vector<std::string> errors;
  check_post_structure(CollectorId::kConcurrent, pre, *w.heap, report, errors);
  EXPECT_TRUE(has_error(errors, "validation mismatches")) << joined(errors);
}

TEST(ConformanceNegative, ConcurrentLastOriginalRootNotForwardedIsNamed) {
  // The root-prefix check must reach the last original root, the slot
  // right before the mutator registers: point it at another copy.
  std::size_t last = 0;
  const auto errors = diagnose(
      CollectorId::kConcurrent, [&last](const HeapSnapshot& pre, Heap& heap) {
        ASSERT_FALSE(pre.roots.empty());
        ASSERT_GT(heap.roots().size(), pre.roots.size())
            << "the mutator registers follow the original roots";
        last = pre.roots.size() - 1;
        ASSERT_NE(pre.root_slots[last], HeapSnapshot::kNoSlot);
        const ForwardingTable fwd(pre, heap);
        for (std::size_t s = 0; s < pre.objects.size(); ++s) {
          if (fwd.link[s] == ForwardingTable::Link::kImage &&
              fwd.copy[s] != heap.roots()[last]) {
            heap.roots()[last] = fwd.copy[s];
            return;
          }
        }
        FAIL() << "no second copy to point the root at";
      });
  EXPECT_TRUE(has_error(errors, "concurrent: root " + std::to_string(last) +
                                    " not forwarded"))
      << joined(errors);
}

TEST(ConformanceNegative, ConcurrentCopyShapeChangeIsNamed) {
  // A copy whose header lost its original's data length.
  const auto errors = diagnose(
      CollectorId::kConcurrent, [](const HeapSnapshot& pre, Heap& heap) {
        const ForwardingTable fwd(pre, heap);
        for (std::size_t s = 0; s < pre.objects.size(); ++s) {
          if (fwd.link[s] != ForwardingTable::Link::kImage) continue;
          WordMemory& mem = heap.memory();
          const Addr at = attributes_addr(fwd.copy[s]);
          const Word attrs = mem.load(at);
          mem.store(at, (attrs & ~kMaxDelta) | (delta_of(attrs) ^ 1));
          return;
        }
        FAIL() << "no copy to corrupt";
      });
  EXPECT_TRUE(has_error(errors, "changed shape")) << joined(errors);
}

/// Runs a fault-injected coprocessor cycle (the report carries the
/// recovery ladder's account), checks the oracle accepts it as collected,
/// then corrupts the account and returns the oracle's diagnostics.
template <typename Corrupt>
std::vector<std::string> diagnose_recovery(Corrupt&& corrupt) {
  RandomGraphConfig g;
  g.nodes = 60;
  Workload w = materialize(make_random_plan(17, g), 2.0);
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  HarnessConfig hc;
  hc.fault.seed = 2;
  hc.fault.events = 3;
  hc.fault.trigger_scale = 48;  // keep trigger points inside a short run
  CycleReport report =
      make_harness(CollectorId::kCoprocessor, hc)->collect(*w.heap);
  EXPECT_TRUE(report.recovery.has_value());
  if (!report.recovery.has_value()) return {};

  std::vector<std::string> errors;
  check_post_structure(CollectorId::kCoprocessor, pre, *w.heap, report,
                       errors);
  EXPECT_TRUE(errors.empty()) << "clean fault run:" << joined(errors);
  errors.clear();

  corrupt(*report.recovery);
  check_post_structure(CollectorId::kCoprocessor, pre, *w.heap, report,
                       errors);
  return errors;
}

TEST(ConformanceNegative, FaultPlanSizeMismatchIsNamed) {
  const auto errors =
      diagnose_recovery([](RecoveryReport& r) { ++r.faults_injected; });
  EXPECT_TRUE(has_error(errors, "fault plan holds 4 events, config "
                                "requested 3"))
      << joined(errors);
}

TEST(ConformanceNegative, FaultFiringAccountingMismatchIsNamed) {
  const auto errors = diagnose_recovery([](RecoveryReport& r) {
    ASSERT_FALSE(r.attempts.empty());
    ++r.attempts.front().faults_fired;
  });
  EXPECT_TRUE(has_error(errors, "fault accounting mismatch")) << joined(errors);
}

TEST(ConformanceNegative, FaultLogSizeMismatchIsNamed) {
  const auto errors = diagnose_recovery(
      [](RecoveryReport& r) { r.fault_log.push_back("phantom firing"); });
  EXPECT_TRUE(has_error(errors, "fault log holds")) << joined(errors);
}

// --- The shared per-cycle oracle on Runtime cycles ----------------------

/// Forwards to the per-cycle oracle the way a heapd shard does, running
/// `corrupt` on the published heap before the oracle checks it.
class CorruptingObserver final : public CollectionObserver {
 public:
  CorruptingObserver(CycleOracle& oracle,
                     std::function<void(Runtime&)> corrupt)
      : oracle_(oracle), corrupt_(std::move(corrupt)) {}
  void before_collection(Runtime& rt) override {
    oracle_.before_collection(rt);
  }
  void after_collection(Runtime& rt, const GcCycleStats& s) override {
    corrupt_(rt);
    oracle_.after_collection(rt, s);
  }

 private:
  CycleOracle& oracle_;
  std::function<void(Runtime&)> corrupt_;
};

struct OracleCycle {
  std::vector<std::string> findings;
  RecoveryReport recovery;  ///< the recovery ladder's account of the cycle
};

/// One explicit Runtime collection under `cfg` over a rooted 40-object
/// chain (two data words each) plus garbage, checked by the shared oracle.
/// `corrupt` gets the published heap and the chain's head before the check.
OracleCycle oracle_cycle(
    const SimConfig& cfg,
    const std::function<void(Runtime&, Runtime::Ref)>& corrupt =
        [](Runtime&, Runtime::Ref) {}) {
  Runtime rt(2048, cfg);
  const Runtime::Ref head = rt.alloc(1, 2);
  rt.set_data(head, 0, 1000);
  rt.set_data(head, 1, 1001);
  Runtime::Ref prev = head;
  for (Word i = 1; i < 40; ++i) {
    const Runtime::Ref obj = rt.alloc(1, 2);
    rt.set_data(obj, 0, 1000 + 2 * i);
    rt.set_data(obj, 1, 1001 + 2 * i);
    rt.set_ptr(prev, 0, obj);
    if (i % 4 == 0) rt.release(rt.alloc(2, 3));  // garbage
    if (prev.slot_index() != head.slot_index()) rt.release(prev);
    prev = obj;
  }

  OracleCycle out;
  CycleOracle oracle(nullptr, [&out](std::vector<std::string>&& errors) {
    out.findings = std::move(errors);
  });
  CorruptingObserver observer(oracle,
                              [&](Runtime& r) { corrupt(r, head); });
  rt.set_collection_observer(&observer);
  rt.collect();
  out.recovery = rt.recovery_history().back();
  return out;
}

/// A fault plan the recovery ladder recovers on the coprocessor: at least
/// one fault fires, and no attempt falls back to the software collector.
SimConfig recovered_fault_config() {
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  cfg.fault.seed = 2;
  cfg.fault.events = 3;
  cfg.fault.trigger_scale = 48;
  return cfg;
}

TEST(CycleOracle, RecoveredFaultCyclePassesTheCoprocessorContract) {
  const OracleCycle c = oracle_cycle(recovered_fault_config());
  EXPECT_GT(c.recovery.faults_fired, 0u) << c.recovery.summary();
  EXPECT_GT(c.recovery.attempts.size(), 1u) << c.recovery.summary();
  EXPECT_FALSE(c.recovery.used_sequential_fallback);
  EXPECT_TRUE(c.findings.empty()) << joined(c.findings);
}

TEST(CycleOracle, TospaceWordFlippedAfterARecoveredCycleIsNamed) {
  std::string expected;
  const OracleCycle c = oracle_cycle(
      recovered_fault_config(), [&](Runtime& rt, Runtime::Ref head) {
        const Addr copy = rt.address_of(head);
        const Addr word = data_field_addr(copy, rt.pi(head), 0);
        WordMemory& mem = rt.heap().memory();
        const Word good = mem.load(word);
        mem.store(word, good ^ 0x10);
        expected = "coprocessor: data word 0 of copy " + hex(copy) +
                   " corrupted: " + std::to_string(good ^ 0x10) + " != " +
                   std::to_string(good);
      });
  EXPECT_GT(c.recovery.faults_fired, 0u) << c.recovery.summary();
  EXPECT_EQ(c.findings, std::vector<std::string>{expected});
}

TEST(CycleOracle, SequentialFallbackCyclePassesTheCounterChecks) {
  // A one-cycle watchdog budget aborts every coprocessor attempt, so the
  // ladder bottoms out in the sequential software collector, which has no
  // per-core evacuation counters: the oracle must take its evacuation
  // count from objects_copied and still check both against the live set.
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  cfg.recovery.enabled = true;
  cfg.recovery.watchdog_base = 1;
  cfg.recovery.watchdog_per_live_word = 0;
  const OracleCycle c = oracle_cycle(cfg);
  ASSERT_TRUE(c.recovery.used_sequential_fallback) << c.recovery.summary();
  EXPECT_GT(c.recovery.stats.objects_copied, 0u);
  EXPECT_TRUE(c.findings.empty()) << joined(c.findings);
}

}  // namespace
}  // namespace hwgc
