// Negative conformance tests: seed a deliberate corruption into a
// correctly collected heap and require the oracle to name that specific
// failure — a conformance kit that cannot distinguish "dropped an object"
// from "copied it twice" would be useless for debugging a collector.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conformance/conformance.hpp"
#include "conformance/harness.hpp"
#include "heap/object_model.hpp"
#include "heap/verifier.hpp"
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

}  // namespace
}  // namespace hwgc
