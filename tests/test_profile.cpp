// Cycle attribution (src/profile/): the exclusive stall taxonomy, the
// binding rule, fast-forward absorption, and the validator identities —
// every cycle of every core lands in exactly one class, per core the
// class totals sum to the collection's elapsed cycles, and the critical
// (binding) stream tiles [0, total_cycles) with no gaps.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "core/coprocessor.hpp"
#include "profile/critical_path.hpp"
#include "profile/cycle_profiler.hpp"
#include "profile/profile_metrics.hpp"
#include "runtime/runtime.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/mutator.hpp"

namespace hwgc {
namespace {

std::size_t idx(StallClass c) { return static_cast<std::size_t>(c); }

CycleProfile profile_one(BenchmarkId id, std::uint32_t cores,
                         bool fast_forward, GcCycleStats* stats_out = nullptr) {
  Workload w = make_benchmark(id, 0.05, 42);
  SimConfig cfg;
  cfg.coprocessor.num_cores = cores;
  cfg.coprocessor.fast_forward = fast_forward;
  cfg.heap.semispace_words = w.heap->layout().semispace_words();
  Coprocessor coproc(cfg, *w.heap);
  CycleProfiler profiler;
  const GcCycleStats stats =
      coproc.collect(nullptr, nullptr, nullptr, nullptr, &profiler);
  if (stats_out != nullptr) *stats_out = stats;
  return profiler.take_profile();
}

// --- the taxonomy ----------------------------------------------------------

TEST(StallTaxonomy, EveryStallReasonMapsToExactlyOneClass) {
  for (std::size_t r = 1; r < kStallReasonCount; ++r) {
    const StallClass c = class_of(static_cast<StallReason>(r));
    EXPECT_LT(idx(c), kStallClassCount);
    EXPECT_NE(c, StallClass::kCompute)
        << "a stalled cycle can never be attributed to compute";
  }
  EXPECT_EQ(class_of(StallReason::kScanLock), StallClass::kSbScanWait);
  EXPECT_EQ(class_of(StallReason::kHeaderStore),
            StallClass::kFifoBackpressure);
  EXPECT_EQ(class_of(StallReason::kBodyLoad), StallClass::kMemPort);
  EXPECT_EQ(class_of(StallReason::kBodyStore), StallClass::kMemPort);
}

TEST(StallTaxonomy, NamesAreUniqueAndKnown) {
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    for (std::size_t j = i + 1; j < kStallClassCount; ++j) {
      EXPECT_NE(to_string(static_cast<StallClass>(i)),
                to_string(static_cast<StallClass>(j)));
      EXPECT_NE(field_suffix(static_cast<StallClass>(i)),
                field_suffix(static_cast<StallClass>(j)));
    }
  }
}

// --- the binding rule -------------------------------------------------------

constexpr CoreCycle kWork{CoreActivity::kBusy};
constexpr CoreCycle kSpin{CoreActivity::kIdle};
constexpr CoreCycle kOff{};

constexpr CoreCycle stall(StallReason r) { return {CoreActivity::kStall, r}; }

/// Publishes one core-stepping cycle: a record per core, then its end.
void tick(CycleProfiler& p, std::initializer_list<CoreCycle> records) {
  CoreId c = 0;
  for (const CoreCycle& rec : records) p.on_core_cycle(c++, rec);
  p.on_cycle_end(ClockSample{});
}

/// Publishes one store-drain cycle (every core halted).
void drain(CycleProfiler& p) {
  ClockSample s;
  s.draining = true;
  p.on_cycle_end(s);
}

TEST(CycleProfiler, BindingRulePerCycle) {
  CycleProfiler p;
  p.on_collection_begin(3);

  // Any compute wins, whatever the other cores report.
  tick(p, {kWork, stall(StallReason::kScanLock), kSpin});

  // No compute: most-populous class among clocked cores binds...
  tick(p, {stall(StallReason::kBodyLoad), stall(StallReason::kBodyLoad),
           kSpin});

  // ...ties break toward the smaller enum value (scan-wait over mem-port).
  // Core 2 missed its clock -> idle-deconfigured.
  tick(p, {stall(StallReason::kBodyLoad), stall(StallReason::kScanLock),
           kOff});

  // No clocked core at all: idle-deconfigured binds...
  tick(p, {kOff, kOff, kOff});

  // ...except the store-drain window, which the memory ports bind.
  drain(p);

  p.on_collection_end(5, nullptr);
  const CycleProfile prof = p.take_profile();

  ASSERT_EQ(prof.total_cycles, 5u);
  ASSERT_EQ(prof.segments.size(), 5u);
  EXPECT_EQ(prof.segments[0].binding, StallClass::kCompute);
  EXPECT_EQ(prof.segments[1].binding, StallClass::kMemPort);
  EXPECT_EQ(prof.segments[2].binding, StallClass::kSbScanWait);
  EXPECT_EQ(prof.segments[3].binding, StallClass::kIdleDeconfigured);
  EXPECT_EQ(prof.segments[4].binding, StallClass::kMemPort);

  // Per-core exhaustiveness: unclocked cycles are charged deconfigured.
  EXPECT_EQ(prof.per_core[2][idx(StallClass::kWorklistStarved)], 2u);
  EXPECT_EQ(prof.per_core[2][idx(StallClass::kIdleDeconfigured)], 3u);
  std::string err;
  EXPECT_TRUE(validate_cycle_profile(prof, &err)) << err;
}

TEST(CycleProfiler, AbsorbEqualsRepeatedEndCycle) {
  // absorb(k) must be exactly equivalent to k more repetitions of the
  // cycle just closed — the fast-forward soundness argument.
  CycleProfiler bulk, ticked;
  bulk.on_collection_begin(3);
  ticked.on_collection_begin(3);

  const auto window = {stall(StallReason::kScanLock), kSpin, kOff};
  tick(bulk, window);
  bulk.absorb(7);
  for (int i = 0; i < 8; ++i) tick(ticked, window);
  drain(bulk);
  bulk.absorb(3);
  for (int i = 0; i < 4; ++i) drain(ticked);

  bulk.on_collection_end(12, nullptr);
  ticked.on_collection_end(12, nullptr);
  EXPECT_EQ(bulk.take_profile(), ticked.take_profile());
}

TEST(CycleProfiler, MarkUnprofiledYieldsValidEmptyHistorySlot) {
  CycleProfiler p;
  p.on_collection_begin(4);
  tick(p, {kWork, kOff, kOff, kOff});
  p.mark_unprofiled();  // recovery's sequential fallback discards all that
  const CycleProfile prof = p.take_profile();
  EXPECT_FALSE(prof.valid);
  EXPECT_EQ(prof.total_cycles, 0u);
  std::string err;
  EXPECT_TRUE(validate_cycle_profile(prof, &err)) << err;

  ProfileAttribution a;
  a.add(prof);
  EXPECT_EQ(a.collections, 1u);
  EXPECT_EQ(a.unprofiled, 1u);
  EXPECT_EQ(a.core_cycles, 0u);
}

// --- real collections: exactness across the benchmark matrix ---------------

TEST(CycleProfiler, AttributionIsExactAcrossBenchmarks) {
  for (BenchmarkId id : {all_benchmarks()[0], all_benchmarks()[2]}) {
    for (std::uint32_t cores : {1u, 4u, 8u}) {
      GcCycleStats stats;
      const CycleProfile prof = profile_one(id, cores, true, &stats);
      ASSERT_TRUE(prof.valid);
      EXPECT_EQ(prof.cores, cores);
      EXPECT_EQ(prof.total_cycles, stats.total_cycles)
          << "profiled cycles must equal the collection's elapsed cycles";
      std::string err;
      EXPECT_TRUE(validate_cycle_profile(prof, &err))
          << benchmark_name(id) << "/" << cores << "c: " << err;

      // The headline identity, spelled out: per core, the class totals
      // sum to the elapsed cycles — no cycle unattributed, none twice.
      for (std::size_t c = 0; c < prof.per_core.size(); ++c) {
        Cycle sum = 0;
        for (std::size_t k = 0; k < kStallClassCount; ++k) {
          sum += prof.per_core[c][k];
        }
        EXPECT_EQ(sum, prof.total_cycles) << "core " << c;
      }

      // Counters and profile come from the same per-cycle records, so
      // they cannot disagree: compute is busy, worklist-starved is idle,
      // every stall class is the sum of the stall reasons it folds, and
      // idle-deconfigured is every cycle the core was not clocked.
      ASSERT_EQ(stats.per_core.size(), prof.per_core.size());
      for (std::size_t c = 0; c < prof.per_core.size(); ++c) {
        SCOPED_TRACE("core " + std::to_string(c));
        const CoreCounters& cc = stats.per_core[c];
        const auto& cls = prof.per_core[c];
        EXPECT_EQ(cls[idx(StallClass::kCompute)], cc.busy_cycles);
        EXPECT_EQ(cls[idx(StallClass::kWorklistStarved)], cc.idle_cycles);
        for (std::size_t k = 0; k < kStallClassCount; ++k) {
          const auto sc = static_cast<StallClass>(k);
          if (sc == StallClass::kCompute ||
              sc == StallClass::kWorklistStarved ||
              sc == StallClass::kIdleDeconfigured) {
            continue;
          }
          Cycle stalls = 0;
          for (std::size_t r = 1; r < kStallReasonCount; ++r) {
            if (class_of(static_cast<StallReason>(r)) == sc) {
              stalls += cc.stalls[r];
            }
          }
          EXPECT_EQ(cls[k], stalls) << to_string(sc);
        }
        const Cycle clocked =
            cc.busy_cycles + cc.idle_cycles + cc.total_stalls();
        EXPECT_EQ(cls[idx(StallClass::kIdleDeconfigured)],
                  stats.total_cycles - clocked);
      }
    }
  }
}

TEST(CycleProfiler, FastForwardProfileIsBitIdentical) {
  // Counter-equivalence with profiling enabled: the absorbed quiescent
  // windows must reproduce the ticked run's profile exactly.
  for (std::uint32_t cores : {1u, 4u}) {
    GcCycleStats ticked_stats, ff_stats;
    const CycleProfile ticked =
        profile_one(all_benchmarks()[2], cores, false, &ticked_stats);
    const CycleProfile ff =
        profile_one(all_benchmarks()[2], cores, true, &ff_stats);
    EXPECT_EQ(ticked_stats.total_cycles, ff_stats.total_cycles);
    EXPECT_EQ(ticked, ff) << cores << " cores";
  }
}

// --- critical path ----------------------------------------------------------

TEST(CriticalPath, ReportMatchesProfile) {
  const CycleProfile prof = profile_one(all_benchmarks()[2], 8, true);
  const CriticalPathReport rep = critical_path(prof);
  ASSERT_TRUE(rep.valid);
  EXPECT_EQ(rep.total_cycles, prof.total_cycles);
  EXPECT_EQ(rep.binding, prof.binding());
  EXPECT_DOUBLE_EQ(rep.binding_share, prof.binding_share());
  EXPECT_EQ(rep.chain_length, prof.segments.size());
  EXPECT_LE(rep.longest_run.length, prof.total_cycles);
  EXPECT_GT(rep.longest_run.length, 0u);
  EXPECT_NE(rep.summary().find("bound by"), std::string::npos);
}

TEST(CriticalPath, ValidatorRejectsTamperedProfiles) {
  CycleProfile prof = profile_one(all_benchmarks()[2], 4, true);
  std::string err;
  ASSERT_TRUE(validate_cycle_profile(prof, &err)) << err;

  CycleProfile leak = prof;  // a cycle leaks out of one core's totals
  leak.per_core[0][idx(StallClass::kCompute)] -= 1;
  EXPECT_FALSE(validate_cycle_profile(leak, &err));

  CycleProfile torn = prof;  // the binding stream no longer tiles [0, total)
  torn.segments.pop_back();
  EXPECT_FALSE(validate_cycle_profile(torn, &err));

  CycleProfile ghost = prof;  // an invalid profile must carry no cycles
  ghost.valid = false;
  EXPECT_FALSE(validate_cycle_profile(ghost, &err));
}

// --- runtime plumbing -------------------------------------------------------

TEST(RuntimeProfiling, HistoryAlignsWithGcHistory) {
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  Runtime rt(4096, cfg);
  rt.enable_profiling();
  EXPECT_TRUE(rt.profiling_enabled());

  ShadowMutator::Config mcfg;
  mcfg.seed = 3;
  ShadowMutator mut(mcfg);
  for (int i = 0; i < 3; ++i) {
    mut.run(rt, 200);
    rt.collect();
  }
  ASSERT_EQ(rt.profile_history().size(), rt.gc_history().size());
  for (std::size_t i = 0; i < rt.profile_history().size(); ++i) {
    const CycleProfile& p = rt.profile_history()[i];
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.total_cycles, rt.gc_history()[i].total_cycles)
        << "profile " << i << " out of step with its collection";
    std::string err;
    EXPECT_TRUE(validate_cycle_profile(p, &err)) << err;
  }
}

TEST(RuntimeProfiling, DisabledKeepsHistoryEmpty) {
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  Runtime rt(4096, cfg);
  ShadowMutator::Config mcfg;
  mcfg.seed = 3;
  ShadowMutator mut(mcfg);
  mut.run(rt, 200);
  rt.collect();
  EXPECT_FALSE(rt.profiling_enabled());
  EXPECT_TRUE(rt.profile_history().empty());
}

}  // namespace
}  // namespace hwgc
