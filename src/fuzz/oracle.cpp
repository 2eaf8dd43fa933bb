#include "fuzz/oracle.hpp"

#include <algorithm>
#include <sstream>

#include "core/schedule_policy.hpp"
#include "sim/rng.hpp"

namespace hwgc {

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
