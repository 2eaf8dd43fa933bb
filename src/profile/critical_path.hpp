// Critical-path walker + profile validator (DESIGN.md §15).
//
// The critical path of a collection is its binding stream: the chain of
// maximal runs of cycles bound by one resource, covering [0, total_cycles)
// with no gaps — each run is "dependent" on the previous one in the sense
// that the collection could not reach it earlier (virtual time is total).
// The walker names the binding resource of the whole collection (the class
// bound for the most cycles), the longest single run (the knee a scaling
// study is looking for), and the per-class share of the path — which is
// what fig5-style runs print per core count ("the knee at N cores is X%
// sb-scan-wait").
#pragma once

#include <string>
#include <vector>

#include "profile/cycle_profiler.hpp"
#include "sim/trace.hpp"

namespace hwgc {

struct CriticalPathReport {
  bool valid = false;             ///< false for unprofiled collections
  Cycle total_cycles = 0;
  StallClass binding = StallClass::kIdleDeconfigured;
  double binding_share = 0.0;     ///< critical[binding] / total_cycles
  /// Longest maximal single-class run on the path (the knee).
  CycleProfile::Segment longest_run;
  std::size_t chain_length = 0;   ///< number of runs on the path

  /// One line: "bound by sb-scan-wait (43.2% of 1234 cycles), longest run
  /// 220 cycles @ 17, 9 path segments".
  std::string summary() const;
};

/// Walks the profile's binding stream. O(#segments).
CriticalPathReport critical_path(const CycleProfile& profile);

/// Enforces the attribution identities on a finished profile:
///   * per core, the class totals sum to total_cycles exactly;
///   * the critical (binding) totals sum to total_cycles exactly;
///   * the RLE segments tile [0, total_cycles) contiguously and their
///     per-class lengths reproduce the critical totals;
///   * an invalid profile carries no cycles at all.
/// Returns false and sets `error` on the first violation.
bool validate_cycle_profile(const CycleProfile& profile, std::string* error);

/// Merges the critical path into a SignalTrace as notes ("crit: <class>
/// xN @ cycle") at each segment boundary, so VCD/CSV dumps and the Chrome
/// exporter (which folds SignalTrace notes in) show the binding resource
/// over time. Each note is a numbered note: one stored prefix per class,
/// the run length as its number. Observation only.
void annotate_critical_path(SignalTrace& trace, const CycleProfile& profile);

}  // namespace hwgc
