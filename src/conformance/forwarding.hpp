// Forwarding-map extraction and cross-collector image comparison.
//
// The collector-agnostic building blocks of the conformance oracle
// (conformance.hpp): they apply to any collector behind a CollectorHarness,
// and cross_compare_images pits a collector's tospace image against the
// sequential Cheney reference run over the same plan.
//
// All functions append human-readable diagnostics to `errors` and return
// false on the first structural failure that makes later checks unsound
// (e.g. a non-total forwarding map cannot be compared across collectors).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "heap/heap.hpp"
#include "heap/verifier.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// Reads the forwarding map {pre addr -> copy} out of a collected heap and
/// checks totality over the pre-live set and injectivity. `who` prefixes
/// every diagnostic (collector name). Returns false when the map is unusable
/// for downstream comparison.
bool extract_forwarding_map(const char* who, const HeapSnapshot& pre,
                            const Heap& post,
                            std::vector<std::string>& errors,
                            std::unordered_map<Addr, Addr>& fwd);

/// Additionally checks that the forwarding images tile the dense tospace
/// extent [base, base + live words) with the published allocation pointer at
/// its end — the compaction guarantee of Cheney-order collectors. Call only
/// after extract_forwarding_map succeeded.
bool check_dense_tiling(const char* who, const HeapSnapshot& pre,
                        const Heap& post,
                        const std::unordered_map<Addr, Addr>& fwd,
                        std::vector<std::string>& errors);

/// Byte-for-byte equivalence of two collectors' tospace images modulo copy
/// order: for every pre-live object, the two copies must have the same
/// shape, the same data words, and pointer fields denoting the same
/// pre-cycle child (resolved through each heap's own forwarding map).
/// `a_name`/`b_name` label the two collectors in diagnostics. When
/// `shapes_only` is set, data words and pointer targets are skipped — the
/// comparison a concurrent collector admits, since its mutator keeps
/// changing field contents during the cycle.
void cross_compare_images(const char* a_name, const char* b_name,
                          const HeapSnapshot& pre, const Heap& a,
                          const Heap& b,
                          const std::unordered_map<Addr, Addr>& fwd_a,
                          const std::unordered_map<Addr, Addr>& fwd_b,
                          std::vector<std::string>& errors,
                          bool shapes_only = false);

}  // namespace hwgc
