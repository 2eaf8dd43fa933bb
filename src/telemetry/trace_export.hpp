// Timeline exporter: renders the TelemetryBus recording as a Chrome-trace
// JSON file loadable in chrome://tracing and ui.perfetto.dev.
//
// Mapping:
//   * every bus track becomes one named thread (tid) under pid 1, ordered
//     by registration: coprocessor phases first, then one track per core,
//     then the scan-/free-lock occupancy tracks and the fault/recovery
//     tracks;
//   * spans become "X" complete events; stall spans carry a `cname` so the
//     stall reason is color-coded (locks red, memory waits yellow, faults
//     dark red, busy green, idle grey);
//   * instants ("i", thread-scoped) mark injected faults, aborts,
//     deconfigurations, fallbacks and the flip;
//   * counter series (gray words, FIFO depth, memory in-flight) become "C"
//     counter events;
//   * optionally, SignalTrace samples and notes are merged in as counter
//     events / global instants (`sig:<name>`), folding the legacy 32-signal
//     monitor into the same timeline.
//
// Output is deterministic byte-for-byte for a deterministic run: integer
// timestamps only (1 simulated clock cycle = 1 trace microsecond), events
// emitted in recording order — the golden-file tests (mini.trace.json,
// edge.trace.json) and the pinned digest of a real-size trace rely on this.
//
// Cost: each distinct string is escaped and rendered once per export — one
// fragment per interned span name and category (with its `cat` and
// `cname`), per counter series, per signal and per numbered-note prefix —
// so a span, counter or critical-path note event costs a few integer
// conversions and one fragment copy. The output string
// is reserved once, from the event counts, and never reallocated. Events
// are written into a fixed 64 KB chunk that is appended to it when full,
// so an event checks for room once instead of once per piece.
#pragma once

#include <string>

#include "sim/trace.hpp"
#include "telemetry/telemetry_bus.hpp"

namespace hwgc {

struct ChromeTraceOptions {
  /// Merge the legacy SignalTrace (samples as counters, notes as global
  /// instants) into the exported timeline. The signal cycles are taken
  /// relative to the bus's first epoch.
  const SignalTrace* signals = nullptr;
};

/// The trace as one JSON string ({"traceEvents":[...]}).
std::string chrome_trace_json(const TelemetryBus& bus,
                              const ChromeTraceOptions& opt = {});

/// Writes chrome_trace_json() to `path`. Returns false on I/O failure.
bool write_chrome_trace(const TelemetryBus& bus, const std::string& path,
                        const ChromeTraceOptions& opt = {});

}  // namespace hwgc
