// The exclusive stall taxonomy behind cycle attribution (DESIGN.md §15).
//
// Every simulated clock cycle of every GC core lands in exactly one of
// these classes. The mapping folds the hardware-level StallReason counters
// (sim/counters.hpp, the paper's Table II taxonomy) into the *resources*
// that bound the cycle:
//
//   compute            the core executed a micro-instruction (busy);
//   sb-scan-wait       SyncBlock scan-pointer lock arbitration;
//   sb-free-lock-wait  SyncBlock free-pointer lock arbitration;
//   cam-busy           header-lock CAM conflict;
//   mem-port-contention body/header *load* data not arrived, or a body
//                      store buffer still draining — the four per-core
//                      memory ports;
//   fifo-backpressure  the header-write path is full: header-store buffer
//                      busy, which is where a full header FIFO and the
//                      store-queue both push back (do_evacuate waits for
//                      two free header-store slots before entering the
//                      free-lock critical section);
//   sb-barrier         waiting at the synchronizing start barrier;
//   worklist-starved   spinning on an empty worklist (idle but clocked);
//   idle-deconfigured  the core was not clocked at all this cycle: it has
//                      halted (kDone), was fail-stopped by fault
//                      injection, or the whole coprocessor is in the
//                      store-drain window;
//   fault              an injected transient stall held the core's clock.
//
// Exclusivity is inherited from the core's cycle record: every cycle the
// clock loop publishes exactly one CoreCycle per core (kOff for a core
// that missed its clock), and class_of(CoreCycle) is total — so per core,
// the class totals sum to the collection's elapsed cycles exactly
// (validator-enforced; see profile/critical_path.hpp).
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/counters.hpp"

namespace hwgc {

enum class StallClass : std::uint8_t {
  kCompute = 0,
  kSbScanWait,
  kSbFreeWait,
  kCamBusy,
  kMemPort,
  kFifoBackpressure,
  kSbBarrier,
  kWorklistStarved,
  kIdleDeconfigured,
  kFault,
  kCount
};

constexpr std::size_t kStallClassCount =
    static_cast<std::size_t>(StallClass::kCount);

/// Human-readable class names (the strings the JSONL "binding" field and
/// the fig5 knee report use).
constexpr std::string_view to_string(StallClass c) noexcept {
  switch (c) {
    case StallClass::kCompute: return "compute";
    case StallClass::kSbScanWait: return "sb-scan-wait";
    case StallClass::kSbFreeWait: return "sb-free-lock-wait";
    case StallClass::kCamBusy: return "cam-busy";
    case StallClass::kMemPort: return "mem-port-contention";
    case StallClass::kFifoBackpressure: return "fifo-backpressure";
    case StallClass::kSbBarrier: return "sb-barrier";
    case StallClass::kWorklistStarved: return "worklist-starved";
    case StallClass::kIdleDeconfigured: return "idle-deconfigured";
    case StallClass::kFault: return "fault";
    case StallClass::kCount: break;
  }
  return "?";
}

/// JSONL field suffix per class ("cls_<suffix>" / "crit_<suffix>" in the
/// hwgc-profile-v1 attribution record).
constexpr std::string_view field_suffix(StallClass c) noexcept {
  switch (c) {
    case StallClass::kCompute: return "compute";
    case StallClass::kSbScanWait: return "scan_wait";
    case StallClass::kSbFreeWait: return "free_wait";
    case StallClass::kCamBusy: return "cam_busy";
    case StallClass::kMemPort: return "mem_port";
    case StallClass::kFifoBackpressure: return "fifo_bp";
    case StallClass::kSbBarrier: return "barrier";
    case StallClass::kWorklistStarved: return "starved";
    case StallClass::kIdleDeconfigured: return "deconf";
    case StallClass::kFault: return "fault";
    case StallClass::kCount: break;
  }
  return "?";
}

/// Folds a hardware stall reason into its attribution class. Total: every
/// StallReason a core can report maps to exactly one class.
constexpr StallClass class_of(StallReason r) noexcept {
  switch (r) {
    case StallReason::kScanLock: return StallClass::kSbScanWait;
    case StallReason::kFreeLock: return StallClass::kSbFreeWait;
    case StallReason::kHeaderLock: return StallClass::kCamBusy;
    case StallReason::kBodyLoad:
    case StallReason::kBodyStore:
    case StallReason::kHeaderLoad: return StallClass::kMemPort;
    case StallReason::kHeaderStore: return StallClass::kFifoBackpressure;
    case StallReason::kBarrier: return StallClass::kSbBarrier;
    case StallReason::kFault: return StallClass::kFault;
    case StallReason::kNone:
    case StallReason::kCount: break;
  }
  // kNone never reaches the profiler (a stalled cycle always has a
  // reason); mapping it to mem-port keeps the function total anyway.
  return StallClass::kMemPort;
}

/// Attribution class of one core's cycle record.
constexpr StallClass class_of(CoreCycle c) noexcept {
  switch (c.activity) {
    case CoreActivity::kBusy: return StallClass::kCompute;
    case CoreActivity::kIdle: return StallClass::kWorklistStarved;
    case CoreActivity::kStall: return class_of(c.reason);
    case CoreActivity::kOff: break;
  }
  return StallClass::kIdleDeconfigured;
}

}  // namespace hwgc
