#include "fault/recovery.hpp"

#include <sstream>
#include <utility>

#include "baselines/sequential_cheney.hpp"
#include "core/coprocessor.hpp"
#include "profile/cycle_profiler.hpp"
#include "telemetry/telemetry_bus.hpp"

namespace hwgc {

namespace {

/// Pre-cycle image of the mutator-visible heap state. Fromspace data is
/// intact until the flip, but collection does mutate fromspace *headers*
/// (forwarding bit + forwarding address), so recovery restores the full
/// allocated prefix of the pre-cycle space, the roots and the allocation
/// frontier.
struct PreImage {
  Addr base = 0;
  Addr alloc = 0;
  std::vector<Word> words;
  std::vector<Addr> roots;

  static PreImage save(const Heap& heap) {
    PreImage img;
    img.base = heap.layout().current_base();
    img.alloc = heap.alloc_ptr();
    img.roots = heap.roots();
    img.words.reserve(static_cast<std::size_t>(img.alloc - img.base));
    for (Addr a = img.base; a < img.alloc; ++a) {
      img.words.push_back(heap.memory().load(a));
    }
    return img;
  }

  void restore(Heap& heap) const {
    // A verifier-detected failure is observed after the flip; aborts thrown
    // mid-cycle happen before it. Flip back first so `base` is current again.
    if (heap.layout().current_base() != base) heap.flip();
    heap.set_alloc_ptr(alloc);
    heap.roots() = roots;
    Addr a = base;
    for (Word w : words) heap.memory().store(a++, w);
    // Heal any checksum mismatch left behind in either space (corruption
    // outside the restored range, e.g. a bit flipped in partially-built
    // tospace) so a stale mismatch cannot re-abort the next attempt.
    if (heap.memory().ecc_enabled()) heap.memory().enable_ecc();
  }
};

}  // namespace

RecoveringCollector::RecoveringCollector(const SimConfig& cfg, Heap& heap)
    : RecoveringCollector(
          cfg, heap,
          FaultPlan::from_config(cfg.fault, cfg.coprocessor.num_cores)) {}

RecoveringCollector::RecoveringCollector(const SimConfig& cfg, Heap& heap,
                                         FaultPlan plan)
    : cfg_(cfg), heap_(heap), injector_(std::move(plan)) {
  injector_.attach_memory(&heap_.memory());
}

Cycle RecoveringCollector::watchdog_budget(Word live_words) const noexcept {
  const RecoveryConfig& r = cfg_.recovery;
  return r.watchdog_base + r.watchdog_per_live_word * live_words;
}

RecoveryReport RecoveringCollector::collect(SignalTrace* trace,
                                            TelemetryBus* telemetry,
                                            CycleProfiler* profiler) {
  RecoveryReport report;
  report.faults_requested = cfg_.fault.events;
  report.faults_injected = injector_.plan().size();
  injector_.attach_trace(trace);
  injector_.attach_telemetry(telemetry);
  const auto recovery_note = [&](std::string text) {
    if (telemetry != nullptr) {
      telemetry->instant(telemetry->track("recovery"),
                         TelemetryCategory::kRecovery, std::move(text));
    }
  };

  if (cfg_.recovery.header_ecc) heap_.memory().enable_ecc();

  const HeapSnapshot pre = HeapSnapshot::capture(heap_);
  const PreImage image = PreImage::save(heap_);
  const Cycle budget = watchdog_budget(pre.live_words);

  // Active physical cores; shrinks as recovery deconfigures suspects.
  std::vector<CoreId> active;
  for (CoreId c = 0; c < cfg_.coprocessor.num_cores; ++c) active.push_back(c);

  std::uint32_t attempt = 0;
  std::uint32_t failures_this_config = 0;
  bool coprocessor_usable = true;

  while (coprocessor_usable) {
    AttemptRecord rec;
    rec.attempt = attempt;
    rec.num_cores = static_cast<std::uint32_t>(active.size());

    SimConfig attempt_cfg = cfg_;
    attempt_cfg.coprocessor.num_cores = rec.num_cores;
    attempt_cfg.coprocessor.watchdog_cycles = budget;

    injector_.begin_attempt(attempt, active);
    Coprocessor coproc(attempt_cfg, heap_);
    bool aborted = false;
    try {
      report.stats =
          coproc.collect(trace, nullptr, &injector_, telemetry, profiler);
      rec.cycles = report.stats.total_cycles;
      if (cfg_.recovery.verify_heap) {
        const VerifyResult vr = verify_collection(pre, heap_);
        if (!vr.ok) {
          aborted = true;
          rec.abort_reason = AbortReason::kVerifier;
          rec.detail = vr.summary();
        }
      }
    } catch (const CollectionAbort& ex) {
      aborted = true;
      rec.abort_reason = ex.reason();
      rec.detail = ex.what();
      rec.suspect_logical = ex.suspect();
      rec.cycles = ex.at();
      if (rec.suspect_logical != kNoCore &&
          rec.suspect_logical < active.size()) {
        rec.suspect_physical = active[rec.suspect_logical];
      }
    }
    rec.faults_fired = injector_.fired_this_attempt();
    rec.success = !aborted;
    report.attempts.push_back(rec);
    ++attempt;

    if (!aborted) {
      report.ok = true;
      report.faults_masked = rec.faults_fired;
      break;
    }

    if (trace != nullptr) {
      trace->note(rec.cycles, "recovery: attempt " +
                                  std::to_string(rec.attempt) + " aborted (" +
                                  std::string(to_string(rec.abort_reason)) +
                                  "), restoring pre-cycle image");
    }
    recovery_note("attempt " + std::to_string(rec.attempt) + " aborted (" +
                  std::string(to_string(rec.abort_reason)) +
                  "), restoring pre-cycle image");
    image.restore(heap_);
    ++failures_this_config;

    if (failures_this_config <= cfg_.recovery.max_retries) continue;

    // Retries exhausted on this configuration: deconfigure the suspect
    // core (if one was localized) and start over on the reduced set.
    if (cfg_.recovery.allow_deconfigure && active.size() > 1 &&
        rec.suspect_physical != kNoCore) {
      std::erase(active, rec.suspect_physical);
      report.deconfigured.push_back(rec.suspect_physical);
      failures_this_config = 0;
      if (trace != nullptr) {
        trace->note(rec.cycles,
                    "recovery: deconfigured physical core " +
                        std::to_string(rec.suspect_physical) + ", " +
                        std::to_string(active.size()) + " core(s) remain");
      }
      recovery_note("deconfigured physical core " +
                    std::to_string(rec.suspect_physical) + ", " +
                    std::to_string(active.size()) + " core(s) remain");
      continue;
    }
    coprocessor_usable = false;
  }

  if (!report.ok && cfg_.recovery.allow_sequential_fallback) {
    // Last resort: the main processor collects with the software Cheney
    // pass, bypassing the (faulty) coprocessor and memory scheduler. The
    // heap already holds the restored pre-cycle image.
    report.used_sequential_fallback = true;
    if (trace != nullptr) {
      trace->note(0, "recovery: falling back to sequential software GC");
    }
    recovery_note("falling back to sequential software GC");
    AttemptRecord rec;
    rec.attempt = attempt;
    rec.num_cores = 0;  // runs on the main processor, not the coprocessor
    const SequentialGcStats seq = SequentialCheney::collect(heap_);
    bool ok = true;
    if (cfg_.recovery.verify_heap) {
      const VerifyResult vr = verify_collection(pre, heap_);
      ok = vr.ok;
      if (!ok) {
        rec.abort_reason = AbortReason::kUnrecoverable;
        rec.detail = vr.summary();
        image.restore(heap_);
      }
    }
    rec.success = ok;
    report.attempts.push_back(rec);
    if (ok) {
      report.ok = true;
      report.stats = GcCycleStats{};
      report.stats.objects_copied = seq.objects_copied;
      report.stats.words_copied = seq.words_copied;
      report.stats.pointers_forwarded = seq.pointers_forwarded;
      report.stats.restart_stores_drained = true;
      // The fallback runs outside the coprocessor clock — there are no
      // simulated cycles to attribute, only the failed attempt's partial
      // profile, which must not escape as if it covered this collection.
      if (profiler != nullptr) profiler->mark_unprofiled();
    }
  }

  report.faults_fired = injector_.fired_total();
  report.fault_log = injector_.log();
  return report;
}

std::string RecoveryReport::summary() const {
  std::ostringstream os;
  os << (ok ? "recovered" : "FAILED") << " after " << attempts.size()
     << " attempt(s); faults injected=" << faults_injected
     << " fired=" << faults_fired << " masked=" << faults_masked;
  if (!deconfigured.empty()) {
    os << "; deconfigured core(s):";
    for (CoreId c : deconfigured) os << ' ' << c;
  }
  if (used_sequential_fallback) os << "; sequential fallback";
  for (const auto& a : attempts) {
    os << "\n  attempt " << a.attempt << " [" << a.num_cores << " core(s)] "
       << (a.success ? "ok" : std::string("abort: ") +
                                  std::string(to_string(a.abort_reason)));
    if (!a.success && !a.detail.empty()) os << " — " << a.detail;
  }
  return os.str();
}

}  // namespace hwgc
