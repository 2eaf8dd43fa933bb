// Safe-point rendezvous between real mutator threads and the SATB snapshot
// collector.
//
// A mutator thread opts into collection discipline by holding a
// SafePointRegistry::Scope (RAII). While opted in it must call poll() at
// safe points — between heap operations, never inside one. The collector
// opens a pause by requesting a stop and waiting until every opted-in
// thread is parked inside poll(); it then owns the heap exclusively, may
// change the barrier phase, and releases the pack with resume(). A thread
// that opts *out* (Scope destruction) while a stop is pending counts as
// having reached its safe point — teardown never wedges a cycle. A thread
// that opts in but never polls stalls the cycle start indefinitely (and
// only that: the heap stays consistent), which is exactly the contract the
// edge-case tests pin down.
//
// Phase changes are only published while every opted-in thread is parked
// under the registry mutex, so a mutator can read the phase with a relaxed
// load between polls: no store it performs can race a phase transition.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace hwgc {

/// What the mutator write barrier must do right now.
enum class MutatorPhase : std::uint32_t {
  kIdle = 0,      ///< no cycle: pointer stores write both halves
  kSnapshot = 1,  ///< cycle running: live half only + reconciliation log
  kFinished = 2,  ///< cycle torn down: harness mutators drain and exit
};

class SafePointRegistry {
 public:
  /// RAII opt-in handle. Nesting on the same thread is supported: only the
  /// outermost Scope registers/unregisters, inner ones bump a depth count.
  class Scope {
   public:
    explicit Scope(SafePointRegistry& reg);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SafePointRegistry& reg_;
  };

  // --- Mutator side -------------------------------------------------------

  /// Safe point: cheap when no stop is pending; otherwise parks until the
  /// collector resumes. Returns the phase current at release time.
  MutatorPhase poll();

  /// Current barrier phase. Relaxed: transitions only happen while the
  /// caller is parked (see file comment).
  MutatorPhase phase() const noexcept {
    return static_cast<MutatorPhase>(
        phase_.load(std::memory_order_relaxed));
  }

  // --- Collector side -----------------------------------------------------

  /// Asks every opted-in thread to park at its next safe point. Idempotent.
  void request_stop();

  /// Blocks until every opted-in thread is parked (or opted out), or until
  /// `budget` elapses. Returns true when the pause is fully established;
  /// false on timeout, with the stop request still pending so the caller
  /// can keep waiting or diagnose the stuck thread.
  bool await_parked_for(std::chrono::milliseconds budget);

  /// await_parked_for without a deadline — the production collector path.
  void await_parked();

  /// Publishes `next` as the new phase and releases every parked thread.
  /// Must only be called with the pause established (or with no opted-in
  /// threads at all, where a pause is trivially established).
  void resume(MutatorPhase next);

  // --- Introspection ------------------------------------------------------

  std::size_t opted_in() const;
  std::size_t parked() const;
  /// Number of park events mutators served — the "safe-point waits" the
  /// bench schema surfaces.
  std::uint64_t safe_point_waits() const;

 private:
  friend class Scope;
  void enter();
  void leave();
  bool all_parked_locked() const noexcept { return parked_ == threads_; }

  mutable std::mutex mu_;
  std::condition_variable released_;  ///< mutators wait for resume()
  std::condition_variable all_in_;    ///< collector waits for the full park
  std::atomic<std::uint32_t> stop_{0};
  std::atomic<std::uint32_t> phase_{
      static_cast<std::uint32_t>(MutatorPhase::kIdle)};
  std::unordered_map<std::thread::id, std::uint32_t> depth_;
  std::size_t threads_ = 0;  ///< opted-in threads (outermost Scopes)
  std::size_t parked_ = 0;
  std::uint64_t waits_ = 0;
};

}  // namespace hwgc
