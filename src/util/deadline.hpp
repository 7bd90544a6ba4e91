// Cooperative execution deadline: the hardened envelope around a planning run.
//
// The stress searcher (src/scenarios/stress_search) deliberately generates
// pathological instances — huge failure frontiers, unschedulable flow sets —
// so every long-running layer of the stack (failure analyzer, verification
// engine, exhaustive reference, certificate builder, auditor, rollout
// workers) polls a shared Deadline token and aborts with a typed
// DeadlineExceeded instead of hanging or ballooning memory. The trainer
// catches the exception at its recovery boundary, restores the last
// consistent epoch snapshot, and returns gracefully with
// PlanningResult::stopped_reason set — graceful degradation under hostile
// inputs, not just honest ones.
//
// Two budgets, both optional:
//   * a wall-clock budget (seconds), the operational guarantee — overshoot
//     is bounded by one poll interval (at most one NBF evaluation or one
//     environment step);
//   * a tick budget (cooperative work units: one per poll), fully
//     deterministic — the stress searcher classifies "timeout" offenders by
//     ticks so a fixed seed reproduces the same offender set on any machine.
//
// Polling is thread-safe (parallel rollout workers share one token) and
// cheap: the tick counter is a relaxed atomic and the clock is consulted
// every kClockStride polls (the first poll always checks, so an
// already-expired budget fires immediately). Once a budget fires the token
// stays expired and reports the same reason forever.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

namespace nptsn {

// Raised when a cooperative deadline expires mid-computation. The reason is
// what PlanningResult::stopped_reason / tool diagnostics report.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(std::string reason)
      : std::runtime_error(reason), reason_(std::move(reason)) {}
  const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

class Deadline {
 public:
  // Polls between clock consultations. Overshoot against the wall budget is
  // bounded by kClockStride polls plus the single longest unit of work
  // between two polls.
  static constexpr std::int64_t kClockStride = 64;

  // 0 disables the respective budget; both 0 = an unlimited token (every
  // poll is a no-op beyond one relaxed atomic increment).
  explicit Deadline(double wall_seconds = 0.0, std::int64_t max_ticks = 0);

  // Convenience for the common shared-ownership case (NptsnConfig holds the
  // token as a shared_ptr so copies of the config share one budget).
  static std::shared_ptr<Deadline> after(double wall_seconds, std::int64_t max_ticks = 0);

  bool unlimited() const { return wall_seconds_ <= 0.0 && max_ticks_ <= 0; }

  // Counts one unit of cooperative work and reports whether a budget has
  // fired. Thread-safe; monotone (once true, always true).
  bool tick() const;

  // tick() + throw DeadlineExceeded(reason()) on expiry. The polling layers
  // call this between work units.
  void poll() const;

  // Non-mutating check that always consults the clock (end-of-phase guards).
  bool expired() const;

  // External cancellation: fires the token immediately with the given reason
  // (e.g. "cancelled: service shutting down"). The planner service uses this
  // for graceful shutdown — every in-flight session observes its token at the
  // next poll and unwinds through the same clean-stop path a wall-clock
  // expiry takes. First budget/cancel to fire wins; a cancel after a natural
  // expiry keeps the original reason. Thread-safe against concurrent polls;
  // concurrent cancel calls are serialized internally.
  void cancel(std::string reason) const;
  // True when cancel() fired this token (as opposed to a budget).
  bool cancelled() const;

  std::int64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  // Which budget fired, e.g. "deadline: wall clock budget of 1.5 s exceeded"
  // — empty while nothing has fired. Stable once set.
  std::string reason() const;

  // RAII suspension: while any Pause on this token is alive, tick()/poll()/
  // expired() report not-expired (an already-recorded reason is preserved and
  // resumes firing once the last Pause is destroyed). Needed to restore a
  // last-good snapshot AFTER an expiry: the restore re-runs the environment's
  // deterministic analysis, which polls the very token that just fired and
  // must not be killed by it. Null deadline is fine (no-op).
  class Pause {
   public:
    explicit Pause(const Deadline* deadline);
    ~Pause();
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;

   private:
    const Deadline* deadline_;
  };

 private:
  enum Fired : int { kNone = 0, kWall = 1, kTicks = 2, kCancelled = 3 };
  bool record(Fired which) const;

  double wall_seconds_ = 0.0;
  std::int64_t max_ticks_ = 0;
  std::chrono::steady_clock::time_point wall_deadline_;
  mutable std::atomic<std::int64_t> ticks_{0};
  mutable std::atomic<int> fired_{kNone};
  mutable std::atomic<int> paused_{0};
  // Written once under cancel_mutex_ before fired_ flips to kCancelled (the
  // release store of the CAS publishes it); read only when fired_ loads
  // kCancelled with acquire.
  mutable std::mutex cancel_mutex_;
  mutable std::string cancel_reason_;
};

}  // namespace nptsn
