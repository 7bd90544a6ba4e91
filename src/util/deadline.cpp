#include "util/deadline.hpp"

#include "util/expect.hpp"

namespace nptsn {

Deadline::Deadline(double wall_seconds, std::int64_t max_ticks)
    : wall_seconds_(wall_seconds), max_ticks_(max_ticks) {
  NPTSN_EXPECT(wall_seconds >= 0.0, "wall-clock budget must be non-negative");
  NPTSN_EXPECT(max_ticks >= 0, "tick budget must be non-negative");
  if (wall_seconds_ > 0.0) {
    wall_deadline_ = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(wall_seconds_));
  }
}

std::shared_ptr<Deadline> Deadline::after(double wall_seconds, std::int64_t max_ticks) {
  return std::make_shared<Deadline>(wall_seconds, max_ticks);
}

bool Deadline::record(Fired which) const {
  int expected = kNone;
  // First budget to fire wins; later polls keep reporting the same reason.
  fired_.compare_exchange_strong(expected, which, std::memory_order_relaxed);
  return true;
}

Deadline::Pause::Pause(const Deadline* deadline) : deadline_(deadline) {
  if (deadline_) deadline_->paused_.fetch_add(1, std::memory_order_relaxed);
}

Deadline::Pause::~Pause() {
  if (deadline_) deadline_->paused_.fetch_sub(1, std::memory_order_relaxed);
}

bool Deadline::tick() const {
  if (paused_.load(std::memory_order_relaxed) > 0) return false;
  if (fired_.load(std::memory_order_relaxed) != kNone) return true;
  const std::int64_t t = ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (max_ticks_ > 0 && t >= max_ticks_) return record(kTicks);
  // t % stride == 1 so the very first poll consults the clock: an
  // already-expired wall budget must fire immediately, even on workloads
  // with fewer than kClockStride polls.
  if (wall_seconds_ > 0.0 && (t % kClockStride == 1 || kClockStride == 1) &&
      std::chrono::steady_clock::now() >= wall_deadline_) {
    return record(kWall);
  }
  return false;
}

void Deadline::poll() const {
  if (tick()) throw DeadlineExceeded(reason());
}

void Deadline::cancel(std::string reason) const {
  std::lock_guard lock(cancel_mutex_);
  if (fired_.load(std::memory_order_relaxed) != kNone) return;
  cancel_reason_ = std::move(reason);
  // Release publishes cancel_reason_ to any thread that observes kCancelled
  // (reason() loads with acquire). A budget racing this CAS wins and keeps
  // its own reason; the staged string is then never read.
  int expected = kNone;
  fired_.compare_exchange_strong(expected, kCancelled, std::memory_order_release,
                                 std::memory_order_relaxed);
}

bool Deadline::cancelled() const {
  return fired_.load(std::memory_order_relaxed) == kCancelled;
}

bool Deadline::expired() const {
  if (paused_.load(std::memory_order_relaxed) > 0) return false;
  if (fired_.load(std::memory_order_relaxed) != kNone) return true;
  if (max_ticks_ > 0 && ticks_.load(std::memory_order_relaxed) >= max_ticks_) {
    return record(kTicks);
  }
  if (wall_seconds_ > 0.0 && std::chrono::steady_clock::now() >= wall_deadline_) {
    return record(kWall);
  }
  return false;
}

std::string Deadline::reason() const {
  switch (fired_.load(std::memory_order_acquire)) {
    case kWall:
      return "deadline: wall-clock budget of " + std::to_string(wall_seconds_) +
             " s exceeded";
    case kTicks:
      return "deadline: tick budget of " + std::to_string(max_ticks_) +
             " work units exceeded";
    case kCancelled: {
      std::lock_guard lock(cancel_mutex_);
      return cancel_reason_;
    }
    default:
      return "";
  }
}

}  // namespace nptsn
