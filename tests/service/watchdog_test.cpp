// Liveness watchdog tests: a session that never polls its cooperative
// Deadline is first force-cancelled, then — still not returning — declared
// wedged: its shard is quarantined, queued work reroutes to healthy shards,
// and the service keeps answering. When the wedged session finally returns,
// the shard is un-quarantined and rejoins the rotation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>

#include "net/problem.hpp"
#include "service/crash_point.hpp"
#include "service/service.hpp"
#include "testing/test_problems.hpp"

namespace nptsn {
namespace {

using nptsn::testing::tiny_problem;

NptsnConfig small_session() {
  NptsnConfig c;
  c.path_actions = 4;
  c.gcn_layers = 1;
  c.mlp_hidden = {16};
  c.embedding_dim = 8;
  c.epochs = 2;
  c.steps_per_epoch = 32;
  c.train_actor_iters = 3;
  c.train_critic_iters = 3;
  c.seed = 21;
  return c;
}

PlanningRequest tiny_request(const std::string& id) {
  PlanningRequest request;
  request.id = id;
  request.problem_bytes = problem_bytes(tiny_problem());
  return request;
}

// A worker parked here simulates wedged session code: it holds its thread
// inside the session and never looks at the Deadline token.
struct WorkerGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  std::atomic<int> parked{0};

  void park() {
    std::unique_lock lock(mutex);
    parked.fetch_add(1);
    cv.wait(lock, [&] { return released; });
  }
  void release() {
    {
      std::lock_guard lock(mutex);
      released = true;
    }
    cv.notify_all();
  }
};

bool wait_for(const std::function<bool()>& done, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

TEST(Watchdog, DisabledByDefaultAndInert) {
  ServiceConfig config;
  config.session = small_session();
  ASSERT_EQ(config.watchdog_grace, 0.0);  // off unless explicitly enabled

  PlannerService service(config);
  const PlanningResponse response = service.submit(tiny_request("plain")).get();
  ASSERT_TRUE(response.status == ResponseStatus::kPlanned ||
              response.status == ResponseStatus::kInfeasible);
  service.shutdown(PlannerService::Shutdown::kDrain);

  const auto counters = service.counters();
  EXPECT_EQ(counters.watchdog_cancels, 0);
  EXPECT_EQ(counters.wedged, 0);
  EXPECT_EQ(counters.rerouted, 0);
}

TEST(Watchdog, WedgedSessionQuarantinesItsShardAndBacklogReroutes) {
  ServiceConfig config;
  config.session = small_session();
  config.shards = 2;
  config.workers_per_shard = 1;
  // Every session of the service gets this budget, the rerouted "queued" and
  // the final "after" included, and those must run to a plan. Under TSan the
  // tiny session took 0.05-0.09 s alone and at most 0.56 s with eight copies
  // on four cores, so 2 s clears it by a wide margin on a slow host; only the
  // parked session, which never returns, can overrun it.
  config.session_wall_seconds = 2.0;
  config.watchdog_grace = 1.0;  // cancel at ~2 s, wedge at ~4 s
  config.watchdog_poll_seconds = 0.01;
  // The waits below cover the watchdog's two windows several times over.
  constexpr double kWatchdogWait = 30.0;

  PlannerService service(config);
  WorkerGate gate;
  // Park exactly the FIRST session right after it starts: the hook fires only
  // on the armed crossing, so later sessions run normally.
  arm_crash_point("service.start.after_journal", 1);
  set_crash_point_hook([&gate](const char*) { gate.park(); });
  // Pass or fail, un-park the worker and disarm before the service (declared
  // above, destroyed after) joins its threads.
  struct Cleanup {
    WorkerGate& gate;
    ~Cleanup() {
      disarm_crash_points();
      set_crash_point_hook(nullptr);
      gate.release();
    }
  } cleanup{gate};

  // "stuck" wedges one shard's only worker...
  auto stuck = service.submit(tiny_request("stuck"));
  ASSERT_TRUE(wait_for([&] { return gate.parked.load() == 1; }, 5.0));

  // ...and "queued" — same problem bytes, same fingerprint — lands on that
  // same shard's queue behind it.
  auto queued = service.submit(tiny_request("queued"));

  // Phase 1: the watchdog force-cancels the overrunning session. Phase 2: it
  // is STILL parked a full window later, so the shard is quarantined and its
  // backlog moves to the healthy shard.
  ASSERT_TRUE(wait_for(
      [&] {
        const auto stats = service.stats();
        for (const auto& shard : stats.shards) {
          if (shard.quarantined) return true;
        }
        return false;
      },
      kWatchdogWait));
  {
    const auto counters = service.counters();
    EXPECT_GE(counters.watchdog_cancels, 1);
    EXPECT_EQ(counters.wedged, 1);
  }

  // The rerouted request completes on the healthy shard while the wedged one
  // is still holding its worker hostage.
  const PlanningResponse moved = queued.get();
  ASSERT_TRUE(moved.status == ResponseStatus::kPlanned ||
              moved.status == ResponseStatus::kInfeasible)
      << to_string(moved.status) << ": " << moved.error;
  EXPECT_GE(service.counters().rerouted, 1);
  {
    const auto stats = service.stats();
    int quarantined = 0, wedged_sessions = 0;
    for (const auto& shard : stats.shards) {
      quarantined += shard.quarantined ? 1 : 0;
      wedged_sessions += shard.wedged_sessions;
    }
    EXPECT_EQ(quarantined, 1);
    EXPECT_EQ(wedged_sessions, 1);
  }

  // The wedged session finally returns (with its force-cancelled deadline):
  // it answers kCancelled, the shard un-quarantines and rejoins the rotation.
  gate.release();
  EXPECT_EQ(stuck.get().status, ResponseStatus::kCancelled);
  ASSERT_TRUE(wait_for(
      [&] {
        if (service.counters().unwedged != 1) return false;
        for (const auto& shard : service.stats().shards) {
          if (shard.quarantined) return false;
        }
        return true;
      },
      kWatchdogWait));

  const PlanningResponse after = service.submit(tiny_request("after")).get();
  ASSERT_TRUE(after.status == ResponseStatus::kPlanned ||
              after.status == ResponseStatus::kInfeasible);
  service.shutdown(PlannerService::Shutdown::kDrain);
}

}  // namespace
}  // namespace nptsn
