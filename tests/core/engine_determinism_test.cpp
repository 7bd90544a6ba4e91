// The verification engine is a pure acceleration layer: its caches are
// derived state that never leaks into checkpoints or trajectories. These
// tests pin that contract — engine on/off and warm/cold must all produce
// byte-identical snapshots and bit-identical training runs, so the
// kill-and-resume guarantee survives the engine unchanged.
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/planner.hpp"
#include "testing/test_problems.hpp"

namespace nptsn {
namespace {

using nptsn::testing::tiny_problem;

NptsnConfig small_config() {
  NptsnConfig c;
  c.path_actions = 4;
  c.gcn_layers = 1;
  c.mlp_hidden = {16};
  c.embedding_dim = 8;
  c.epochs = 3;
  c.steps_per_epoch = 48;
  c.train_actor_iters = 5;
  c.train_critic_iters = 5;
  c.seed = 21;
  return c;
}

// Drives an env along the first-valid-action trajectory for `steps` steps,
// returning the rewards (any divergence between engine configs would show
// up in the rewards, masks, or the analysis verdict driving episode ends).
std::vector<double> drive(PlanningEnv& env, int steps) {
  std::vector<double> rewards;
  for (int i = 0; i < steps; ++i) {
    const auto& mask = env.action_mask();
    int action = -1;
    for (int a = 0; a < static_cast<int>(mask.size()); ++a) {
      if (mask[static_cast<std::size_t>(a)]) {
        action = a;
        break;
      }
    }
    if (action < 0) break;
    const auto result = env.step(action);
    rewards.push_back(result.reward);
    if (result.episode_end) env.reset();
  }
  return rewards;
}

// Engine on vs off: identical rewards, masks, nbf_calls, and — critically —
// byte-identical snapshots. The engine's caches are derived state and must
// not be serialized.
TEST(EngineDeterminism, SnapshotBytesIdenticalEngineOnAndOff) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;

  auto config_on = small_config();
  config_on.use_verification_engine = true;
  auto config_off = small_config();
  config_off.use_verification_engine = false;

  SolutionRecorder rec_on, rec_off;
  PlanningEnv env_on(problem, nbf, config_on, rec_on, Rng(3));
  PlanningEnv env_off(problem, nbf, config_off, rec_off, Rng(3));

  for (int round = 0; round < 3; ++round) {
    const auto rewards_on = drive(env_on, 5);
    const auto rewards_off = drive(env_off, 5);
    ASSERT_EQ(rewards_on.size(), rewards_off.size());
    for (std::size_t i = 0; i < rewards_on.size(); ++i) {
      EXPECT_DOUBLE_EQ(rewards_on[i], rewards_off[i]);
    }
    EXPECT_EQ(env_on.action_mask(), env_off.action_mask());
    EXPECT_EQ(env_on.nbf_calls(), env_off.nbf_calls())
        << "the engine must report the sequential analyzer's logical call count";

    ByteWriter snap_on, snap_off;
    env_on.save_snapshot(snap_on);
    env_off.save_snapshot(snap_off);
    EXPECT_EQ(snap_on.data(), snap_off.data())
        << "round " << round << ": engine cache state leaked into the snapshot";
  }

  // The engine saved real work while reporting identical logical counters.
  const auto stats_on = env_on.stats();
  EXPECT_EQ(stats_on.verify_calls, env_on.nbf_calls());
  EXPECT_LT(stats_on.verify_executed, stats_on.verify_calls);
  EXPECT_GT(stats_on.verify_memo_hits + stats_on.verify_residual_reuses, 0);
  const auto stats_off = env_off.stats();
  EXPECT_EQ(stats_off.verify_executed, stats_off.verify_calls);
  EXPECT_EQ(stats_off.verify_memo_hits, 0);
  EXPECT_EQ(stats_off.verify_residual_reuses, 0);
}

// A snapshot taken from a warm-engine env restores into a COLD-engine env
// (fresh process after a crash) and continues bit-identically: rewards,
// masks, nbf_calls, and the next snapshot's bytes.
TEST(EngineDeterminism, ColdCacheResumeContinuesBitIdentically) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  const auto config = small_config();

  SolutionRecorder rec_a;
  PlanningEnv warm(problem, nbf, config, rec_a, Rng(17));
  (void)drive(warm, 7);  // warm up the memo and outcome cache

  ByteWriter snap;
  warm.save_snapshot(snap);

  SolutionRecorder rec_b;
  PlanningEnv cold(problem, nbf, config, rec_b, Rng(404));
  ByteReader r(snap.data());
  cold.load_snapshot(r);
  r.expect_exhausted("env snapshot");

  EXPECT_EQ(cold.nbf_calls(), warm.nbf_calls());
  for (int i = 0; i < 6; ++i) {
    const auto& mask = warm.action_mask();
    ASSERT_EQ(cold.action_mask(), mask);
    int action = -1;
    for (int a = 0; a < static_cast<int>(mask.size()); ++a) {
      if (mask[static_cast<std::size_t>(a)]) {
        action = a;
        break;
      }
    }
    ASSERT_GE(action, 0);
    const auto rw = warm.step(action);
    const auto rc = cold.step(action);
    EXPECT_DOUBLE_EQ(rc.reward, rw.reward);
    EXPECT_EQ(rc.episode_end, rw.episode_end);
    EXPECT_EQ(cold.nbf_calls(), warm.nbf_calls());
    if (rw.episode_end) {
      warm.reset();
      cold.reset();
    }
  }
  ByteWriter snap_w, snap_c;
  warm.save_snapshot(snap_w);
  cold.save_snapshot(snap_c);
  EXPECT_EQ(snap_c.data(), snap_w.data());
}

// Full training runs with the engine on and off produce identical epoch
// histories and identical best solutions.
TEST(EngineDeterminism, PlanWithAndWithoutEngineMatches) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;

  auto config = small_config();
  config.use_verification_engine = false;
  const auto reference = plan(problem, nbf, config);
  config.use_verification_engine = true;
  const auto accelerated = plan(problem, nbf, config);

  ASSERT_EQ(accelerated.history.size(), reference.history.size());
  for (std::size_t i = 0; i < reference.history.size(); ++i) {
    const auto& a = accelerated.history[i];
    const auto& b = reference.history[i];
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.episodes_finished, b.episodes_finished);
    EXPECT_DOUBLE_EQ(a.mean_episode_reward, b.mean_episode_reward);
    EXPECT_DOUBLE_EQ(a.actor_loss, b.actor_loss);
    EXPECT_DOUBLE_EQ(a.critic_loss, b.critic_loss);
    EXPECT_EQ(a.verify_nbf_calls, b.verify_nbf_calls)
        << "logical verification counters must not depend on the engine";
  }
  EXPECT_EQ(accelerated.feasible, reference.feasible);
  EXPECT_EQ(accelerated.solutions_found, reference.solutions_found);
  if (reference.feasible) {
    EXPECT_DOUBLE_EQ(accelerated.best_cost, reference.best_cost);
  }
}

// Kill-and-resume with the engine enabled: the resumed process starts with
// empty caches, yet reproduces the uninterrupted run's statistics exactly.
TEST(EngineDeterminism, KillAndResumeWithEngineMatchesUninterrupted) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  const std::string path = ::testing::TempDir() + "nptsn_engine_resume_" + std::to_string(::getpid());
  for (const char* suffix : {"", ".1", ".tmp"}) {
    std::remove((path + suffix).c_str());
  }

  auto config = small_config();
  config.use_verification_engine = true;
  const auto reference = plan(problem, nbf, config);
  ASSERT_EQ(reference.history.size(), 3u);

  config.checkpoint_path = path;
  config.epochs = 1;
  (void)plan(problem, nbf, config);  // killed after one epoch
  config.epochs = 3;
  const auto resumed = plan(problem, nbf, config);  // cold caches here
  ASSERT_EQ(resumed.history.size(), 2u);

  for (int i = 0; i < 2; ++i) {
    const auto& a = resumed.history[static_cast<std::size_t>(i)];
    const auto& b = reference.history[static_cast<std::size_t>(i + 1)];
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.episodes_finished, b.episodes_finished);
    EXPECT_DOUBLE_EQ(a.mean_episode_reward, b.mean_episode_reward);
    EXPECT_DOUBLE_EQ(a.actor_loss, b.actor_loss);
    EXPECT_DOUBLE_EQ(a.critic_loss, b.critic_loss);
    EXPECT_EQ(a.verify_nbf_calls, b.verify_nbf_calls);
  }
  EXPECT_EQ(resumed.feasible, reference.feasible);
  if (reference.feasible) {
    EXPECT_DOUBLE_EQ(resumed.best_cost, reference.best_cost);
  }
  for (const char* suffix : {"", ".1", ".tmp"}) {
    std::remove((path + suffix).c_str());
  }
}

}  // namespace
}  // namespace nptsn
