// End-to-end crash resilience of plan(): environment snapshots, checkpoint
// resume across plan() calls, run budgets with graceful degradation, and
// recovery from an injected NBF fault mid-training.
#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "analysis/failure_analyzer.hpp"
#include "testing/fault_injector.hpp"
#include "testing/test_problems.hpp"

namespace nptsn {
namespace {

using nptsn::testing::FaultTrigger;
using nptsn::testing::FaultyNbf;
using nptsn::testing::tiny_problem;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nptsn_plan_" + name;
}

void remove_all(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".tmp").c_str());
}

// Small enough to train in milliseconds, big enough to find solutions.
NptsnConfig resilience_config() {
  NptsnConfig c;
  c.path_actions = 4;
  c.gcn_layers = 1;
  c.mlp_hidden = {16};
  c.embedding_dim = 8;
  c.epochs = 4;
  c.steps_per_epoch = 48;
  c.train_actor_iters = 5;
  c.train_critic_iters = 5;
  c.seed = 7;
  return c;
}

void expect_same_stats(const EpochStats& a, const EpochStats& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.episodes_finished, b.episodes_finished);
  EXPECT_DOUBLE_EQ(a.mean_episode_reward, b.mean_episode_reward);
  EXPECT_DOUBLE_EQ(a.actor_loss, b.actor_loss);
  EXPECT_DOUBLE_EQ(a.critic_loss, b.critic_loss);
}

TEST(PlanningEnvSnapshot, RoundTripReproducesActionSpaceAndStream) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  const auto config = resilience_config();

  SolutionRecorder recorder_a;
  PlanningEnv original(problem, nbf, config, recorder_a, Rng(5));
  // Walk a few steps so the snapshot holds a non-trivial topology.
  for (int i = 0; i < 3; ++i) {
    const auto& mask = original.action_mask();
    for (int a = 0; a < static_cast<int>(mask.size()); ++a) {
      if (mask[static_cast<std::size_t>(a)]) {
        original.step(a);
        break;
      }
    }
  }

  ByteWriter w;
  original.save_snapshot(w);

  SolutionRecorder recorder_b;
  PlanningEnv restored(problem, nbf, config, recorder_b, Rng(999));
  ByteReader r(w.data());
  restored.load_snapshot(r);
  r.expect_exhausted("planning env snapshot");

  EXPECT_DOUBLE_EQ(restored.topology().cost(), original.topology().cost());
  EXPECT_EQ(restored.action_mask(), original.action_mask());
  EXPECT_EQ(restored.nbf_calls(), original.nbf_calls());
  const auto obs_a = original.observe();
  const auto obs_b = restored.observe();
  const Matrix features_a = obs_a.features->to_dense();
  const Matrix features_b = obs_b.features->to_dense();
  ASSERT_TRUE(features_b.same_shape(features_a));
  for (int i = 0; i < features_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(features_b.data()[i], features_a.data()[i]);
  }

  // The restored env must continue bit-identically: same actions, same
  // rewards, same evolving action masks (the SOAG consumed the same RNG).
  for (int i = 0; i < 4; ++i) {
    const auto& mask = original.action_mask();
    int action = -1;
    for (int a = 0; a < static_cast<int>(mask.size()); ++a) {
      if (mask[static_cast<std::size_t>(a)]) {
        action = a;
        break;
      }
    }
    ASSERT_GE(action, 0);
    const auto ra = original.step(action);
    const auto rb = restored.step(action);
    EXPECT_DOUBLE_EQ(rb.reward, ra.reward);
    EXPECT_EQ(rb.episode_end, ra.episode_end);
    EXPECT_EQ(restored.action_mask(), original.action_mask());
  }
}

TEST(PlanResilience, KillAndResumeMatchesUninterruptedRun) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  const std::string path = temp_path("resume");
  remove_all(path);

  auto config = resilience_config();
  const auto reference = plan(problem, nbf, config);
  ASSERT_EQ(reference.history.size(), 4u);
  EXPECT_TRUE(reference.stopped_reason.empty());
  EXPECT_EQ(reference.epochs_completed, 4);

  // "Kill" after 2 epochs: the first plan() call exits, only the checkpoint
  // file carries state into the second call.
  config.checkpoint_path = path;
  config.epochs = 2;
  const auto head = plan(problem, nbf, config);
  ASSERT_EQ(head.history.size(), 2u);
  config.epochs = 4;
  const auto tail = plan(problem, nbf, config);
  ASSERT_EQ(tail.history.size(), 2u) << "resume must not repeat epochs";
  EXPECT_EQ(tail.epochs_completed, 4);

  for (int i = 0; i < 2; ++i) {
    expect_same_stats(head.history[static_cast<std::size_t>(i)],
                      reference.history[static_cast<std::size_t>(i)]);
    expect_same_stats(tail.history[static_cast<std::size_t>(i)],
                      reference.history[static_cast<std::size_t>(i + 2)]);
  }

  // The best verified solution survives the crash: the resumed run reports
  // exactly what the uninterrupted run would have.
  EXPECT_EQ(tail.feasible, reference.feasible);
  EXPECT_EQ(tail.solutions_found, reference.solutions_found);
  if (reference.feasible) {
    EXPECT_DOUBLE_EQ(tail.best_cost, reference.best_cost);
  }
  remove_all(path);
}

TEST(PlanResilience, StepBudgetStopsCleanlyWithVerifiedBestOnly) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  auto config = resilience_config();
  config.epochs = 8;
  config.max_total_steps = config.steps_per_epoch;  // budget = one epoch

  const auto result = plan(problem, nbf, config);
  EXPECT_EQ(result.history.size(), 1u);
  EXPECT_EQ(result.epochs_completed, 1);
  EXPECT_NE(result.stopped_reason.find("step budget"), std::string::npos)
      << "reason: " << result.stopped_reason;

  // Graceful degradation: feasible only with a fully verified topology.
  EXPECT_EQ(result.feasible, result.best.has_value());
  if (result.best) {
    const FailureAnalyzer analyzer(nbf);
    EXPECT_TRUE(analyzer.analyze(*result.best).reliable);
    EXPECT_DOUBLE_EQ(result.best_cost, result.best->cost());
  }
}

TEST(PlanResilience, ExhaustedWallClockBudgetDegradesGracefully) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  auto config = resilience_config();
  config.max_wall_seconds = 1e-9;  // already exhausted at the first boundary

  const auto result = plan(problem, nbf, config);
  EXPECT_TRUE(result.history.empty());
  EXPECT_EQ(result.epochs_completed, 0);
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.stopped_reason.find("wall-clock"), std::string::npos);
}

TEST(PlanResilience, TransientNbfFaultIsRetriedAndMatchesCleanRun) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  auto config = resilience_config();
  config.epochs = 3;

  const auto clean = plan(problem, nbf, config);
  ASSERT_EQ(clean.history.size(), 3u);

  // Crash inside the failure analyzer partway through training; one retry
  // rolls back to the epoch boundary and reproduces the clean run exactly.
  // The trigger counts NBF calls actually executed — the verification engine
  // services most of the logical calls from its caches, so the trigger sits
  // well below the sequential-analyzer call count.
  auto trigger = std::make_shared<FaultTrigger>(30);
  FaultyNbf faulty(nbf, trigger);
  config.max_epoch_retries = 1;
  const auto recovered = plan(problem, faulty, config);
  EXPECT_TRUE(trigger->fired()) << "fault never fired; pick an earlier call";

  ASSERT_EQ(recovered.history.size(), clean.history.size());
  for (std::size_t i = 0; i < clean.history.size(); ++i) {
    expect_same_stats(recovered.history[i], clean.history[i]);
  }
  EXPECT_EQ(recovered.feasible, clean.feasible);
  EXPECT_EQ(recovered.solutions_found, clean.solutions_found);
  if (clean.feasible) {
    EXPECT_DOUBLE_EQ(recovered.best_cost, clean.best_cost);
  }
}

TEST(PlanResilience, NbfFaultWithoutRetriesPropagates) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  auto config = resilience_config();
  config.epochs = 3;

  auto trigger = std::make_shared<FaultTrigger>(30);
  FaultyNbf faulty(nbf, trigger);
  EXPECT_THROW(plan(problem, faulty, config), nptsn::testing::InjectedFault);
}

}  // namespace
}  // namespace nptsn
