#include "core/environment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/test_problems.hpp"

namespace nptsn {
namespace {

using testing::dual_homed_topology;
using testing::tiny_problem;

NptsnConfig small_config() {
  NptsnConfig c;
  c.path_actions = 4;
  return c;
}

struct EnvFixture {
  PlanningProblem problem = tiny_problem(2);
  HeuristicRecovery nbf;
  NptsnConfig config = small_config();
  SolutionRecorder recorder;
  PlanningEnv env{problem, nbf, config, recorder, Rng(1)};
};

// Picks the first valid action of the given kind, -1 if none.
int first_valid(const PlanningEnv& env, Action::Kind kind, int num_switches) {
  const auto& mask = env.action_mask();
  for (int i = 0; i < static_cast<int>(mask.size()); ++i) {
    const bool is_switch_slot = i < num_switches;
    if (mask[static_cast<std::size_t>(i)] &&
        ((kind == Action::Kind::kSwitchUpgrade) == is_switch_slot)) {
      return i;
    }
  }
  return -1;
}

TEST(SolutionRecorder, KeepsCheapestSolution) {
  const auto p = tiny_problem(2);
  SolutionRecorder recorder;
  EXPECT_FALSE(recorder.has_solution());
  EXPECT_TRUE(std::isinf(recorder.best_cost()));

  auto expensive = dual_homed_topology(p, Asil::D);
  auto cheap = dual_homed_topology(p, Asil::A);
  recorder.record(expensive);
  EXPECT_DOUBLE_EQ(recorder.best_cost(), expensive.cost());
  recorder.record(cheap);
  EXPECT_DOUBLE_EQ(recorder.best_cost(), cheap.cost());
  recorder.record(expensive);  // worse again: ignored
  EXPECT_DOUBLE_EQ(recorder.best_cost(), cheap.cost());
  EXPECT_EQ(recorder.solutions_found(), 3);
  ASSERT_TRUE(recorder.best().has_value());
  EXPECT_DOUBLE_EQ(recorder.best()->cost(), cheap.cost());
}

TEST(PlanningEnv, StartsWithEmptyTopologyAndFailedAnalysis) {
  EnvFixture f;
  EXPECT_TRUE(f.env.topology().selected_switches().empty());
  EXPECT_FALSE(f.env.last_analysis().reliable);
  // The empty TSSDN fails with no failure injected at all.
  EXPECT_TRUE(f.env.last_analysis().counterexample.empty());
  EXPECT_FALSE(f.env.last_analysis().errors.empty());
}

TEST(PlanningEnv, NumActionsMatchesSoag) {
  EnvFixture f;
  EXPECT_EQ(f.env.num_actions(), 3 + 4);
}

TEST(PlanningEnv, SwitchAddGivesCostProportionalNegativeReward) {
  EnvFixture f;
  const int a = first_valid(f.env, Action::Kind::kSwitchUpgrade, 3);
  ASSERT_GE(a, 0);
  const auto result = f.env.step(a);
  // Adding an unconnected ASIL-A switch costs 8 -> reward -8/1000.
  EXPECT_NEAR(result.reward, -8.0 / 1000.0, 1e-12);
  EXPECT_FALSE(result.episode_end);
  EXPECT_EQ(f.env.topology().selected_switches().size(), 1u);
}

TEST(PlanningEnv, MaskedActionRejected) {
  EnvFixture f;
  // Path slots are masked at episode start (no switches planned).
  EXPECT_THROW(f.env.step(3 + 1), std::invalid_argument);
  EXPECT_THROW(f.env.step(-1), std::invalid_argument);
  EXPECT_THROW(f.env.step(99), std::invalid_argument);
}

TEST(PlanningEnv, EpisodeEndsWhenReliable) {
  // Drive the env manually to a known solution: add switches 4 and 5, then
  // follow path actions until the analyzer signs off.
  EnvFixture f;
  f.env.step(0);  // add switch 4
  f.env.step(1);  // add switch 5

  bool done = false;
  for (int guard = 0; guard < 64 && !done; ++guard) {
    const int path_action = first_valid(f.env, Action::Kind::kAddPath, 3);
    const int any_action =
        path_action >= 0 ? path_action : first_valid(f.env, Action::Kind::kSwitchUpgrade, 3);
    ASSERT_GE(any_action, 0) << "environment dead-ended unexpectedly";
    done = f.env.step(any_action).episode_end;
  }
  EXPECT_TRUE(done);
  EXPECT_TRUE(f.env.last_analysis().reliable);
  EXPECT_TRUE(f.recorder.has_solution());
  EXPECT_GT(f.recorder.best_cost(), 0.0);
}

TEST(PlanningEnv, ResetClearsTopology) {
  EnvFixture f;
  f.env.step(0);
  EXPECT_FALSE(f.env.topology().selected_switches().empty());
  f.env.reset();
  EXPECT_TRUE(f.env.topology().selected_switches().empty());
  EXPECT_FALSE(f.env.last_analysis().reliable);
}

TEST(PlanningEnv, ObservationMatchesEncoderShapes) {
  EnvFixture f;
  const auto obs = f.env.observe();
  const ObservationEncoder encoder(f.problem, f.config.path_actions);
  EXPECT_EQ(obs.features->cols(), encoder.feature_dim());
  EXPECT_EQ(obs.params.cols(), encoder.param_dim());
  EXPECT_EQ(obs.a_hat->rows(), f.problem.num_nodes());
  EXPECT_EQ(obs.a_hat->cols(), f.problem.num_nodes());
}

TEST(PlanningEnv, RewardsAccumulateToNegativeScaledCost) {
  // Following any successful episode, the sum of rewards equals minus the
  // final cost divided by the reward scale (no penalty on success).
  EnvFixture f;
  double reward_sum = 0.0;
  f.env.reset();
  bool done = false;
  reward_sum += f.env.step(0).reward;
  reward_sum += f.env.step(1).reward;
  for (int guard = 0; guard < 64 && !done; ++guard) {
    int a = first_valid(f.env, Action::Kind::kAddPath, 3);
    if (a < 0) a = first_valid(f.env, Action::Kind::kSwitchUpgrade, 3);
    ASSERT_GE(a, 0);
    const auto result = f.env.step(a);
    reward_sum += result.reward;
    done = result.episode_end;
  }
  ASSERT_TRUE(done);
  EXPECT_NEAR(reward_sum, -f.env.topology().cost() / f.config.reward_scale, 1e-9);
}

TEST(PlanningEnv, NbfCallCounterAdvances) {
  EnvFixture f;
  const auto calls_before = f.env.nbf_calls();
  f.env.step(0);
  EXPECT_GT(f.env.nbf_calls(), calls_before);
}

TEST(PlanningEnv, PathActionExtendsTopology) {
  // With a single planned switch the counterexample is that switch's own
  // failure, and Alg. 1 removes failed nodes from the path search graph —
  // so path actions only appear once a second switch exists.
  EnvFixture f;
  f.env.step(0);  // switch 4
  EXPECT_EQ(first_valid(f.env, Action::Kind::kAddPath, 3), -1);
  f.env.step(1);  // switch 5
  const int a = first_valid(f.env, Action::Kind::kAddPath, 3);
  ASSERT_GE(a, 0);
  const int links_before = f.env.topology().graph().num_edges();
  f.env.step(a);
  EXPECT_GT(f.env.topology().graph().num_edges(), links_before);
}

}  // namespace
}  // namespace nptsn
