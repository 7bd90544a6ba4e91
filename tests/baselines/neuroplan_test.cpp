#include "baselines/neuroplan.hpp"

#include <gtest/gtest.h>

#include "testing/test_problems.hpp"

namespace nptsn {
namespace {

using testing::tiny_problem;

NptsnConfig small_config() {
  NptsnConfig c;
  c.epochs = 4;
  c.steps_per_epoch = 96;
  c.mlp_hidden = {32, 32};
  c.train_actor_iters = 8;
  c.train_critic_iters = 8;
  c.seed = 5;
  return c;
}

struct EnvFixture {
  PlanningProblem problem = tiny_problem(2);
  HeuristicRecovery nbf;
  NptsnConfig config = small_config();
  SolutionRecorder recorder;
  NeuroPlanEnv env{problem, nbf, config, recorder};
};

TEST(NeuroPlanEnv, StaticActionSpaceSize) {
  EnvFixture f;
  // 15 optional links + 3 switch upgrade actions.
  EXPECT_EQ(f.env.num_actions(), 15 + 3);
}

TEST(NeuroPlanEnv, InitialMaskAllowsLinksNotUpgrades) {
  EnvFixture f;
  const auto& mask = f.env.action_mask();
  // Every link is addable into the empty topology.
  for (int i = 0; i < 15; ++i) EXPECT_EQ(mask[static_cast<std::size_t>(i)], 1);
  // No switch planned yet: upgrades masked.
  for (int i = 15; i < 18; ++i) EXPECT_EQ(mask[static_cast<std::size_t>(i)], 0);
}

TEST(NeuroPlanEnv, AddingLinkImplicitlyPlansSwitches) {
  EnvFixture f;
  const auto result = f.env.step(0);  // first Gc link (0, 4)
  EXPECT_FALSE(result.episode_end);
  EXPECT_LT(result.reward, 0.0);  // switch + link cost
  EXPECT_TRUE(f.env.topology().has_switch(4));
  EXPECT_EQ(f.env.topology().switch_asil(4), Asil::A);
  EXPECT_TRUE(f.env.topology().has_link(0, 4));
  // Link action 0 now masked (already added), its switch upgradable.
  EXPECT_EQ(f.env.action_mask()[0], 0);
}

TEST(NeuroPlanEnv, UpgradeActionRaisesAsil) {
  EnvFixture f;
  f.env.step(0);  // plans switch 4
  // Find switch 4's upgrade slot: switches are ordered 4, 5, 6 after links.
  const int upgrade_action = 15;
  ASSERT_EQ(f.env.action_mask()[upgrade_action], 1);
  f.env.step(upgrade_action);
  EXPECT_EQ(f.env.topology().switch_asil(4), Asil::B);
}

TEST(NeuroPlanEnv, MaskedActionRejected) {
  EnvFixture f;
  EXPECT_THROW(f.env.step(16), std::invalid_argument);  // upgrade of absent switch
  f.env.step(0);
  EXPECT_THROW(f.env.step(0), std::invalid_argument);  // duplicate link
}

TEST(NeuroPlanEnv, DegreeSaturationMasksLinks) {
  EnvFixture f;
  // Station 0 connects to switches 4 and 5: its ports are full.
  // Gc edges are ordered lexicographically: (0,4) (0,5) (0,6) ...
  f.env.step(0);
  f.env.step(1);
  EXPECT_EQ(f.env.action_mask()[2], 0);  // (0, 6) would exceed max_es_degree
}

TEST(NeuroPlanEnv, ResetRestoresInitialState) {
  EnvFixture f;
  f.env.step(0);
  f.env.reset();
  EXPECT_TRUE(f.env.topology().selected_switches().empty());
  EXPECT_EQ(f.env.action_mask()[0], 1);
}

TEST(NeuroPlanEnv, ReachesSolutionAndRecords) {
  // Manually drive to the dual-homed solution: add links (0..3)-4, (0..3)-5
  // and 4-5; the analyzer should sign off along the way.
  EnvFixture f;
  bool done = false;
  // Greedy: repeatedly take the first valid link action; this saturates the
  // fabric and must eventually produce a reliable network or dead-end.
  for (int guard = 0; guard < 64 && !done; ++guard) {
    const auto& mask = f.env.action_mask();
    int action = -1;
    for (int i = 0; i < f.env.num_actions(); ++i) {
      if (mask[static_cast<std::size_t>(i)]) {
        action = i;
        break;
      }
    }
    ASSERT_GE(action, 0);
    done = f.env.step(action).episode_end;
  }
  EXPECT_TRUE(done);
}

TEST(NeuroPlan, TrainingOnTinyProblemFindsSolutions) {
  const auto p = tiny_problem(2);
  const HeuristicRecovery nbf;
  const auto result = run_neuroplan(p, nbf, small_config());
  EXPECT_EQ(result.history.size(), 4u);
  // The tiny fabric is easy enough that random exploration finds solutions.
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.solutions_found, 0);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_DOUBLE_EQ(result.best->cost(), result.best_cost);
}

TEST(NeuroPlan, InstallsTheConfiguredKernelFamilies) {
  // run_neuroplan trains through plan()'s config translation, so it installs
  // the configured NN and TSN kernel families process-globally, as plan()
  // does. The globals are restored for the tests that run after this one.
  struct Restore {
    NnKernel nn = nn_kernel();
    int threads = nn_kernel_threads();
    TsnKernel tsn = tsn_kernel();
    ~Restore() {
      set_nn_kernel(nn);
      set_nn_kernel_threads(threads);
      set_tsn_kernel(tsn);
    }
  } restore;
  set_nn_kernel(NnKernel::kFast);
  set_nn_kernel_threads(1);
  set_tsn_kernel(TsnKernel::kFast);

  NptsnConfig config = small_config();
  config.epochs = 1;
  config.steps_per_epoch = 16;
  config.nn_kernel = NnKernel::kReference;
  config.nn_threads = 2;
  config.tsn_kernel = TsnKernel::kReference;
  const auto p = tiny_problem(2);
  const HeuristicRecovery nbf;
  run_neuroplan(p, nbf, config);
  EXPECT_EQ(nn_kernel(), NnKernel::kReference);
  EXPECT_EQ(nn_kernel_threads(), 2);
  EXPECT_EQ(tsn_kernel(), TsnKernel::kReference);
}

}  // namespace
}  // namespace nptsn
