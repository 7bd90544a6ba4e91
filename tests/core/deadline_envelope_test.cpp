// The hardened execution envelope around plan(): a cooperative Deadline token
// threaded through the environment's analysis, the verification engine, the
// trainer's rollout workers, and the final audit. Truncation is always clean —
// typed, explained via stopped_reason, and consistent with the rollback
// machinery — and an unlimited token is observationally invisible.
#include "core/planner.hpp"

#include <gtest/gtest.h>

#include "analysis/auditor.hpp"
#include "analysis/exhaustive.hpp"
#include "analysis/failure_analyzer.hpp"
#include "scenarios/generator.hpp"
#include "testing/test_problems.hpp"
#include "tsn/recovery.hpp"

namespace nptsn {
namespace {

using nptsn::testing::tiny_problem;

NptsnConfig envelope_config() {
  NptsnConfig c;
  c.path_actions = 4;
  c.gcn_layers = 1;
  c.mlp_hidden = {16};
  c.embedding_dim = 8;
  c.epochs = 3;
  c.steps_per_epoch = 48;
  c.train_actor_iters = 5;
  c.train_critic_iters = 5;
  c.num_workers = 1;
  c.nn_threads = 1;
  c.seed = 7;
  return c;
}

TEST(DeadlineEnvelopeTest, TinyTickBudgetTruncatesCleanlyWithReason) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  NptsnConfig config = envelope_config();
  config.deadline = Deadline::after(/*wall_seconds=*/0.0, /*max_ticks=*/40);

  PlanningResult result;
  EXPECT_NO_THROW(result = plan(problem, nbf, config));
  EXPECT_EQ(result.stopped_reason.rfind("deadline:", 0), 0u)
      << "stopped_reason: " << result.stopped_reason;
  // The cooperative contract: once the budget fires, remaining work is only
  // the bounded unwind (no runaway accounting past the budget).
  EXPECT_LE(config.deadline->ticks(), 2 * 40);
  EXPECT_TRUE(config.deadline->expired());
}

TEST(DeadlineEnvelopeTest, UnlimitedTokenIsObservationallyInvisible) {
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;

  NptsnConfig without = envelope_config();
  const PlanningResult baseline = plan(problem, nbf, without);

  NptsnConfig with = envelope_config();
  with.deadline = std::make_shared<Deadline>();  // both budgets disabled
  const PlanningResult tracked = plan(problem, nbf, with);

  EXPECT_EQ(baseline.feasible, tracked.feasible);
  EXPECT_EQ(baseline.solutions_found, tracked.solutions_found);
  EXPECT_EQ(baseline.epochs_completed, tracked.epochs_completed);
  EXPECT_EQ(baseline.stopped_reason, tracked.stopped_reason);
  if (baseline.feasible) {
    EXPECT_DOUBLE_EQ(baseline.best_cost, tracked.best_cost);
  }
  ASSERT_EQ(baseline.history.size(), tracked.history.size());
  for (std::size_t i = 0; i < baseline.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(baseline.history[i].mean_episode_reward,
                     tracked.history[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(baseline.history[i].actor_loss, tracked.history[i].actor_loss);
  }
  // The token did count the run's cooperative work.
  EXPECT_GT(with.deadline->ticks(), 0);
}

TEST(DeadlineEnvelopeTest, TruncatedRunCanStillBeFeasible) {
  // A budget that allows at least one full epoch: training stops early but
  // any solution already found stays — a budget shortens the search, it never
  // weakens the reliability guarantee of what was found.
  const auto problem = tiny_problem(2);
  HeuristicRecovery nbf;
  NptsnConfig config = envelope_config();
  config.epochs = 50;
  config.deadline = Deadline::after(0.0, 2'000);

  PlanningResult result;
  EXPECT_NO_THROW(result = plan(problem, nbf, config));
  EXPECT_FALSE(result.stopped_reason.empty());
  EXPECT_LT(result.epochs_completed, 50);
  if (result.feasible) {
    ASSERT_TRUE(result.best.has_value());
    EXPECT_GT(result.best_cost, 0.0);
  }
}

TEST(DeadlineEnvelopeTest, GeneratedInstancesHonorTheEnvelopeToo) {
  // Same contract on a procedurally generated zonal instance (the corpus
  // replay path in miniature).
  GeneratorParams params;
  params.zones = 3;
  params.flow_count = 6;
  const PlanningProblem problem = generate(params, 13);
  HeuristicRecovery nbf;
  NptsnConfig config = envelope_config();
  config.deadline = Deadline::after(0.0, 300);

  PlanningResult result;
  EXPECT_NO_THROW(result = plan(problem, nbf, config));
  EXPECT_LE(config.deadline->ticks(), 2 * 300);
  if (config.deadline->expired()) {
    EXPECT_FALSE(result.stopped_reason.empty());
  }
}

TEST(DeadlineEnvelopeTest, AnalysisLayersThrowTypedOnPreExpiredToken) {
  const auto problem = tiny_problem(2);
  const Deadline expired(0.0, 1);
  expired.tick();  // fire the budget before handing the token out
  ASSERT_TRUE(expired.expired());

  HeuristicRecovery nbf;
  FailureAnalyzer::Options analyzer_options;
  analyzer_options.deadline = &expired;
  const FailureAnalyzer analyzer(nbf, analyzer_options);
  const Topology topology = nptsn::testing::dual_homed_topology(problem);
  EXPECT_THROW(analyzer.analyze(topology), DeadlineExceeded);
  EXPECT_THROW(analyze_exhaustive(topology, nbf, 2, &expired), DeadlineExceeded);
}

}  // namespace
}  // namespace nptsn
