#include "rl/actor_critic.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/environment.hpp"
#include "core/observation_encoder.hpp"
#include "nn/layers.hpp"
#include "nn/stage_cache.hpp"
#include "scenarios/orion.hpp"
#include "scenarios/scenario.hpp"
#include "testing/dense_observation.hpp"
#include "testing/orion_batch.hpp"
#include "tsn/recovery.hpp"

namespace nptsn {
namespace {

ActorCritic::Config small_config() {
  ActorCritic::Config c;
  c.num_nodes = 3;
  c.feature_dim = 4;
  c.param_dim = 2;
  c.num_actions = 5;
  c.gcn_layers = 2;
  c.embedding_dim = 6;
  c.actor_hidden = {8, 8};
  c.critic_hidden = {8, 8};
  return c;
}

Matrix small_a_hat() {
  Matrix a(3, 3);
  a.at(0, 1) = a.at(1, 0) = 1.0;
  return testing::normalized_adjacency(a);
}

Observation small_obs() {
  return testing::observation_of(small_a_hat(), Matrix(3, 4, 0.5), Matrix(1, 2, 0.1));
}

TEST(ActorCritic, ForwardShapes) {
  Rng rng(1);
  ActorCritic net(small_config(), rng);
  const auto out = net.forward(small_obs());
  EXPECT_EQ(out.logits.rows(), 1);
  EXPECT_EQ(out.logits.cols(), 5);
  EXPECT_EQ(out.value.rows(), 1);
  EXPECT_EQ(out.value.cols(), 1);
}

TEST(ActorCritic, HeadSpecificForwardsMatchCombined) {
  Rng rng(2);
  ActorCritic net(small_config(), rng);
  const auto obs = small_obs();
  const auto out = net.forward(obs);
  const ActorCritic::ObservationBatch staged = net.stage_batch({&obs});
  const auto logits = net.forward_logits_batch(staged);
  const auto value = net.forward_value_batch(staged);
  for (int j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(out.logits.value().at(0, j), logits.value().at(0, j));
  }
  EXPECT_DOUBLE_EQ(out.value.item(), value.item());
}

// The rollout forwards one observation per step. Admitting each of those
// single-use adjacencies would fill a shared stage cache's byte budget, so
// forward(obs) stages past the cache; only stage_batch (the PPO update)
// consults it.
TEST(ActorCritic, RolloutForwardsNeverTouchTheStageCache) {
  Rng rng(14);
  ActorCritic net(small_config(), rng);
  const auto cache = std::make_shared<AdjacencyStageCache>();
  net.set_stage_cache(cache);
  const auto obs = small_obs();
  const ActorCritic::Output uncached = net.forward(obs);
  for (int i = 0; i < 8; ++i) {
    const ActorCritic::Output out = net.forward(obs);
    EXPECT_EQ(out.value.item(), uncached.value.item());
  }
  AdjacencyStageCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);

  const ActorCritic::ObservationBatch staged = net.stage_batch({&obs});
  stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(net.forward_value_batch(staged).item(), uncached.value.item());

  net.forward(obs);
  stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ActorCritic, DefaultEmbeddingIsTwiceNumNodes) {
  auto c = small_config();
  c.embedding_dim = 0;
  Rng rng(3);
  ActorCritic net(c, rng);
  EXPECT_EQ(net.config().embedding_dim, 6);  // 2 * 3 nodes
}

TEST(ActorCritic, GcnZeroPoolsRawFeatures) {
  auto c = small_config();
  c.gcn_layers = 0;
  Rng rng(4);
  ActorCritic net(c, rng);
  const auto out = net.forward(small_obs());
  EXPECT_EQ(out.logits.cols(), 5);
  // Without GCN layers there are fewer parameters.
  Rng rng2(4);
  ActorCritic with_gcn(small_config(), rng2);
  EXPECT_LT(net.all_parameters().size(), with_gcn.all_parameters().size());
}

TEST(ActorCritic, ParameterPartitionSharesGcn) {
  Rng rng(5);
  ActorCritic net(small_config(), rng);
  const auto actor = net.actor_parameters();
  const auto critic = net.critic_parameters();
  const auto all = net.all_parameters();
  // 2 GCN layers (W, b each) = 4 shared tensors.
  EXPECT_EQ(actor.size(), 4u + 6u);   // + 3 MLP layers x 2
  EXPECT_EQ(critic.size(), 4u + 6u);
  EXPECT_EQ(all.size(), 4u + 6u + 6u);
  // The first four tensors are the SAME graph nodes in both sets.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(actor[i].node().get(), critic[i].node().get());
  }
  // Heads are disjoint.
  for (std::size_t i = 4; i < actor.size(); ++i) {
    EXPECT_NE(actor[i].node().get(), critic[i].node().get());
  }
}

TEST(ActorCritic, GradientsReachSharedAndHeadParameters) {
  Rng rng(6);
  ActorCritic net(small_config(), rng);
  const auto out = net.forward(small_obs());
  sum_all(out.logits).backward();
  for (auto& p : net.actor_parameters()) {
    EXPECT_FALSE(p.grad().empty());
  }
  // Critic head untouched by the actor loss.
  const auto critic = net.critic_parameters();
  for (std::size_t i = 4; i < critic.size(); ++i) {
    EXPECT_TRUE(critic[i].grad().empty() || critic[i].grad().max_abs() == 0.0);
  }
}

TEST(ActorCritic, CopyParametersProducesIdenticalOutputs) {
  Rng rng1(7);
  Rng rng2(8);
  ActorCritic a(small_config(), rng1);
  ActorCritic b(small_config(), rng2);
  const auto obs = small_obs();
  EXPECT_NE(a.forward(obs).value.item(), b.forward(obs).value.item());
  b.copy_parameters_from(a);
  const auto oa = a.forward(obs);
  const auto ob = b.forward(obs);
  EXPECT_DOUBLE_EQ(oa.value.item(), ob.value.item());
  for (int j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(oa.logits.value().at(0, j), ob.logits.value().at(0, j));
  }
}

TEST(ActorCritic, ObservationShapeValidated) {
  Rng rng(9);
  ActorCritic net(small_config(), rng);
  const Matrix features(3, 4, 0.5);
  const Matrix params(1, 2, 0.1);
  // Wrong feature width, then too few feature rows.
  EXPECT_THROW(net.forward(testing::observation_of(small_a_hat(), Matrix(3, 5), params)),
               std::invalid_argument);
  EXPECT_THROW(net.forward(testing::observation_of(small_a_hat(), Matrix(2, 4), params)),
               std::invalid_argument);
  // An adjacency of the wrong size, then two blocks where one belongs.
  EXPECT_THROW(net.forward(testing::observation_of(Matrix(2, 2, 1.0), features, params)),
               std::invalid_argument);
  auto obs = small_obs();
  const Matrix a_hat = small_a_hat();
  obs.a_hat = std::make_shared<const CsrRows>(3, std::vector<const Matrix*>{&a_hat, &a_hat});
  EXPECT_THROW(net.forward(obs), std::invalid_argument);
  // Missing forms, then the wrong parameter width.
  obs = small_obs();
  obs.a_hat = nullptr;
  EXPECT_THROW(net.forward(obs), std::invalid_argument);
  obs = small_obs();
  obs.features = nullptr;
  EXPECT_THROW(net.forward(obs), std::invalid_argument);
  EXPECT_THROW(net.forward(testing::observation_of(small_a_hat(), features, Matrix(1, 3))),
               std::invalid_argument);
}

// A batch of one is its observation: staging shares the encoder's CSR
// objects, so a rollout forward builds no feature rows or adjacency.
TEST(ActorCritic, BatchOfOneSharesTheObservationsCsr) {
  Rng rng(15);
  const ActorCritic net(small_config(), rng);
  const Observation obs = small_obs();
  const ActorCritic::ObservationBatch staged = net.stage_batch({&obs});
  EXPECT_EQ(staged.features.get(), obs.features.get());
  EXPECT_EQ(staged.a_hats.get(), obs.a_hat.get());
}

// Square rows built from CSR arrays check their own symmetry. The encoder's
// backward needs A_hat^T = A_hat, so a batch holding an asymmetric part
// stages (its symmetric() is the AND of the parts') and is refused.
TEST(ActorCritic, AsymmetricAdjacencyPartIsRefused) {
  Rng rng(16);
  const ActorCritic net(small_config(), rng);
  Observation skewed = small_obs();
  // Row 0 holds (0, 1), row 1 only (1, 1): entry (0, 1) has no mirror.
  skewed.a_hat = std::make_shared<const CsrRows>(
      3, std::vector<std::size_t>{0, 2, 3, 4}, std::vector<int>{0, 1, 1, 2},
      std::vector<double>{0.5, 0.25, 1.0, 1.0});
  EXPECT_FALSE(skewed.a_hat->symmetric());
  EXPECT_TRUE(small_obs().a_hat->symmetric());
  const Observation plain = small_obs();
  const ActorCritic::ObservationBatch staged = net.stage_batch({&plain, &skewed});
  EXPECT_FALSE(staged.a_hats->symmetric());
  EXPECT_THROW(net.forward_logits_batch(staged), std::invalid_argument);
  EXPECT_THROW(net.forward(skewed), std::invalid_argument);
}

TEST(ActorCritic, ConfigValidated) {
  Rng rng(10);
  auto c = small_config();
  c.num_actions = 0;
  EXPECT_THROW(ActorCritic(c, rng), std::invalid_argument);
  c = small_config();
  c.gcn_layers = -1;
  EXPECT_THROW(ActorCritic(c, rng), std::invalid_argument);
}

TEST(ActorCritic, GatEncoderForwardAndTraining) {
  auto c = small_config();
  c.encoder = GraphEncoder::kGat;
  Rng rng(12);
  ActorCritic net(c, rng);
  const auto out = net.forward(small_obs());
  EXPECT_EQ(out.logits.cols(), 5);
  sum_all(out.logits).backward();
  // Every actor-side parameter (GAT included) receives gradient signal.
  for (auto& p : net.actor_parameters()) EXPECT_FALSE(p.grad().empty());
}

TEST(ActorCritic, GatAndGcnHaveDifferentParameterCounts) {
  Rng rng1(13);
  Rng rng2(13);
  auto gcn_cfg = small_config();
  auto gat_cfg = small_config();
  gat_cfg.encoder = GraphEncoder::kGat;
  ActorCritic gcn_net(gcn_cfg, rng1);
  ActorCritic gat_net(gat_cfg, rng2);
  // GAT adds two attention vectors per layer on top of each Linear.
  EXPECT_EQ(gat_net.all_parameters().size(), gcn_net.all_parameters().size() + 2 * 2);
}

TEST(ActorCritic, DeterministicGivenSeed) {
  Rng rng1(11);
  Rng rng2(11);
  ActorCritic a(small_config(), rng1);
  ActorCritic b(small_config(), rng2);
  const auto obs = small_obs();
  EXPECT_DOUBLE_EQ(a.forward(obs).value.item(), b.forward(obs).value.item());
}

// Staging stacks the observations' own CSR feature rows in batch order:
// graph b's rows of the batch are observation b's rows, entry for entry
// (columns and value bits). The GAT encoder stages no features.
TEST(ActorCritic, StagedFeaturesRoundTripEveryObservation) {
  const testing::OrionBatch orion = testing::orion_batch(32, 3);
  std::vector<const Observation*> obs;
  for (const StepRecord& s : orion.batch.steps) obs.push_back(&s.obs);
  Rng rng(5);
  const ActorCritic net(orion.net_config, rng);
  const ActorCritic::ObservationBatch staged = net.stage_batch(obs);
  ASSERT_NE(staged.features, nullptr);
  const CsrRows& rows = *staged.features;
  const int n = orion.net_config.num_nodes;
  ASSERT_EQ(rows.rows(), static_cast<int>(obs.size()) * n);
  ASSERT_EQ(rows.cols(), orion.net_config.feature_dim);
  for (std::size_t b = 0; b < obs.size(); ++b) {
    const CsrRows& own = *obs[b]->features;
    for (int i = 0; i < n; ++i) {
      const int r = static_cast<int>(b) * n + i;
      ASSERT_EQ(rows.row_end(r) - rows.row_begin(r), own.row_end(i) - own.row_begin(i))
          << "observation " << b << ", row " << i;
      for (std::size_t t = 0; t < own.row_end(i) - own.row_begin(i); ++t) {
        EXPECT_EQ(rows.csr_cols()[rows.row_begin(r) + t], own.csr_cols()[own.row_begin(i) + t]);
        EXPECT_EQ(std::memcmp(rows.csr_vals() + rows.row_begin(r) + t,
                              own.csr_vals() + own.row_begin(i) + t, sizeof(double)),
                  0)
            << "observation " << b << ", row " << i << ", entry " << t;
      }
    }
  }

  ActorCritic::Config gat = orion.net_config;
  gat.encoder = GraphEncoder::kGat;
  Rng gat_rng(5);
  EXPECT_EQ(ActorCritic(gat, gat_rng).stage_batch(obs).features, nullptr);
}

// Staging B encoder observations equals, field by field, the dense-scan
// constructors over the dense oracle's matrices of the same states: row
// pointers, columns, value bits and symmetric().
TEST(ActorCritic, StagedBatchEqualsTheDenseScanOfTheOracle) {
  const Scenario orion = make_orion();
  Rng flow_rng(2023);
  const PlanningProblem problem = with_flows(orion, random_flows(orion.problem, 4, flow_rng));
  NptsnConfig config;
  config.path_actions = 8;
  const HeuristicRecovery nbf;
  SolutionRecorder recorder;
  PlanningEnv env(problem, nbf, config, recorder, Rng(17));
  std::vector<Observation> observations;
  std::vector<testing::DenseEncoding> dense;
  Rng rng(23);
  env.reset();
  while (observations.size() < 24) {
    std::vector<int> allowed;
    for (std::size_t a = 0; a < env.action_mask().size(); ++a) {
      if (env.action_mask()[a] != 0) allowed.push_back(static_cast<int>(a));
    }
    if (allowed.empty()) {
      env.reset();
      continue;
    }
    observations.push_back(env.observe());
    dense.push_back(
        testing::dense_encoding(problem, config.path_actions, env.topology(), env.action_space()));
    if (env.step(rng.pick(allowed)).episode_end) env.reset();
  }

  const ObservationEncoder encoder(problem, config.path_actions);
  ActorCritic::Config net_config = small_config();
  net_config.num_nodes = problem.num_nodes();
  net_config.feature_dim = encoder.feature_dim();
  net_config.param_dim = encoder.param_dim();
  Rng net_rng(4);
  const ActorCritic net(net_config, net_rng);
  std::vector<const Observation*> ptrs;
  std::vector<const Matrix*> a_hats;
  std::vector<const Matrix*> features;
  for (std::size_t b = 0; b < observations.size(); ++b) {
    ptrs.push_back(&observations[b]);
    a_hats.push_back(&dense[b].a_hat);
    features.push_back(&dense[b].features);
  }
  const ActorCritic::ObservationBatch staged = net.stage_batch(ptrs);
  EXPECT_EQ(testing::csr_difference(*staged.a_hats, CsrRows(problem.num_nodes(), a_hats)), "");
  EXPECT_EQ(testing::csr_difference(*staged.features, CsrRows(encoder.feature_dim(), features)),
            "");
  EXPECT_TRUE(staged.a_hats->symmetric());
}

// PPO's importance ratios divide the update's batched log-probabilities by
// ones taken from the rollout's forward(obs), so every row of both batched
// heads must equal that forward bit for bit, at every encoder depth, for the
// GAT ablation encoder too, and in both kernel families.
TEST(ActorCritic, BatchedForwardsMatchPerObservationForwards) {
  const NnKernel saved = nn_kernel();
  const testing::OrionBatch orion = testing::orion_batch(32, 3);
  std::vector<const Observation*> obs;
  for (const StepRecord& s : orion.batch.steps) obs.push_back(&s.obs);
  const std::pair<GraphEncoder, int> encoders[] = {{GraphEncoder::kGcn, 0},
                                                   {GraphEncoder::kGcn, 1},
                                                   {GraphEncoder::kGcn, 2},
                                                   {GraphEncoder::kGat, 2}};
  for (const auto& [family, gcn_layers] : encoders) {
    const char* name = family == GraphEncoder::kGat ? "GAT" : "GCN";
    ActorCritic::Config config = orion.net_config;
    config.encoder = family;
    config.gcn_layers = gcn_layers;
    Rng rng(21);
    const ActorCritic net(config, rng);
    for (const NnKernel kernel : {NnKernel::kReference, NnKernel::kFast}) {
      set_nn_kernel(kernel);
      const ActorCritic::ObservationBatch staged = net.stage_batch(obs);
      const Matrix logits = net.forward_logits_batch(staged).value();
      const Matrix values = net.forward_value_batch(staged).value();
      ASSERT_EQ(logits.rows(), static_cast<int>(obs.size()));
      ASSERT_EQ(values.rows(), static_cast<int>(obs.size()));
      for (std::size_t i = 0; i < obs.size(); ++i) {
        const int row = static_cast<int>(i);
        const ActorCritic::Output single = net.forward(*obs[i]);
        for (int j = 0; j < logits.cols(); ++j) {
          // Exact double equality on purpose: the contract is bitwise.
          EXPECT_EQ(logits.at(row, j), single.logits.value().at(0, j))
              << name << " layers " << gcn_layers << ", row " << row << ", logit " << j;
        }
        EXPECT_EQ(values.at(row, 0), single.value.item())
            << name << " layers " << gcn_layers << ", row " << row;
      }
    }
  }
  set_nn_kernel(saved);
}

}  // namespace
}  // namespace nptsn
