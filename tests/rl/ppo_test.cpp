#include "rl/ppo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>

#include "rl/distribution.hpp"
#include "testing/orion_batch.hpp"

namespace nptsn {
namespace {

// A tiny single-state setup: one node, constant observation, 3 actions.
ActorCritic::Config bandit_config() {
  ActorCritic::Config c;
  c.num_nodes = 1;
  c.feature_dim = 1;
  c.param_dim = 0;
  c.num_actions = 3;
  c.gcn_layers = 0;
  c.embedding_dim = 1;
  c.actor_hidden = {16};
  c.critic_hidden = {16};
  return c;
}

Observation bandit_obs() {
  Observation obs;
  obs.a_hat = Matrix(1, 1, 1.0);
  obs.features = Matrix(1, 1, 1.0);
  obs.params = Matrix(1, 0);
  return obs;
}

// Builds a batch where `good_action` carries positive advantage and the
// others negative, as if sampled uniformly.
Batch contrived_batch(const ActorCritic& net, int good_action, int steps) {
  Batch batch;
  const Observation obs = bandit_obs();
  const auto out = net.forward(obs);
  for (int i = 0; i < steps; ++i) {
    StepRecord s;
    s.obs = obs;
    s.mask = {1, 1, 1};
    s.action = i % 3;
    const auto probs = masked_probabilities(out.logits.value(), s.mask);
    s.log_prob = std::log(probs[static_cast<std::size_t>(s.action)]);
    s.value = out.value.item();
    s.reward = s.action == good_action ? 1.0 : -1.0;
    batch.steps.push_back(std::move(s));
    batch.advantages.push_back(batch.steps.back().reward);
    batch.returns.push_back(batch.steps.back().reward);
  }
  return batch;
}

TEST(Ppo, ActorShiftsProbabilityTowardAdvantage) {
  Rng rng(1);
  ActorCritic net(bandit_config(), rng);
  Adam actor_opt(net.actor_parameters(), {.learning_rate = 1e-2});
  Adam critic_opt(net.critic_parameters(), {.learning_rate = 1e-2});

  const auto before =
      masked_probabilities(net.forward(bandit_obs()).logits.value(), {1, 1, 1});

  PpoConfig config;
  config.train_actor_iters = 20;
  config.train_critic_iters = 5;
  config.target_kl = 100.0;  // disable early stop for this test
  const Batch batch = contrived_batch(net, /*good_action=*/2, 30);
  const auto stats = ppo_update(net, actor_opt, critic_opt, batch, config);

  const auto after =
      masked_probabilities(net.forward(bandit_obs()).logits.value(), {1, 1, 1});
  EXPECT_GT(after[2], before[2]);
  EXPECT_LT(after[0], before[0]);
  EXPECT_EQ(stats.actor_iters_run, 20);
}

TEST(Ppo, CriticRegressesTowardReturns) {
  Rng rng(2);
  ActorCritic net(bandit_config(), rng);
  Adam actor_opt(net.actor_parameters(), {.learning_rate = 1e-3});
  Adam critic_opt(net.critic_parameters(), {.learning_rate = 5e-2});

  Batch batch = contrived_batch(net, 1, 12);
  for (auto& r : batch.returns) r = 7.0;  // constant target

  PpoConfig config;
  config.train_actor_iters = 1;
  config.train_critic_iters = 200;
  ppo_update(net, actor_opt, critic_opt, batch, config);
  EXPECT_NEAR(net.forward(bandit_obs()).value.item(), 7.0, 0.5);
}

TEST(Ppo, KlEarlyStoppingLimitsActorIterations) {
  Rng rng(3);
  ActorCritic net(bandit_config(), rng);
  Adam actor_opt(net.actor_parameters(), {.learning_rate = 5e-2});  // big steps
  Adam critic_opt(net.critic_parameters(), {.learning_rate = 1e-3});

  PpoConfig config;
  config.train_actor_iters = 80;
  config.train_critic_iters = 1;
  config.target_kl = 1e-4;  // very tight
  const Batch batch = contrived_batch(net, 0, 30);
  const auto stats = ppo_update(net, actor_opt, critic_opt, batch, config);
  EXPECT_LT(stats.actor_iters_run, 80);
}

TEST(Ppo, ClippingBoundsTheUpdate) {
  // With and without clipping (ratio bounds), a single huge-advantage batch
  // must move the policy less when the clip is tight.
  auto run = [](double clip) {
    Rng rng(4);
    ActorCritic net(bandit_config(), rng);
    Adam actor_opt(net.actor_parameters(), {.learning_rate = 1e-2});
    Adam critic_opt(net.critic_parameters(), {.learning_rate = 1e-3});
    PpoConfig config;
    config.clip_ratio = clip;
    config.train_actor_iters = 40;
    config.train_critic_iters = 1;
    config.target_kl = 1e9;
    Batch batch;
    const Observation obs = bandit_obs();
    const auto out = net.forward(obs);
    for (int i = 0; i < 10; ++i) {
      StepRecord s;
      s.obs = obs;
      s.mask = {1, 1, 1};
      s.action = 2;
      const auto probs = masked_probabilities(out.logits.value(), s.mask);
      s.log_prob = std::log(probs[2]);
      s.value = 0.0;
      s.reward = 100.0;
      batch.steps.push_back(std::move(s));
      batch.advantages.push_back(100.0);
      batch.returns.push_back(100.0);
    }
    ppo_update(net, actor_opt, critic_opt, batch, config);
    return masked_probabilities(net.forward(obs).logits.value(), {1, 1, 1})[2];
  };
  const double tight = run(0.05);
  const double loose = run(10.0);
  EXPECT_LT(tight, loose);
}

TEST(Ppo, EmptyBatchRejected) {
  Rng rng(5);
  ActorCritic net(bandit_config(), rng);
  Adam actor_opt(net.actor_parameters(), {.learning_rate = 1e-3});
  Adam critic_opt(net.critic_parameters(), {.learning_rate = 1e-3});
  EXPECT_THROW(ppo_update(net, actor_opt, critic_opt, Batch{}, PpoConfig{}),
               std::invalid_argument);
}

TEST(Ppo, BatchArityValidated) {
  Rng rng(6);
  ActorCritic net(bandit_config(), rng);
  Adam actor_opt(net.actor_parameters(), {.learning_rate = 1e-3});
  Adam critic_opt(net.critic_parameters(), {.learning_rate = 1e-3});
  Batch batch = contrived_batch(net, 0, 3);
  batch.advantages.pop_back();
  EXPECT_THROW(ppo_update(net, actor_opt, critic_opt, batch, PpoConfig{}),
               std::invalid_argument);
}

TEST(Ppo, MaskedActionsStayMaskedAfterUpdate) {
  // Updating on a batch whose masks exclude action 0 must not make the
  // distribution assign it probability at sampling time (mask re-applied).
  Rng rng(7);
  ActorCritic net(bandit_config(), rng);
  Adam actor_opt(net.actor_parameters(), {.learning_rate = 1e-2});
  Adam critic_opt(net.critic_parameters(), {.learning_rate = 1e-3});

  Batch batch;
  const Observation obs = bandit_obs();
  const auto out = net.forward(obs);
  for (int i = 0; i < 10; ++i) {
    const int action = 1 + (i % 2);
    StepRecord s;
    s.obs = obs;
    s.mask = {0, 1, 1};
    s.action = action;
    const auto probs = masked_probabilities(out.logits.value(), s.mask);
    s.log_prob = std::log(probs[static_cast<std::size_t>(action)]);
    s.value = 0.0;
    s.reward = 1.0;
    batch.steps.push_back(std::move(s));
    batch.advantages.push_back(action == 1 ? 1.0 : -1.0);
    batch.returns.push_back(1.0);
  }
  PpoConfig config;
  config.train_actor_iters = 10;
  config.train_critic_iters = 1;
  EXPECT_NO_THROW(ppo_update(net, actor_opt, critic_opt, batch, config));
  const auto probs =
      masked_probabilities(net.forward(obs).logits.value(), {0, 1, 1});
  EXPECT_DOUBLE_EQ(probs[0], 0.0);
}

// --- recycled stacked-batch buffers --------------------------------------------

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

// Takes every block parked in this thread's recycle scope, fills it with NaN
// and parks it again.
void dirty_parked_blocks() {
  std::vector<Matrix> taken;
  for (const std::size_t bytes : recycler_parked_sizes()) {
    taken.push_back(Matrix::uninitialized(1, static_cast<int>(bytes / sizeof(double))));
    taken.back().fill(std::numeric_limits<double>::quiet_NaN());
  }
}

struct UpdateResult {
  PpoStats stats;
  std::vector<Matrix> params;
  std::vector<Matrix> moments;
};

TEST(PpoRecycledBuffers, UpdateIsBitIdenticalOnNaNDirtiedRecycledBlocks) {
  // An ORION-shaped update run on recycled blocks that hold NaN must match an
  // update with no recycle scope bit for bit: no kernel may read a
  // Matrix::uninitialized output before writing it.
  const testing::OrionBatch orion = testing::orion_batch(32, 9);
  PpoConfig config;
  config.train_actor_iters = 3;
  config.train_critic_iters = 3;
  config.target_kl = std::numeric_limits<double>::infinity();

  const auto run = [&](bool recycled) {
    Rng rng(9);
    const ActorCritic net(orion.net_config, rng);
    Adam actor_opt(net.actor_parameters(), {.learning_rate = 1e-3});
    Adam critic_opt(net.critic_parameters(), {.learning_rate = 1e-3});
    std::optional<BufferRecycleScope> scope;
    if (recycled) {
      scope.emplace();
      {
        // A throwaway update of the same shapes leaves one block parked for
        // every large buffer the real update will ask for.
        Rng warm_rng(10);
        const ActorCritic warm(orion.net_config, warm_rng);
        Adam warm_actor(warm.actor_parameters(), {.learning_rate = 1e-3});
        Adam warm_critic(warm.critic_parameters(), {.learning_rate = 1e-3});
        ppo_update(warm, warm_actor, warm_critic, orion.batch, config);
      }
      const RecyclerCounters before = recycler_counters();
      dirty_parked_blocks();
      EXPECT_GT(recycler_counters().parked_bytes, 0u);
      EXPECT_EQ(recycler_counters().fresh, before.fresh) << "dirtying took fresh blocks";
    }
    const RecyclerCounters before = recycler_counters();
    UpdateResult result;
    result.stats = ppo_update(net, actor_opt, critic_opt, orion.batch, config);
    if (recycled) {
      EXPECT_EQ(recycler_counters().fresh, before.fresh)
          << "every large buffer of the update must come from a dirtied block";
    }
    for (const Tensor& p : net.all_parameters()) result.params.push_back(p.value());
    for (const Adam* opt : {&actor_opt, &critic_opt}) {
      for (const Matrix& m : opt->first_moments()) result.moments.push_back(m);
      for (const Matrix& v : opt->second_moments()) result.moments.push_back(v);
    }
    return result;
  };

  struct KernelRestore {
    NnKernel saved = nn_kernel();
    ~KernelRestore() { set_nn_kernel(saved); }
  } restore;
  for (const NnKernel kernel : {NnKernel::kFast, NnKernel::kReference}) {
    SCOPED_TRACE(kernel == NnKernel::kFast ? "fast" : "reference");
    set_nn_kernel(kernel);
    const UpdateResult plain = run(false);
    const UpdateResult recycled = run(true);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(recycled.stats.actor_loss),
              std::bit_cast<std::uint64_t>(plain.stats.actor_loss));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(recycled.stats.critic_loss),
              std::bit_cast<std::uint64_t>(plain.stats.critic_loss));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(recycled.stats.approx_kl),
              std::bit_cast<std::uint64_t>(plain.stats.approx_kl));
    EXPECT_EQ(recycled.stats.actor_iters_run, plain.stats.actor_iters_run);
    EXPECT_TRUE(plain.params.front().all_finite());
    ASSERT_EQ(recycled.params.size(), plain.params.size());
    for (std::size_t i = 0; i < plain.params.size(); ++i) {
      EXPECT_TRUE(same_bits(recycled.params[i], plain.params[i])) << "parameter " << i;
    }
    ASSERT_EQ(recycled.moments.size(), plain.moments.size());
    for (std::size_t i = 0; i < plain.moments.size(); ++i) {
      EXPECT_TRUE(same_bits(recycled.moments[i], plain.moments[i])) << "Adam moment " << i;
    }
  }
}

// The encoder's forward splits a batch's graphs over the kernel pool and the
// large GEMMs split their rows, so an ORION update must not move a bit
// between nn_threads 1, 2 and 3.
TEST(Ppo, UpdateIsBitIdenticalAcrossNnThreads) {
  const testing::OrionBatch orion = testing::orion_batch(32, 9);
  PpoConfig config;
  config.train_actor_iters = 3;
  config.train_critic_iters = 3;
  config.target_kl = std::numeric_limits<double>::infinity();
  struct ThreadsRestore {
    int saved = nn_kernel_threads();
    ~ThreadsRestore() { set_nn_kernel_threads(saved); }
  } restore;
  const auto run = [&](int threads) {
    set_nn_kernel_threads(threads);
    Rng rng(9);
    const ActorCritic net(orion.net_config, rng);
    Adam actor_opt(net.actor_parameters(), {.learning_rate = 1e-3});
    Adam critic_opt(net.critic_parameters(), {.learning_rate = 1e-3});
    UpdateResult result;
    result.stats = ppo_update(net, actor_opt, critic_opt, orion.batch, config);
    for (const Tensor& p : net.all_parameters()) result.params.push_back(p.value());
    for (const Adam* opt : {&actor_opt, &critic_opt}) {
      for (const Matrix& m : opt->first_moments()) result.moments.push_back(m);
      for (const Matrix& v : opt->second_moments()) result.moments.push_back(v);
    }
    return result;
  };
  const UpdateResult serial = run(1);
  for (const int threads : {2, 3}) {
    SCOPED_TRACE(threads);
    const UpdateResult parallel = run(threads);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.stats.actor_loss),
              std::bit_cast<std::uint64_t>(serial.stats.actor_loss));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.stats.approx_kl),
              std::bit_cast<std::uint64_t>(serial.stats.approx_kl));
    ASSERT_EQ(parallel.params.size(), serial.params.size());
    for (std::size_t i = 0; i < serial.params.size(); ++i) {
      EXPECT_TRUE(same_bits(parallel.params[i], serial.params[i])) << "parameter " << i;
    }
    ASSERT_EQ(parallel.moments.size(), serial.moments.size());
    for (std::size_t i = 0; i < serial.moments.size(); ++i) {
      EXPECT_TRUE(same_bits(parallel.moments[i], serial.moments[i])) << "Adam moment " << i;
    }
  }
}

}  // namespace
}  // namespace nptsn
