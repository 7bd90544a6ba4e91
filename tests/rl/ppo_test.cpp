#include "rl/ppo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>

#include "rl/distribution.hpp"
#include "testing/dense_observation.hpp"
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
  return testing::observation_of(Matrix(1, 1, 1.0), Matrix(1, 1, 1.0), Matrix(1, 0));
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

// --- the batch losses against Eq. 5 in plain doubles ----------------------------

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

Tensor column(const std::vector<double>& values) {
  Matrix m(static_cast<int>(values.size()), 1);
  for (std::size_t i = 0; i < values.size(); ++i) m.data()[i] = values[i];
  return Tensor::constant(std::move(m));
}

// Row i's stable masked log-softmax: log p_ij = x_ij - (log sum_j' exp(x_ij' - max) + max)
// over the unmasked j (masked entries are left 0).
std::vector<double> reference_log_softmax(const Matrix& x, const PpoTargets& t, int i) {
  const int cols = x.cols();
  const auto legal = [&](int j) { return t.masks[static_cast<std::size_t>(i * cols + j)] != 0; };
  double max_logit = -std::numeric_limits<double>::infinity();
  for (int j = 0; j < cols; ++j) {
    if (legal(j)) max_logit = std::max(max_logit, x.at(i, j));
  }
  double denom = 0.0;
  for (int j = 0; j < cols; ++j) {
    if (legal(j)) denom += std::exp(x.at(i, j) - max_logit);
  }
  const double log_denom = std::log(denom) + max_logit;
  std::vector<double> logp(static_cast<std::size_t>(cols), 0.0);
  for (int j = 0; j < cols; ++j) {
    if (legal(j)) logp[static_cast<std::size_t>(j)] = x.at(i, j) - log_denom;
  }
  return logp;
}

struct ReferenceLosses {
  double actor_loss = 0.0;
  double approx_kl = 0.0;
  double critic_loss = 0.0;
  Matrix logits_grad;
  Matrix values_grad;
};

// Eq. 5's negated mean objective, SpinningUp's value loss, and their
// gradients, per sample in plain doubles. Sums run in row order from +0.0,
// as the tape's batch mean does, and each "0.0 + x" marks where the tape
// starts a gradient at zero (it turns -0.0 into +0.0).
ReferenceLosses reference_losses(const Matrix& logits, const Matrix& values,
                                 const PpoTargets& t, double eps) {
  const int rows = logits.rows();
  const int cols = logits.cols();
  const double inv = 1.0 / static_cast<double>(rows);
  const double lo = 1.0 - eps;
  const double hi = 1.0 + eps;
  ReferenceLosses ref;
  ref.logits_grad = Matrix(rows, cols);
  ref.values_grad = Matrix(rows, 1);
  double objective_sum = 0.0;
  double kl_sum = 0.0;
  double squares_sum = 0.0;
  for (int i = 0; i < rows; ++i) {
    const int a = t.actions[static_cast<std::size_t>(i)];
    const double old = t.old_log_probs.value().at(i, 0);
    const double adv = t.advantages.value().at(i, 0);
    const std::vector<double> logp = reference_log_softmax(logits, t, i);
    const double ratio = std::exp(logp[static_cast<std::size_t>(a)] - old);
    const double clipped_ratio = std::clamp(ratio, lo, hi);
    const double unclipped = ratio * adv;
    const double clipped = clipped_ratio * adv;
    objective_sum += std::min(unclipped, clipped);
    kl_sum += old - logp[static_cast<std::size_t>(a)];

    // d loss / d objective_i = -1/B, routed to the unclipped term unless the
    // clipped one is strictly smaller.
    const double g = -1.0 * inv;
    const bool take_unclipped = unclipped <= clipped;
    const double g_unclipped = 0.0 + (take_unclipped ? g : 0.0);
    const double g_clipped = 0.0 + (take_unclipped ? 0.0 : g);
    const double g_clamp = 0.0 + g_clipped * adv;
    const double through_clamp = ratio < lo || ratio > hi ? 0.0 : g_clamp;
    const double g_ratio = (0.0 + through_clamp) + g_unclipped * adv;
    const double g_logp = 0.0 + (0.0 + g_ratio * ratio);
    for (int j = 0; j < cols; ++j) {
      if (!t.masks[static_cast<std::size_t>(i * cols + j)]) continue;
      const double p = std::exp(logp[static_cast<std::size_t>(j)]);
      ref.logits_grad.at(i, j) = 0.0 + ((j == a ? g_logp : 0.0) - p * g_logp);
    }

    const double err = values.at(i, 0) - t.returns.value().at(i, 0);
    squares_sum += err * err;
    const double g_square = 0.0 + 1.0 * inv;
    const double g_err = (0.0 + g_square * err) + g_square * err;
    ref.values_grad.at(i, 0) = 0.0 + g_err;
  }
  ref.actor_loss = objective_sum * inv * -1.0;
  ref.approx_kl = kl_sum / static_cast<double>(rows);
  ref.critic_loss = squares_sum * inv;
  return ref;
}

// The old log-prob that puts a row's ratio exp(logp - old) exactly at
// `target`, stepping one ulp at a time from the real-valued answer.
double old_log_prob_for_ratio(double logp, double target) {
  double old = logp - std::log(target);
  for (int step = 0; step < 256; ++step) {
    const double ratio = std::exp(logp - old);
    if (ratio == target) return old;
    old = std::nextafter(old, ratio < target ? -std::numeric_limits<double>::infinity()
                                             : std::numeric_limits<double>::infinity());
  }
  ADD_FAILURE() << "no old log-prob gives ratio " << target;
  return old;
}

TEST(Ppo, BatchLossesMatchTheClippedSurrogateFormula) {
  const double eps = 0.2;
  Rng rng(21);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE(trial);
    const int rows = 8 + trial;
    const int cols = 1 + trial % 7;
    Matrix logits(rows, cols);
    Matrix values(rows, 1);
    for (int k = 0; k < logits.size(); ++k) logits.data()[k] = rng.uniform(-1.0, 1.0);
    PpoTargets t;
    std::vector<double> old(static_cast<std::size_t>(rows));
    std::vector<double> adv(static_cast<std::size_t>(rows));
    std::vector<double> ret(static_cast<std::size_t>(rows));
    for (int i = 0; i < rows; ++i) {
      // Every fourth row has one legal action; the others about 2/3 of them.
      const int only = static_cast<int>(rng.uniform(0.0, cols));
      int legal = 0;
      for (int j = 0; j < cols; ++j) {
        const bool on = i % 4 == 0 ? j == only : rng.uniform(0.0, 1.0) < 0.67;
        t.masks.push_back(on ? 1 : 0);
        legal += on ? 1 : 0;
      }
      if (legal == 0) t.masks[static_cast<std::size_t>(i * cols + only)] = 1;
      int a = static_cast<int>(rng.uniform(0.0, cols));
      while (!t.masks[static_cast<std::size_t>(i * cols + a)]) a = (a + 1) % cols;
      t.actions.push_back(a);
      // A dominant action logit keeps |log p| small, so that one-ulp steps
      // of the old log-prob can land a ratio exactly on 1 +- eps.
      if (i % 6 >= 4) logits.at(i, a) = 4.0;

      const double logp = reference_log_softmax(logits, t, i)[static_cast<std::size_t>(a)];
      const std::size_t r = static_cast<std::size_t>(i);
      switch (i % 6) {
        case 0: old[r] = logp + 0.5; break;                              // below 1 - eps
        case 1: old[r] = logp + rng.uniform(-0.15, 0.15); break;         // inside
        case 2: old[r] = logp - 0.5; break;                              // above 1 + eps
        case 3: old[r] = logp; break;                                    // exactly 1
        case 4: old[r] = old_log_prob_for_ratio(logp, 1.0 - eps); break;  // at the edge
        default: old[r] = old_log_prob_for_ratio(logp, 1.0 + eps); break;
      }
      const int kind = static_cast<int>(rng.uniform(0.0, 6.0));
      adv[r] = kind == 0 ? 0.0 : kind == 1 ? -0.0 : rng.uniform(-2.0, 2.0);
      if (trial % 8 == 7) adv[r] = -0.0;  // every objective -0.0
      values.at(i, 0) = rng.uniform(-2.0, 2.0);
      ret[r] = i % 5 == 0 ? values.at(i, 0) : rng.uniform(-2.0, 2.0);
    }
    t.old_log_probs = column(old);
    t.advantages = column(adv);
    t.returns = column(ret);

    const ReferenceLosses ref = reference_losses(logits, values, t, eps);
    const Tensor logits_leaf = Tensor::parameter(logits);
    const ActorLoss actor = actor_loss(logits_leaf, t, eps);
    actor.loss.backward();
    const Tensor values_leaf = Tensor::parameter(values);
    const Tensor critic = critic_loss(values_leaf, t);
    critic.backward();

    EXPECT_TRUE(same_bits(actor.loss.item(), ref.actor_loss))
        << actor.loss.item() << " vs " << ref.actor_loss;
    EXPECT_TRUE(same_bits(actor.approx_kl, ref.approx_kl));
    EXPECT_TRUE(same_bits(critic.item(), ref.critic_loss));
    EXPECT_TRUE(same_bits(logits_leaf.grad(), ref.logits_grad));
    EXPECT_TRUE(same_bits(values_leaf.grad(), ref.values_grad));
  }
}

// --- recycled stacked-batch buffers --------------------------------------------

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
