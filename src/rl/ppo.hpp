// Proximal Policy Optimization update (Schulman et al., Eq. 5 of the paper):
// clipped surrogate objective for the actor, mean-squared error for the
// critic, with KL-based early stopping as in SpinningUp.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/adam.hpp"
#include "rl/actor_critic.hpp"
#include "rl/buffer.hpp"

namespace nptsn {

struct PpoConfig {
  double clip_ratio = 0.2;
  int train_actor_iters = 80;
  int train_critic_iters = 80;
  // Early-stop the actor updates when approximate KL exceeds 1.5x this.
  double target_kl = 0.01;
  // Health supervisor: abort the update with a typed NumericAnomalyError the
  // moment a loss or the approximate KL goes NaN/Inf, instead of letting the
  // remaining iterations poison the weights and both Adam moment sets (a
  // NaN KL also disables the early-stop comparison above, so without this
  // check every remaining iteration would apply NaN gradients). Off by
  // default: honest runs are bit-identical either way, the flag only changes
  // how a poisoned update fails.
  bool check_numerics = false;
};

struct PpoStats {
  double actor_loss = 0.0;   // at the first iteration
  double critic_loss = 0.0;  // at the first iteration
  double approx_kl = 0.0;    // at the last actor iteration run
  int actor_iters_run = 0;
};

// What the losses compare a batch's network outputs against, staged once per
// update (ppo_update builds it from the Batch). Row i belongs to step i.
struct PpoTargets {
  std::vector<std::uint8_t> masks;  // B x A action masks, row-major
  std::vector<int> actions;
  Tensor old_log_probs;  // B x 1 constants: log pi_old(a_i | s_i)
  Tensor advantages;     // B x 1
  Tensor returns;        // B x 1
};

// SpinningUp's compute_loss_pi over the B x A policy logits: with
// ratio = exp(logp - logp_old), the negated mean of
// min(ratio * A, clip(ratio, 1 - clip_ratio, 1 + clip_ratio) * A), and the
// approximate KL mean(logp_old - logp).
struct ActorLoss {
  Tensor loss;
  double approx_kl = 0.0;
};
ActorLoss actor_loss(const Tensor& logits, const PpoTargets& targets, double clip_ratio);

// SpinningUp's compute_loss_v over the B x 1 values: mean((v - R)^2).
Tensor critic_loss(const Tensor& values, const PpoTargets& targets);

// One full PPO update over the batch. actor_opt must own the network's
// actor_parameters() and critic_opt its critic_parameters(); the shared GCN
// weights belong to both and are therefore updated twice.
PpoStats ppo_update(const ActorCritic& net, Adam& actor_opt, Adam& critic_opt,
                    const Batch& batch, const PpoConfig& config);

}  // namespace nptsn
