#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>

#include "rl/health.hpp"
#include "util/expect.hpp"

namespace nptsn {
namespace {

// Observation pointers for the batched head forwards (one stacked GEMM per
// network layer instead of one forward per step).
std::vector<const Observation*> batch_observations(const Batch& batch) {
  std::vector<const Observation*> obs;
  obs.reserve(batch.steps.size());
  for (const StepRecord& s : batch.steps) obs.push_back(&s.obs);
  return obs;
}

Tensor column(const std::vector<double>& values) {
  Matrix m = Matrix::uninitialized(static_cast<int>(values.size()), 1);
  std::copy(values.begin(), values.end(), m.data());
  return Tensor::constant(std::move(m));
}

PpoTargets stage_targets(const Batch& batch) {
  NPTSN_EXPECT(!batch.steps.empty(), "cannot update from an empty batch");
  NPTSN_EXPECT(batch.advantages.size() == batch.steps.size() &&
                   batch.returns.size() == batch.steps.size(),
               "batch arity mismatch");
  PpoTargets targets;
  const std::size_t actions = batch.steps.front().mask.size();
  targets.masks.reserve(batch.steps.size() * actions);
  targets.actions.reserve(batch.steps.size());
  std::vector<double> old_log_probs;
  old_log_probs.reserve(batch.steps.size());
  for (const StepRecord& s : batch.steps) {
    NPTSN_EXPECT(s.mask.size() == actions, "steps disagree on the action count");
    targets.masks.insert(targets.masks.end(), s.mask.begin(), s.mask.end());
    targets.actions.push_back(s.action);
    old_log_probs.push_back(s.log_prob);
  }
  targets.old_log_probs = column(old_log_probs);
  targets.advantages = column(batch.advantages);
  targets.returns = column(batch.returns);
  return targets;
}

}  // namespace

ActorLoss actor_loss(const Tensor& logits, const PpoTargets& targets, double clip_ratio) {
  const Tensor logp = masked_log_prob(logits, targets.masks, targets.actions);
  const Tensor ratio = exp_op(sub(logp, targets.old_log_probs));
  const Tensor& adv = targets.advantages;
  const Tensor objective = min2(hadamard(ratio, adv),
                                hadamard(clamp(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio), adv));
  ActorLoss result;
  result.loss = scale(mean_rows(objective), -1.0);  // gradient ASCENT on the objective
  const Matrix& now = logp.value();
  const Matrix& old = targets.old_log_probs.value();
  double kl_sum = 0.0;
  for (int i = 0; i < now.rows(); ++i) kl_sum += old.data()[i] - now.data()[i];
  result.approx_kl = kl_sum / static_cast<double>(now.rows());
  return result;
}

Tensor critic_loss(const Tensor& values, const PpoTargets& targets) {
  const Tensor err = sub(values, targets.returns);
  return mean_rows(hadamard(err, err));
}

PpoStats ppo_update(const ActorCritic& net, Adam& actor_opt, Adam& critic_opt,
                    const Batch& batch, const PpoConfig& config) {
  // Stage the batch once for the whole update: the loss targets, the stacked
  // features/params and the adjacency CSR index are weight-independent, so
  // every actor and critic iteration below reuses the same staged constants.
  const PpoTargets targets = stage_targets(batch);
  const std::vector<const Observation*> obs = batch_observations(batch);
  const ActorCritic::ObservationBatch staged = net.stage_batch(obs);
  PpoStats stats;

  for (int iter = 0; iter < config.train_actor_iters; ++iter) {
    ActorLoss al = actor_loss(net.forward_logits_batch(staged), targets, config.clip_ratio);
    if (iter == 0) stats.actor_loss = al.loss.item();
    stats.approx_kl = al.approx_kl;
    if (config.check_numerics &&
        (!std::isfinite(al.loss.item()) || !std::isfinite(al.approx_kl))) {
      throw NumericAnomalyError(Anomaly{AnomalyCode::kNonFiniteLoss, -1, -1,
                                        al.loss.item(),
                                        "actor loss at PPO iteration " +
                                            std::to_string(iter)});
    }
    // SpinningUp PPO: stop updating the policy once it drifted too far from
    // the behavior policy.
    if (al.approx_kl > 1.5 * config.target_kl) break;
    actor_opt.zero_grad();
    al.loss.backward();
    actor_opt.step();
    ++stats.actor_iters_run;
  }

  for (int iter = 0; iter < config.train_critic_iters; ++iter) {
    Tensor loss = critic_loss(net.forward_value_batch(staged), targets);
    if (iter == 0) stats.critic_loss = loss.item();
    if (config.check_numerics && !std::isfinite(loss.item())) {
      throw NumericAnomalyError(Anomaly{AnomalyCode::kNonFiniteLoss, -1, -1,
                                        loss.item(),
                                        "critic loss at PPO iteration " +
                                            std::to_string(iter)});
    }
    critic_opt.zero_grad();
    loss.backward();
    critic_opt.step();
  }
  return stats;
}

}  // namespace nptsn
