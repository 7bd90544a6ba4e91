// Shared miniature RL environment for trainer/resilience tests.
//
// A 5-position corridor: the agent starts at 0 and must reach 4. Action 0 =
// left, action 1 = right. Reward -0.05 per step, +1.0 on arrival. Optimal
// return = 4 * (-0.05) + 1 = 0.8. Snapshot-capable, so checkpoint/resume
// determinism can be exercised without the full planning stack.
#pragma once

#include <cstdint>
#include <vector>

#include "rl/env.hpp"
#include "rl/trainer.hpp"
#include "testing/dense_observation.hpp"

namespace nptsn::testing {

class CorridorEnv final : public Environment {
 public:
  static constexpr int kGoal = 4;

  CorridorEnv() { rebuild(); }

  int num_actions() const override { return 2; }

  Observation observe() const override { return obs_; }

  const std::vector<std::uint8_t>& action_mask() const override { return mask_; }

  StepResult step(int action) override {
    position_ += action == 1 ? 1 : -1;
    if (position_ < 0) position_ = 0;
    StepResult result;
    result.reward = -0.05;
    if (position_ == kGoal) {
      result.reward += 1.0;
      result.episode_end = true;
    } else if (++steps_ >= 32) {
      result.episode_end = true;  // give up
    }
    rebuild();
    return result;
  }

  void reset() override {
    position_ = 0;
    steps_ = 0;
    rebuild();
  }

  bool snapshot_supported() const override { return true; }

  void save_snapshot(ByteWriter& out) const override {
    out.i64(position_);
    out.i64(steps_);
  }

  void load_snapshot(ByteReader& in) override {
    position_ = static_cast<int>(in.i64());
    steps_ = static_cast<int>(in.i64());
    if (position_ < 0 || position_ > kGoal || steps_ < 0) {
      throw CheckpointError("corridor snapshot out of range");
    }
    rebuild();
  }

  int position() const { return position_; }

 private:
  void rebuild() {
    Matrix a_hat(kGoal + 1, kGoal + 1);
    for (int i = 0; i <= kGoal; ++i) a_hat.at(i, i) = 1.0;
    Matrix features(kGoal + 1, 1);
    features.at(position_, 0) = 1.0;
    obs_ = observation_of(a_hat, features, Matrix(1, 0));
  }

  int position_ = 0;
  int steps_ = 0;
  Observation obs_;
  std::vector<std::uint8_t> mask_ = {1, 1};
};

// The network/trainer settings every corridor test shares.
inline ActorCritic::Config corridor_net_config() {
  ActorCritic::Config c;
  c.num_nodes = 5;
  c.feature_dim = 1;
  c.param_dim = 0;
  c.num_actions = 2;
  c.gcn_layers = 0;
  c.embedding_dim = 4;
  c.actor_hidden = {16};
  c.critic_hidden = {16};
  return c;
}

inline TrainerConfig corridor_trainer_config() {
  TrainerConfig c;
  c.epochs = 12;
  c.steps_per_epoch = 128;
  c.actor_lr = 1e-2;
  c.critic_lr = 1e-2;
  c.ppo.train_actor_iters = 10;
  c.ppo.train_critic_iters = 10;
  c.seed = 3;
  return c;
}

}  // namespace nptsn::testing
