// A real ORION PPO batch for update-level tests: observations from a
// random-action rollout through PlanningEnv, and the network shape plan()
// builds for the e2e benchmark's ORION workload (64-wide heads, K = 8, two
// GCN layers). ORION stacks 46 nodes per step, so at 32 steps the
// stacked-batch matrices of an update are about a megabyte each.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/environment.hpp"
#include "core/observation_encoder.hpp"
#include "rl/actor_critic.hpp"
#include "rl/buffer.hpp"
#include "rl/distribution.hpp"
#include "scenarios/orion.hpp"
#include "scenarios/scenario.hpp"
#include "tsn/recovery.hpp"

namespace nptsn::testing {

struct OrionBatch {
  ActorCritic::Config net_config;
  Batch batch;
};

// `steps` rollout steps. Behavior log-probabilities and values come from a
// network built from net_config with Rng(net_seed), so an update of that
// network starts at ratio 1, as in training.
inline OrionBatch orion_batch(int steps, std::uint64_t net_seed) {
  const Scenario orion = make_orion();
  Rng flow_rng(2023);
  const PlanningProblem problem = with_flows(orion, random_flows(orion.problem, 4, flow_rng));
  NptsnConfig config;
  config.mlp_hidden = {64, 64};
  config.path_actions = 8;
  const HeuristicRecovery nbf;
  SolutionRecorder recorder;
  PlanningEnv env(problem, nbf, config, recorder, Rng(17));
  const ObservationEncoder encoder(problem, config.path_actions);

  OrionBatch out;
  ActorCritic::Config& net_config = out.net_config;
  net_config.num_nodes = problem.num_nodes();
  net_config.feature_dim = encoder.feature_dim();
  net_config.param_dim = encoder.param_dim();
  net_config.num_actions = env.num_actions();
  net_config.gcn_layers = config.gcn_layers;
  net_config.embedding_dim = config.embedding_dim;
  net_config.actor_hidden = config.mlp_hidden;
  net_config.critic_hidden = config.mlp_hidden;
  Rng net_rng(net_seed);
  const ActorCritic net(net_config, net_rng);

  Rng rng(23);
  env.reset();
  while (static_cast<int>(out.batch.steps.size()) < steps) {
    const std::vector<std::uint8_t> mask = env.action_mask();
    std::vector<int> allowed;
    for (std::size_t a = 0; a < mask.size(); ++a) {
      if (mask[a] != 0) allowed.push_back(static_cast<int>(a));
    }
    if (allowed.empty()) {
      env.reset();
      continue;
    }
    StepRecord s;
    s.obs = env.observe();
    s.mask = mask;
    s.action = rng.pick(allowed);
    const ActorCritic::Output forward = net.forward(s.obs);
    s.log_prob = std::log(
        masked_probabilities(forward.logits.value(), s.mask)[static_cast<std::size_t>(s.action)]);
    s.value = forward.value.item();
    const Environment::StepResult result = env.step(s.action);
    s.reward = result.reward;
    out.batch.advantages.push_back(2.0 * rng.uniform() - 1.0);
    out.batch.returns.push_back(s.reward);
    out.batch.steps.push_back(std::move(s));
    if (result.episode_end) env.reset();
  }
  return out;
}

}  // namespace nptsn::testing
