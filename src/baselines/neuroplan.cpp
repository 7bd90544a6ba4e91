#include "baselines/neuroplan.hpp"

#include "core/planner.hpp"
#include "util/expect.hpp"

namespace nptsn {

NeuroPlanEnv::NeuroPlanEnv(const PlanningProblem& problem, const StatelessNbf& nbf,
                           const NptsnConfig& config, SolutionRecorder& recorder)
    : problem_(&problem),
      config_(&config),
      analyzer_(nbf,
                [&config] {
                  FailureAnalyzer::Options options;
                  options.min_order = config.min_frontier_order;
                  options.include_links = config.frontier_include_links;
                  options.deadline = config.deadline.get();
                  return options;
                }()),
      encoder_(problem, /*k=*/1),
      recorder_(&recorder),
      links_(problem.connections.edges()),
      topology_(problem) {
  problem.validate();
  if (config.use_verification_engine) {
    VerificationEngine::Options options;
    options.min_order = config.min_frontier_order;
    options.include_links = config.frontier_include_links;
    options.deadline = config.deadline.get();
    engine_ = std::make_unique<VerificationEngine>(nbf, options);
  }
  // The encoder's dynamic-action block stays empty: NeuroPlan's actions are
  // static, so the state alone describes them (its original design).
  dummy_actions_.actions.resize(static_cast<std::size_t>(problem.num_switches()) + 1);
  dummy_actions_.actions.back().kind = Action::Kind::kAddPath;
  dummy_actions_.mask.assign(dummy_actions_.actions.size(), 0);
  refresh_mask();
}

int NeuroPlanEnv::num_actions() const {
  return static_cast<int>(links_.size()) + problem_->num_switches();
}

Observation NeuroPlanEnv::observe() const {
  return encoder_.encode(topology_, dummy_actions_);
}

const std::vector<std::uint8_t>& NeuroPlanEnv::action_mask() const { return mask_; }

bool NeuroPlanEnv::link_addable(const Edge& edge) const {
  if (topology_.has_link(edge.u, edge.v)) return false;
  for (const NodeId v : {edge.u, edge.v}) {
    const int max_degree = problem_->is_switch(v) ? problem_->max_switch_degree()
                                                  : problem_->max_es_degree;
    if (topology_.degree(v) + 1 > max_degree) return false;
  }
  return true;
}

void NeuroPlanEnv::refresh_mask() {
  mask_.assign(static_cast<std::size_t>(num_actions()), 0);
  for (std::size_t e = 0; e < links_.size(); ++e) {
    if (link_addable(links_[e])) mask_[e] = 1;
  }
  const auto switches = problem_->switch_ids();
  for (std::size_t s = 0; s < switches.size(); ++s) {
    const NodeId v = switches[s];
    if (topology_.has_switch(v) && topology_.switch_asil(v) != Asil::D) {
      mask_[links_.size() + s] = 1;
    }
  }
}

NeuroPlanEnv::StepResult NeuroPlanEnv::step(int action) {
  NPTSN_EXPECT(action >= 0 && action < num_actions(), "action index out of range");
  NPTSN_EXPECT(mask_[static_cast<std::size_t>(action)] != 0, "selected a masked action");

  const double cost_before = topology_.cost();
  if (action < static_cast<int>(links_.size())) {
    const Edge& edge = links_[static_cast<std::size_t>(action)];
    for (const NodeId v : {edge.u, edge.v}) {
      if (problem_->is_switch(v) && !topology_.has_switch(v)) topology_.add_switch(v);
    }
    topology_.add_link(edge.u, edge.v);
  } else {
    const NodeId v =
        problem_->switch_ids()[static_cast<std::size_t>(action) - links_.size()];
    topology_.upgrade_switch(v);
  }
  ++episode_steps_;

  StepResult result;
  result.reward = (cost_before - topology_.cost()) / config_->reward_scale;

  const AnalysisOutcome analysis = analyze();
  refresh_mask();
  if (analysis.reliable) {
    recorder_->record(topology_);
    result.episode_end = true;
    return result;
  }
  bool stuck = true;
  for (const auto m : mask_) {
    if (m) {
      stuck = false;
      break;
    }
  }
  if (stuck || episode_steps_ >= kMaxEpisodeSteps) {
    result.reward -= 1.0;  // same dead-end penalty as NPTSN
    result.episode_end = true;
  }
  return result;
}

AnalysisOutcome NeuroPlanEnv::analyze() {
  AnalysisOutcome outcome =
      engine_ ? engine_->analyze(topology_) : analyzer_.analyze(topology_);
  stats_.verify_calls += outcome.nbf_calls;
  stats_.verify_executed += outcome.nbf_executed;
  stats_.verify_memo_hits += outcome.memo_hits;
  stats_.verify_residual_reuses += outcome.residual_reuses;
  stats_.verify_seconds += outcome.wall_seconds;
  return outcome;
}

void NeuroPlanEnv::reset() {
  topology_ = Topology(*problem_);
  episode_steps_ = 0;
  refresh_mask();
}

NeuroPlanResult run_neuroplan(const PlanningProblem& problem, const StatelessNbf& nbf,
                              const NptsnConfig& config,
                              const Trainer::EpochCallback& on_epoch) {
  problem.validate();

  SolutionRecorder recorder;
  const ObservationEncoder encoder(problem, /*k=*/1);
  const int num_actions =
      problem.connections.num_edges() + problem.num_switches();

  ActorCritic::Config net_config;
  net_config.num_nodes = problem.num_nodes();
  net_config.feature_dim = encoder.feature_dim();
  net_config.param_dim = encoder.param_dim();
  net_config.num_actions = num_actions;
  net_config.gcn_layers = config.gcn_layers;
  net_config.embedding_dim = config.embedding_dim;
  net_config.actor_hidden = config.mlp_hidden;
  net_config.critic_hidden = config.mlp_hidden;

  Rng rng(config.seed);
  ActorCritic net(net_config, rng);

  const TrainerConfig trainer_config = prepare_training(config, rng.next_u64());

  Trainer trainer(
      net,
      [&] { return std::make_unique<NeuroPlanEnv>(problem, nbf, config, recorder); },
      trainer_config);

  NeuroPlanResult result;
  result.history = trainer.train(on_epoch);
  result.feasible = recorder.has_solution();
  result.best = recorder.best();
  result.best_cost = recorder.best_cost();
  result.solutions_found = recorder.solutions_found();
  return result;
}

}  // namespace nptsn
