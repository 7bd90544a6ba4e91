#include "core/environment.hpp"

#include <limits>

#include "analysis/auditor.hpp"
#include "util/expect.hpp"

namespace nptsn {

void SolutionRecorder::record(const Topology& topology) {
  const double cost = topology.cost();
  std::lock_guard lock(mutex_);
  ++found_;
  if (!best_ || cost < best_cost_) {
    best_ = topology;
    best_cost_ = cost;
  }
}

bool SolutionRecorder::has_solution() const {
  std::lock_guard lock(mutex_);
  return best_.has_value();
}

double SolutionRecorder::best_cost() const {
  std::lock_guard lock(mutex_);
  return best_ ? best_cost_ : std::numeric_limits<double>::infinity();
}

std::optional<Topology> SolutionRecorder::best() const {
  std::lock_guard lock(mutex_);
  return best_;
}

std::int64_t SolutionRecorder::solutions_found() const {
  std::lock_guard lock(mutex_);
  return found_;
}

void SolutionRecorder::restore(std::optional<Topology> best, std::int64_t found) {
  NPTSN_EXPECT(found >= 0, "solutions-found counter must be non-negative");
  NPTSN_EXPECT(!best || found > 0, "a restored best solution implies found > 0");
  std::lock_guard lock(mutex_);
  best_ = std::move(best);
  best_cost_ = best_ ? best_->cost() : 0.0;
  found_ = found;
}

void SolutionRecorder::record_rejection(std::string summary) {
  std::lock_guard lock(mutex_);
  if (rejection_summaries_.size() < 8) {
    rejection_summaries_.push_back(std::move(summary));
  }
}

std::vector<std::string> SolutionRecorder::rejection_summaries() const {
  std::lock_guard lock(mutex_);
  return rejection_summaries_;
}

PlanningEnv::PlanningEnv(const PlanningProblem& problem, const StatelessNbf& nbf,
                         const NptsnConfig& config, SolutionRecorder& recorder, Rng rng,
                         std::shared_ptr<const EngineStaging> staging)
    : problem_(&problem),
      nbf_(&nbf),
      config_(&config),
      analyzer_(nbf,
                [&config] {
                  FailureAnalyzer::Options options;
                  options.min_order = config.min_frontier_order;
                  options.include_links = config.frontier_include_links;
                  options.deadline = config.deadline.get();
                  return options;
                }()),
      soag_(problem, config.path_actions),
      encoder_(problem, config.path_actions),
      recorder_(&recorder),
      rng_(rng),
      topology_(problem) {
  problem.validate();
  if (config.use_verification_engine) {
    VerificationEngine::Options options;
    options.min_order = config.min_frontier_order;
    options.include_links = config.frontier_include_links;
    options.deadline = config.deadline.get();
    // Per-problem constants: staged once by the caller when provided (one
    // staging serves every worker env of a session — and, through the
    // service, every session on an already-seen problem), self-staged here
    // otherwise. The shared cache requires the staged problem fingerprint.
    options.staging = staging ? std::move(staging) : make_engine_staging(problem);
    options.shared_cache = config.engine_shared_cache;
    options.cache_salt = config.cache_salt;
    engine_ = std::make_unique<VerificationEngine>(nbf, options);
  }
  analyze_and_generate();
}

int PlanningEnv::num_actions() const { return soag_.num_actions(); }

Observation PlanningEnv::observe() const {
  NPTSN_EXPECT(consistent_, "environment is inconsistent after a mid-step fault; reset() first");
  return encoder_.encode(topology_, actions_);
}

const std::vector<std::uint8_t>& PlanningEnv::action_mask() const {
  NPTSN_EXPECT(consistent_, "environment is inconsistent after a mid-step fault; reset() first");
  return actions_.mask;
}

void PlanningEnv::analyze_and_generate() {
  // Capture the resume point: re-running this function from here with the
  // same topology reproduces the action space and the RNG stream exactly.
  rng_before_generate_ = rng_;
  nbf_calls_before_generate_ = nbf_calls_;

  analysis_ = engine_ ? engine_->analyze(topology_) : analyzer_.analyze(topology_);
  nbf_calls_ += analysis_.nbf_calls;
  stats_.verify_calls += analysis_.nbf_calls;
  stats_.verify_executed += analysis_.nbf_executed;
  stats_.verify_memo_hits += analysis_.memo_hits;
  stats_.verify_residual_reuses += analysis_.residual_reuses;
  stats_.verify_shared_hits += analysis_.shared_hits;
  stats_.verify_seconds += analysis_.wall_seconds;
  if (analysis_.reliable) {
    actions_ = ActionSpace{};  // regenerated on reset
    actions_.actions.resize(static_cast<std::size_t>(num_actions()));
    actions_.mask.assign(static_cast<std::size_t>(num_actions()), 0);
  } else {
    actions_ = soag_.generate(topology_, analysis_.counterexample, analysis_.errors, rng_);
  }
  consistent_ = true;
}

PlanningEnv::StepResult PlanningEnv::step(int action) {
  NPTSN_EXPECT(consistent_, "environment is inconsistent after a mid-step fault; reset() first");
  NPTSN_EXPECT(action >= 0 && action < num_actions(), "action index out of range");
  NPTSN_EXPECT(actions_.mask[static_cast<std::size_t>(action)] != 0,
               "selected a masked action");

  // From here to the end of analyze_and_generate() the topology and the
  // action space disagree; the latch stays down if anything in between
  // throws, so a quarantined environment cannot be stepped without a reset.
  consistent_ = false;
  const double cost_before = topology_.cost();
  const Action& chosen = actions_.actions[static_cast<std::size_t>(action)];
  switch (chosen.kind) {
    case Action::Kind::kSwitchUpgrade:
      if (topology_.has_switch(chosen.switch_id)) {
        topology_.upgrade_switch(chosen.switch_id);
      } else {
        topology_.add_switch(chosen.switch_id);
      }
      break;
    case Action::Kind::kAddPath:
      topology_.add_path(chosen.path);
      break;
  }

  StepResult result;
  // Reward: previous cost minus new cost (always <= 0 under monotone
  // construction), scaled into [-1, 0) by the reward scaling factor.
  result.reward = (cost_before - topology_.cost()) / config_->reward_scale;

  analyze_and_generate();
  if (analysis_.reliable) {
    // Certified planning: in every_solution mode the analyzer's verdict is
    // not enough — the solution must also survive an independent audit of
    // its freshly built reliability certificate before it may be recorded.
    // A rejection is a diagnostic, not a crash: the episode still ends (the
    // analyzer generates no repair actions for a "reliable" topology) and
    // training continues. Audits consume no environment randomness and do
    // not alter rewards, so honest runs are bit-identical across modes.
    bool accept = true;
    if (config_->audit_mode == AuditMode::kEverySolution) {
      ++stats_.audits_run;
      std::string why;
      accept = audit_solution(why);
      if (!accept) {
        ++stats_.audits_rejected;
        recorder_->record_rejection(std::move(why));
      }
    }
    if (accept) recorder_->record(topology_);
    result.episode_end = true;
  } else if (!actions_.any_valid()) {
    // Dead end: no valid action can repair the network. Extra -1 penalty.
    result.reward -= 1.0;
    result.episode_end = true;
  }
  return result;
}

bool PlanningEnv::audit_solution(std::string& why) const {
  CertificateOptions cert_options;
  cert_options.min_order = config_->min_frontier_order;
  cert_options.include_links = config_->frontier_include_links;
  cert_options.deadline = config_->deadline.get();
  const CertificateBuildResult built = build_certificate(topology_, *nbf_, cert_options);
  if (!built.ok) {
    why = "certificate build failed: NBF could not prove a non-safe scenario (" +
          std::to_string(built.counterexample.failed_switches.size()) +
          " failed switches, " + std::to_string(built.errors.size()) +
          " unrecovered flows)";
    return false;
  }
  AuditOptions audit_options;
  audit_options.deadline = config_->deadline.get();
  const AuditReport report = audit_certificate(*problem_, built.certificate, audit_options);
  if (!report.ok) {
    why = report.summary();
    return false;
  }
  return true;
}

void PlanningEnv::reset() {
  consistent_ = false;
  topology_ = Topology(*problem_);
  analyze_and_generate();
}

void PlanningEnv::save_snapshot(ByteWriter& out) const {
  save_topology(topology_, out);
  for (const std::uint64_t word : rng_before_generate_.state()) out.u64(word);
  out.i64(nbf_calls_before_generate_);
}

void PlanningEnv::load_snapshot(ByteReader& in) {
  consistent_ = false;
  topology_ = load_topology(*problem_, in);
  Rng::State state;
  for (std::uint64_t& word : state) word = in.u64();
  try {
    rng_.set_state(state);
  } catch (const std::invalid_argument& e) {
    throw CheckpointError(e.what());
  }
  nbf_calls_ = in.i64();
  // Replays the analysis + SOAG generation the original process ran from
  // this exact (topology, rng) point: deterministic, so the restored action
  // space and post-generation RNG match the original bit for bit.
  analyze_and_generate();
}

}  // namespace nptsn
