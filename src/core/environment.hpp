// The NPTSN RL environment (Fig. 2): holds the TSSDN under construction,
// applies SOAG actions, runs the failure analyzer after every step, rewards
// the negative cost delta (scaled), penalizes dead ends, and records every
// verified solution into a shared SolutionRecorder.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "analysis/failure_analyzer.hpp"
#include "analysis/verification_engine.hpp"
#include "core/config.hpp"
#include "core/observation_encoder.hpp"
#include "core/soag.hpp"
#include "rl/env.hpp"

namespace nptsn {

// Thread-safe best-solution tracker shared by all rollout workers.
class SolutionRecorder {
 public:
  // Keeps the topology if it beats the current best cost.
  void record(const Topology& topology);

  bool has_solution() const;
  double best_cost() const;  // +inf when empty
  std::optional<Topology> best() const;
  std::int64_t solutions_found() const;

  // Checkpoint persistence: reinstates a previously recorded best solution
  // and the found counter (the cost is recomputed from the topology).
  void restore(std::optional<Topology> best, std::int64_t found);

  // Certified planning: a solution the independent audit rejected. Rejected
  // solutions never enter the best tracker; the first few audit summaries
  // are kept for PlanningResult diagnostics. Derived diagnostic state only —
  // deliberately not checkpointed.
  void record_rejection(std::string summary);
  std::vector<std::string> rejection_summaries() const;

 private:
  mutable std::mutex mutex_;
  std::optional<Topology> best_;
  double best_cost_ = 0.0;
  std::int64_t found_ = 0;
  std::vector<std::string> rejection_summaries_;
};

class PlanningEnv final : public Environment {
 public:
  // All references must outlive the environment. `staging` optionally shares
  // the engine's per-problem constants across the session's workers (plan()
  // stages once and passes it to every env); null self-stages when the
  // verification engine is enabled.
  PlanningEnv(const PlanningProblem& problem, const StatelessNbf& nbf,
              const NptsnConfig& config, SolutionRecorder& recorder, Rng rng,
              std::shared_ptr<const EngineStaging> staging = nullptr);

  int num_actions() const override;
  Observation observe() const override;
  const std::vector<std::uint8_t>& action_mask() const override;
  StepResult step(int action) override;
  void reset() override;

  // Checkpoint/resume: the serialized state is the topology under
  // construction plus the RNG stream as it was *before* the last action
  // generation. load_snapshot re-runs the (deterministic) failure analysis
  // and SOAG from that point, reproducing the exact action space, mask, and
  // post-generation RNG position of the original process.
  bool snapshot_supported() const override { return true; }
  void save_snapshot(ByteWriter& out) const override;
  void load_snapshot(ByteReader& in) override;

  // Accessors for tests and instrumentation.
  const Topology& topology() const { return topology_; }
  // The current SOAG action space, the one observe() encodes.
  const ActionSpace& action_space() const { return actions_; }
  const AnalysisOutcome& last_analysis() const { return analysis_; }
  std::int64_t nbf_calls() const { return nbf_calls_; }
  // Cumulative verification work. verify_calls always equals nbf_calls();
  // the reuse fields are zero when config.use_verification_engine is off.
  // Engine caches and these counters are derived state: they never enter
  // snapshots, and analysis outcomes do not depend on cache warmth.
  Stats stats() const override { return stats_; }

 private:
  void analyze_and_generate();
  // Builds + audits a certificate for the current (analyzer-approved)
  // topology; false (with `why` set) means the solution must be rejected.
  bool audit_solution(std::string& why) const;

  const PlanningProblem* problem_;
  const StatelessNbf* nbf_;
  const NptsnConfig* config_;
  FailureAnalyzer analyzer_;
  std::unique_ptr<VerificationEngine> engine_;  // when the engine knob is on
  Soag soag_;
  ObservationEncoder encoder_;
  SolutionRecorder* recorder_;
  Rng rng_;

  Topology topology_;
  ActionSpace actions_;
  AnalysisOutcome analysis_;
  // Cleared while step() mutates the topology, set once analyze_and_generate
  // rebuilt the matching action space. A fault in between (NBF/scheduler
  // throwing mid-analysis) leaves the flag false, and every further
  // observe/step fails loudly until reset() — the trainer's quarantine path
  // relies on this: a half-mutated environment must never silently feed
  // stale masks into the rollout.
  bool consistent_ = false;
  std::int64_t nbf_calls_ = 0;
  Stats stats_;
  // State captured at the top of analyze_and_generate, i.e. before the SOAG
  // consumed any randomness for the current action space — the resume point
  // save_snapshot persists.
  Rng rng_before_generate_;
  std::int64_t nbf_calls_before_generate_ = 0;
};

}  // namespace nptsn
