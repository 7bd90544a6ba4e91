// Traced composition of plan(): the same session, rebuilt from the planner's
// public parts, with timing hooks at three layer boundaries the library
// already exposes:
//
//   - TracedEnv wraps each PlanningEnv (rl/env.hpp Environment) and times
//     step / observe / reset;
//   - TracedNbf wraps the StatelessNbf and forwards both recover() and
//     stage(), wrapping the staged NbfSession so the packed path stays on;
//   - the Trainer's on_epoch callback splits every epoch into rollout (epoch
//     start to the last environment call) and update (last environment call
//     to the callback: GAE plus ppo_update).
//
// No span lives inside src/. The composition must return byte-identical
// plans and certificates to plan() (tests/selftest.cpp pins it).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/planner.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

// Per-session layer totals. Times are seconds, counts are exact.
struct LayerTotals {
  double wall_s = 0.0;           // traced_plan() call
  double session_setup_s = 0.0;  // call start to Trainer::train()
  double rollout_s = 0.0;
  double update_s = 0.0;
  double env_step_s = 0.0;
  double step_verify_s = 0.0;  // analysis time spent inside step()
  double observe_s = 0.0;
  double reset_s = 0.0;
  std::int64_t env_steps = 0;
  std::int64_t observes = 0;
  std::int64_t episodes = 0;  // resets, i.e. episodes the trainer closed
  // Verification engine work, from the environments' public stats (includes
  // the analyses run by construction and reset).
  double verify_s = 0.0;
  std::int64_t nbf_calls = 0;
  std::int64_t nbf_executed = 0;
  std::int64_t memo_hits = 0;
  std::int64_t residual_reuses = 0;
  std::int64_t shared_hits = 0;
  // NBF decorator.
  double nbf_recover_s = 0.0;
  std::int64_t nbf_recovers = 0;
  double nbf_stage_s = 0.0;
  std::int64_t nbf_stages = 0;
  // Final certificate build and independent audit.
  double certificate_s = 0.0;
  double audit_s = 0.0;

  // Wall time no span covers.
  double unattributed_s() const;
  void add(const LayerTotals& other);
};

// Counters shared by a TracedNbf and the sessions it stages. Atomic because
// staged sessions may be called from several verification threads.
struct NbfCounters {
  std::atomic<std::int64_t> recover_ns{0};
  std::atomic<std::int64_t> recovers{0};
  std::atomic<std::int64_t> stage_ns{0};
  std::atomic<std::int64_t> stages{0};
};

class TracedNbf final : public nptsn::StatelessNbf {
 public:
  // `inner` and `counters` must outlive this NBF and every session it stages.
  TracedNbf(const nptsn::StatelessNbf& inner, NbfCounters& counters)
      : inner_(&inner), counters_(&counters) {}

  nptsn::NbfResult recover(const nptsn::Topology& topology,
                           const nptsn::FailureScenario& scenario) const override;
  std::unique_ptr<nptsn::NbfSession> stage(const nptsn::Topology& topology) const override;

 private:
  const nptsn::StatelessNbf* inner_;
  NbfCounters* counters_;
};

struct TracedResult {
  nptsn::PlanningResult result;
  LayerTotals layers;
};

// plan(problem, nbf, config), traced. Supports the configurations the
// benchmark runs: one rollout worker and no checkpoint file (the epoch split
// relies on a single worker's environment calls being the rollout).
TracedResult traced_plan(const nptsn::PlanningProblem& problem, const nptsn::StatelessNbf& nbf,
                         const nptsn::NptsnConfig& config);

}  // namespace e2e
