// Self-tests of the benchmark's traced composition:
//   - traced_plan() returns the same plan, certificate and training history
//     as plan(), bit for bit, on a tiny generated instance — plain, and in
//     the service's session shape (deadline token + shared stores);
//   - span accounting closes: the spans cover the traced wall time up to a
//     small unattributed remainder, and the counts agree with plan()'s.
// Exit code 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "analysis/engine_cache.hpp"
#include "nn/stage_cache.hpp"
#include "runner/trace.hpp"
#include "scenarios/generator.hpp"
#include "tsn/recovery.hpp"

namespace {

using namespace nptsn;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::vector<std::uint8_t> topology_bytes(const PlanningResult& result) {
  ByteWriter out;
  if (result.best) save_topology(*result.best, out);
  return out.data();
}

std::vector<std::uint8_t> certificate_bytes(const PlanningResult& result) {
  ByteWriter out;
  if (result.certificate) save_certificate(*result.certificate, out);
  return out.data();
}

PlanningProblem tiny_problem() {
  GeneratorParams params;
  params.zones = 2;
  params.stations_per_zone = 2;
  params.switches_per_zone = 1;
  params.backbone_switches = 1;
  params.flow_count = 3;
  return generate(params, 7);
}

NptsnConfig tiny_config() {
  NptsnConfig config;
  config.epochs = 3;
  config.steps_per_epoch = 64;
  config.mlp_hidden = {16};
  config.gcn_layers = 1;
  config.path_actions = 4;
  config.train_actor_iters = 2;
  config.train_critic_iters = 2;
  config.actor_lr = 1e-3;
  config.seed = 5;
  config.audit_mode = AuditMode::kFinal;
  return config;
}

void compare(const std::string& name, const PlanningProblem& problem,
             const NptsnConfig& plain_config, const NptsnConfig& traced_config) {
  const HeuristicRecovery nbf;
  const PlanningResult expected = plan(problem, nbf, plain_config);
  const e2e::TracedResult traced = e2e::traced_plan(problem, nbf, traced_config);
  const PlanningResult& got = traced.result;

  check(expected.feasible && expected.certificate.has_value(),
        name + ": the instance certifies (so the comparison has bytes to compare)");
  check(got.feasible == expected.feasible, name + ": feasible matches");
  check(same_bits(got.best_cost, expected.best_cost), name + ": cost matches bit for bit");
  check(topology_bytes(got) == topology_bytes(expected), name + ": topology bytes match");
  check(certificate_bytes(got) == certificate_bytes(expected),
        name + ": certificate bytes match");
  check(got.solutions_found == expected.solutions_found, name + ": solutions_found matches");
  bool history = got.history.size() == expected.history.size();
  std::int64_t steps = 0;
  for (std::size_t e = 0; history && e < got.history.size(); ++e) {
    const EpochStats& a = got.history[e];
    const EpochStats& b = expected.history[e];
    history = a.steps == b.steps && a.verify_nbf_calls == b.verify_nbf_calls &&
              a.episodes_finished == b.episodes_finished &&
              same_bits(a.mean_episode_reward, b.mean_episode_reward) &&
              same_bits(a.actor_loss, b.actor_loss) && same_bits(a.critic_loss, b.critic_loss);
    steps += a.steps;
  }
  check(history, name + ": training history matches bit for bit");

  const e2e::LayerTotals& t = traced.layers;
  check(t.env_steps == steps, name + ": traced env steps equal plan()'s epoch steps");
  check(t.episodes >= 1 && t.observes >= t.env_steps, name + ": episodes and observes counted");
  check(t.nbf_recovers >= 1 && t.nbf_stages >= 1, name + ": NBF recover and stage calls traced");
  check(t.nbf_calls >= t.nbf_executed, name + ": executed NBF calls never exceed logical calls");
  check(t.rollout_s > 0.0 && t.update_s > 0.0 && t.certificate_s > 0.0 && t.audit_s > 0.0,
        name + ": every span recorded time");
  check(t.env_step_s + t.observe_s + t.reset_s <= t.rollout_s,
        name + ": environment calls lie inside the rollout spans");
  const double unattributed = t.unattributed_s();
  std::printf("     wall %.4f s, unattributed %.6f s (%.2f%%)\n", t.wall_s, unattributed,
              100.0 * unattributed / t.wall_s);
  check(unattributed >= 0.0 && unattributed < 0.05 * t.wall_s,
        name + ": span accounting closes (unattributed < 5% of wall)");
}

}  // namespace

int main() {
  const PlanningProblem problem = tiny_problem();
  compare("plan", problem, tiny_config(), tiny_config());

  // Service session shape: an unlimited deadline token and shared stores.
  // Each side gets its own fresh stores, so both start equally cold.
  auto service_config = [] {
    NptsnConfig config = tiny_config();
    config.deadline = Deadline::after(0.0);
    config.engine_shared_cache = std::make_shared<EngineSharedCache>();
    config.stage_cache = std::make_shared<AdjacencyStageCache>();
    return config;
  };
  compare("service-shape", problem, service_config(), service_config());

  std::printf("%s\n", failures == 0 ? "all self-tests passed" : "SELF-TESTS FAILED");
  return failures == 0 ? 0 : 1;
}
