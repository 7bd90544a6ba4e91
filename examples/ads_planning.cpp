// Plan the autonomous-driving-system (ADS) network — the paper's Section
// VI-B design scenario: 12 end stations (sensors, ECUs, actuators), up to 4
// switches, 12 safety-related TT flows, R = 1e-6.
//
// Prints the planned topology as an adjacency listing plus the per-switch
// ASIL allocation, and cross-checks the result with the failure analyzer.
#include <cstdio>
#include <string>

#include "analysis/failure_analyzer.hpp"
#include "core/planner.hpp"
#include "scenarios/ads.hpp"
#include "tsn/recovery.hpp"

namespace {

const char* station_name(nptsn::NodeId v) {
  using namespace nptsn;
  switch (v) {
    case kFrontCamera: return "front-camera";
    case kLidar: return "lidar";
    case kRadar: return "radar";
    case kGpsIns: return "gps-ins";
    case kV2xModem: return "v2x-modem";
    case kUltrasonic: return "ultrasonic";
    case kPerceptionEcu: return "perception-ecu";
    case kPlanningEcu: return "planning-ecu";
    case kControlEcu: return "control-ecu";
    case kActuatorEcu: return "actuator-ecu";
    case kHmiDisplay: return "hmi-display";
    case kGateway: return "gateway";
    default: return "switch";
  }
}

}  // namespace

int main() {
  using namespace nptsn;

  const Scenario scenario = make_ads();
  const PlanningProblem problem = with_flows(scenario, ads_flows());
  const HeuristicRecovery nbf;

  NptsnConfig config;
  config.epochs = 16;
  config.steps_per_epoch = 256;
  config.train_actor_iters = 15;
  config.train_critic_iters = 15;
  config.actor_lr = 1e-3;
  config.seed = 2024;

  std::printf("ADS scenario: %d stations, %d optional switches, %zu flows, R = %g\n",
              problem.num_end_stations, problem.num_switches(), problem.flows.size(),
              problem.reliability_goal);
  const PlanningResult result = plan(problem, nbf, config, [](const EpochStats& e) {
    if (e.epoch % 4 == 0) {
      std::printf("  epoch %3d: reward %+6.3f over %d episodes\n", e.epoch,
                  e.mean_episode_reward, e.episodes_finished);
    }
  });

  if (!result.feasible) {
    std::printf("no reliable network found\n");
    return 1;
  }
  const Topology& best = *result.best;
  std::printf("\nplanned network (cost %.1f, %lld candidates verified):\n",
              result.best_cost, static_cast<long long>(result.solutions_found));
  for (const NodeId v : best.selected_switches()) {
    std::string attached;
    for (const auto& [nb, len] : best.graph().neighbors(v)) {
      (void)len;
      // Appended piecewise: GCC 12 warns falsely (-Wrestrict) on
      // `"literal" + std::to_string(nb)`.
      attached += ' ';
      attached += station_name(nb);
      if (problem.is_switch(nb)) {
        attached += '#';
        attached += std::to_string(nb);
      }
    }
    std::printf("  switch %d (ASIL-%s, %d ports):%s\n", v,
                to_string(best.switch_asil(v)).c_str(), best.degree(v), attached.c_str());
  }

  // Independent verification: re-run the failure analyzer on the result.
  const auto outcome = FailureAnalyzer(nbf).analyze(best);
  std::printf("\nre-verified: %s (%lld NBF runs, %lld scenarios pruned)\n",
              outcome.reliable ? "RELIABLE" : "NOT RELIABLE",
              static_cast<long long>(outcome.nbf_calls),
              static_cast<long long>(outcome.scenarios_pruned));
  return outcome.reliable ? 0 : 1;
}
