#include "tsn/recovery.hpp"

#include <algorithm>

#include "graph/yen.hpp"
#include "util/expect.hpp"

namespace nptsn {

HeuristicRecovery::HeuristicRecovery(int path_candidates, TtDiscipline discipline)
    : path_candidates_(path_candidates), discipline_(discipline) {
  NPTSN_EXPECT(path_candidates >= 1, "need at least one path candidate");
}

NbfResult HeuristicRecovery::recover(const Topology& topology,
                                     const FailureScenario& scenario) const {
  const PlanningProblem& problem = topology.problem();
  const Graph residual = topology.residual(scenario);

  // End stations terminate flows but never relay them.
  TransitFilter can_transit(static_cast<std::size_t>(problem.num_nodes()), 1);
  for (NodeId v = 0; v < problem.num_end_stations; ++v) {
    can_transit[static_cast<std::size_t>(v)] = 0;
  }

  SlotTable table(problem.tsn.slots_per_base);
  NbfResult result;
  result.state.resize(problem.flows.size());

  for (std::size_t i = 0; i < problem.flows.size(); ++i) {
    const FlowSpec& flow = problem.flows[i];
    const FlowTiming timing = FlowTiming::of(problem, flow);

    bool placed = false;
    // Cheap common case first: the single shortest path. Only fall back to
    // Yen's k-shortest enumeration when its schedule is infeasible.
    if (const auto sp = shortest_path(residual, flow.source, flow.destination, &can_transit)) {
      if (auto slots = schedule_on_path(table, *sp, timing, discipline_)) {
        result.state[i] = FlowAssignment{*sp, std::move(*slots)};
        placed = true;
      } else if (path_candidates_ > 1) {
        // The graph-copying reference Yen: this scalar path is the packed
        // session's ground truth, so it keeps an independent implementation.
        const auto candidates = k_shortest_paths_reference(
            residual, flow.source, flow.destination, path_candidates_, &can_transit);
        for (std::size_t c = 1; c < candidates.size() && !placed; ++c) {
          if (auto alt = schedule_on_path(table, candidates[c], timing, discipline_)) {
            result.state[i] = FlowAssignment{candidates[c], std::move(*alt)};
            placed = true;
          }
        }
      }
    }
    if (!placed) result.errors.emplace_back(flow.source, flow.destination);
  }

  std::ranges::sort(result.errors);
  result.errors.erase(std::unique(result.errors.begin(), result.errors.end()),
                      result.errors.end());
  return result;
}

}  // namespace nptsn
