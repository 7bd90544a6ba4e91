#include "core/soag.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace nptsn {

Soag::Soag(const PlanningProblem& problem, int k)
    : problem_(&problem),
      k_(k),
      connections_(problem.connections),
      can_transit_(static_cast<std::size_t>(problem.num_nodes()), 1) {
  NPTSN_EXPECT(k >= 1, "need at least one path action slot");
  for (NodeId v = 0; v < problem.num_end_stations; ++v) {
    can_transit_[static_cast<std::size_t>(v)] = 0;
  }
}

std::vector<Path> Soag::candidate_paths(const Topology& topology,
                                        const FailureScenario& failure, NodeId s,
                                        NodeId d) const {
  // Lines 2-4: Gc minus failed nodes, minus not-yet-planned switches, minus
  // failed links — as bans, so Gc itself is never copied.
  CsrSearch search(connections_);
  for (const NodeId v : failure.failed_switches) search.ban_node(v);
  for (const NodeId v : problem_->switch_ids()) {
    if (!topology.has_switch(v)) search.ban_node(v);
  }
  for (const auto& link : failure.failed_links) search.ban_edge(link.a, link.b);
  // Line 5.
  return search.k_shortest_paths(s, d, k_, &can_transit_);
}

int Soag::num_actions() const { return problem_->num_switches() + k_; }

ActionSpace Soag::generate(const Topology& topology, const FailureScenario& failure,
                           const ErrorSet& errors, Rng& rng) const {
  ActionSpace space;
  space.actions.reserve(static_cast<std::size_t>(num_actions()));
  space.mask.reserve(static_cast<std::size_t>(num_actions()));

  // --- switch upgrade actions (one slot per optional switch) ---------------
  // Survival-oriented pruning: every action must "potentially improve the
  // reliability" against the counterexample failure. Adding a new switch
  // always can (it enables future paths); RAISING a planned switch's level
  // only helps when that switch participates in the failure being resolved
  // (pushing the scenario's probability toward the safe-fault region), so
  // upgrades of uninvolved switches are pruned. ASIL-D masks stay zero.
  for (const NodeId v : problem_->switch_ids()) {
    Action action;
    action.kind = Action::Kind::kSwitchUpgrade;
    action.switch_id = v;
    bool valid = false;
    if (!topology.has_switch(v)) {
      valid = true;  // add at ASIL-A
    } else if (topology.switch_asil(v) != Asil::D) {
      valid = std::ranges::binary_search(failure.failed_switches, v);
    }
    space.actions.push_back(std::move(action));
    space.mask.push_back(valid ? 1 : 0);
  }

  // --- path addition actions (Algorithm 1) ---------------------------------
  std::vector<Path> paths;
  if (!errors.empty()) {
    // Line 1: one (s, d) pair, picked uniformly from the error message.
    const auto& [s, d] = rng.pick(errors);
    paths = candidate_paths(topology, failure, s, d);
  }

  for (int slot = 0; slot < k_; ++slot) {
    Action action;
    action.kind = Action::Kind::kAddPath;
    bool valid = false;
    if (slot < static_cast<int>(paths.size())) {
      action.path = paths[static_cast<std::size_t>(slot)];
      // Lines 6-12: disable paths that would violate the degree constraints.
      valid = topology.path_respects_degrees(action.path);
      // A path that adds no new link cannot change the topology; adding it
      // would produce a zero-reward no-op loop, so mask it out.
      if (valid) {
        bool adds_link = false;
        for (std::size_t i = 0; i + 1 < action.path.size(); ++i) {
          if (!topology.has_link(action.path[i], action.path[i + 1])) {
            adds_link = true;
            break;
          }
        }
        valid = adds_link;
      }
    }
    space.actions.push_back(std::move(action));
    space.mask.push_back(valid ? 1 : 0);
  }

  NPTSN_ASSERT(space.size() == num_actions(), "action arity must be static");
  return space;
}

}  // namespace nptsn
