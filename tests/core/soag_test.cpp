#include "core/soag.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/environment.hpp"
#include "graph/yen.hpp"
#include "scenarios/ads.hpp"
#include "scenarios/generator.hpp"
#include "scenarios/orion.hpp"
#include "scenarios/scenario.hpp"
#include "testing/test_problems.hpp"

namespace nptsn {
namespace {

using testing::dual_homed_topology;
using testing::tiny_problem;

ErrorSet all_pairs_errors() { return {{0, 1}, {1, 2}}; }

TEST(Soag, ActionArityIsStatic) {
  const auto p = tiny_problem();
  const Soag soag(p, /*k=*/4);
  EXPECT_EQ(soag.num_actions(), 3 + 4);  // |Vc_sw| + K

  Rng rng(1);
  const Topology t(p);
  const auto space = soag.generate(t, FailureScenario::none(), all_pairs_errors(), rng);
  EXPECT_EQ(space.size(), 7);
  EXPECT_EQ(space.mask.size(), 7u);
}

TEST(Soag, EmptyTopologyOffersOnlySwitchAdds) {
  // No switches planned yet: path actions cannot traverse anything (paths
  // may only use already-added switches), so only switch actions are valid.
  const auto p = tiny_problem();
  const Soag soag(p, 4);
  Rng rng(1);
  const Topology t(p);
  const auto space = soag.generate(t, FailureScenario::none(), all_pairs_errors(), rng);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(space.actions[static_cast<std::size_t>(i)].kind,
              Action::Kind::kSwitchUpgrade);
    EXPECT_EQ(space.mask[static_cast<std::size_t>(i)], 1);
  }
  for (int i = 3; i < 7; ++i) {
    EXPECT_EQ(space.actions[static_cast<std::size_t>(i)].kind, Action::Kind::kAddPath);
    EXPECT_EQ(space.mask[static_cast<std::size_t>(i)], 0);
  }
}

TEST(Soag, SwitchUpgradesTargetTheFailureOnly) {
  // Survival-oriented pruning: upgrading a planned switch is only offered
  // when that switch participates in the counterexample failure; adding an
  // absent switch is always offered.
  const auto p = tiny_problem();
  const Soag soag(p, 2);
  Rng rng(1);
  Topology t(p);
  t.add_switch(4);
  t.add_switch(5);
  const auto failure = FailureScenario::of_switches({4});
  const auto space = soag.generate(t, failure, all_pairs_errors(), rng);
  EXPECT_EQ(space.mask[0], 1);  // switch 4: failing, upgradable
  EXPECT_EQ(space.mask[1], 0);  // switch 5: planned but uninvolved
  EXPECT_EQ(space.mask[2], 1);  // switch 6: can always be added
}

TEST(Soag, SwitchUpgradeMaskedAtAsilD) {
  const auto p = tiny_problem();
  const Soag soag(p, 2);
  Rng rng(1);
  Topology t(p);
  t.add_switch(4);
  for (int i = 0; i < 3; ++i) t.upgrade_switch(4);  // now D
  const auto failure = FailureScenario::of_switches({4});
  const auto space = soag.generate(t, failure, all_pairs_errors(), rng);
  EXPECT_EQ(space.mask[0], 0);  // D cannot be upgraded even when failing
  EXPECT_EQ(space.mask[1], 1);  // absent switches still addable
  EXPECT_EQ(space.mask[2], 1);
}

TEST(Soag, PathActionsConnectAnErrorPair) {
  const auto p = tiny_problem();
  const Soag soag(p, 4);
  Rng rng(2);
  Topology t(p);
  t.add_switch(4);
  const ErrorSet errors = {{0, 2}};
  const auto space = soag.generate(t, FailureScenario::none(), errors, rng);
  bool found_valid_path = false;
  for (int i = 3; i < space.size(); ++i) {
    const auto& a = space.actions[static_cast<std::size_t>(i)];
    if (space.mask[static_cast<std::size_t>(i)]) {
      found_valid_path = true;
      EXPECT_EQ(a.path.front(), 0);
      EXPECT_EQ(a.path.back(), 2);
    }
  }
  EXPECT_TRUE(found_valid_path);
}

TEST(Soag, PathsOnlyTraversePlannedSwitches) {
  const auto p = tiny_problem();
  const Soag soag(p, 8);
  Rng rng(3);
  Topology t(p);
  t.add_switch(5);  // only switch 5 exists
  const ErrorSet errors = {{0, 3}};
  const auto space = soag.generate(t, FailureScenario::none(), errors, rng);
  for (int i = 3; i < space.size(); ++i) {
    const auto& path = space.actions[static_cast<std::size_t>(i)].path;
    for (const NodeId v : path) {
      if (p.is_switch(v)) {
        EXPECT_EQ(v, 5);
      }
    }
  }
}

TEST(Soag, FailedSwitchesExcludedFromPaths) {
  const auto p = tiny_problem();
  const Soag soag(p, 8);
  Rng rng(4);
  Topology t(p);
  t.add_switch(4);
  t.add_switch(5);
  FailureScenario failure = FailureScenario::of_switches({4});
  const auto space = soag.generate(t, failure, {{0, 1}}, rng);
  for (int i = 3; i < space.size(); ++i) {
    for (const NodeId v : space.actions[static_cast<std::size_t>(i)].path) {
      EXPECT_NE(v, 4) << "path traverses the failed switch";
    }
  }
}

TEST(Soag, FailedLinksExcludedFromPaths) {
  const auto p = tiny_problem();
  const Soag soag(p, 8);
  Rng rng(5);
  Topology t(p);
  t.add_switch(4);
  FailureScenario failure;
  failure.failed_links = {EdgeKey{0, 4}};
  const auto space = soag.generate(t, failure, {{0, 1}}, rng);
  for (int i = 3; i < space.size(); ++i) {
    const auto& path = space.actions[static_cast<std::size_t>(i)].path;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      EXPECT_FALSE(EdgeKey(path[h], path[h + 1]) == EdgeKey(0, 4));
    }
  }
}

TEST(Soag, DegreeViolatingPathsMasked) {
  const auto p = tiny_problem();
  const Soag soag(p, 8);
  Rng rng(6);
  Topology t(p);
  for (const NodeId s : {4, 5, 6}) t.add_switch(s);
  // Saturate station 0's two ports.
  t.add_link(0, 4);
  t.add_link(0, 5);
  const auto space = soag.generate(t, FailureScenario::none(), {{0, 3}}, rng);
  for (int i = 3; i < space.size(); ++i) {
    if (!space.mask[static_cast<std::size_t>(i)]) continue;
    // Any valid path must leave station 0 through an existing link.
    const auto& path = space.actions[static_cast<std::size_t>(i)].path;
    EXPECT_TRUE(path[1] == 4 || path[1] == 5);
  }
}

TEST(Soag, NoErrorsMeansNoPathActions) {
  const auto p = tiny_problem();
  const Soag soag(p, 4);
  Rng rng(7);
  Topology t(p);
  t.add_switch(4);
  const auto space = soag.generate(t, FailureScenario::none(), {}, rng);
  for (int i = 3; i < space.size(); ++i) {
    EXPECT_EQ(space.mask[static_cast<std::size_t>(i)], 0);
    EXPECT_TRUE(space.actions[static_cast<std::size_t>(i)].path.empty());
  }
}

TEST(Soag, RedundantPathsMaskedAsNoOps) {
  // Once the dual-homed net exists, re-adding one of its exact paths would
  // change nothing; such paths must be masked out.
  const auto p = tiny_problem();
  const auto t = dual_homed_topology(p);
  const Soag soag(p, 8);
  Rng rng(8);
  const auto space = soag.generate(t, FailureScenario::none(), {{0, 1}}, rng);
  for (int i = 3; i < space.size(); ++i) {
    if (!space.mask[static_cast<std::size_t>(i)]) continue;
    const auto& path = space.actions[static_cast<std::size_t>(i)].path;
    bool adds_new_link = false;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      if (!t.has_link(path[h], path[h + 1])) adds_new_link = true;
    }
    EXPECT_TRUE(adds_new_link);
  }
}

TEST(Soag, ErrorPairSelectionIsSeedDependent) {
  const auto p = tiny_problem();
  const Soag soag(p, 4);
  Topology t(p);
  for (const NodeId s : {4, 5, 6}) t.add_switch(s);
  const ErrorSet errors = {{0, 1}, {2, 3}};
  std::set<NodeId> sources_seen;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const auto space = soag.generate(t, FailureScenario::none(), errors, rng);
    for (int i = 3; i < space.size(); ++i) {
      const auto& path = space.actions[static_cast<std::size_t>(i)].path;
      if (!path.empty()) sources_seen.insert(path.front());
    }
  }
  // Over several seeds both error pairs get targeted (Alg. 1 line 1).
  EXPECT_EQ(sources_seen.size(), 2u);
}

// Soag::generate() as it was before Gc became a CSR view: Alg. 1 on a
// residual copy of Gc with the graph-copying reference Yen. The oracle for
// the ban-based generate().
ActionSpace reference_generate(const PlanningProblem& problem, int k,
                               const Topology& topology, const FailureScenario& failure,
                               const ErrorSet& errors, Rng& rng) {
  ActionSpace space;
  for (const NodeId v : problem.switch_ids()) {
    Action action;
    action.switch_id = v;
    bool valid = !topology.has_switch(v);
    if (!valid && topology.switch_asil(v) != Asil::D) {
      valid = std::ranges::binary_search(failure.failed_switches, v);
    }
    space.actions.push_back(std::move(action));
    space.mask.push_back(valid ? 1 : 0);
  }
  std::vector<Path> paths;
  if (!errors.empty()) {
    const auto& [s, d] = rng.pick(errors);
    Graph g = problem.connections;
    for (const NodeId v : failure.failed_switches) g.remove_node(v);
    for (const NodeId v : problem.switch_ids()) {
      if (!topology.has_switch(v)) g.remove_node(v);
    }
    for (const auto& link : failure.failed_links) g.remove_edge(link.a, link.b);
    TransitFilter can_transit(static_cast<std::size_t>(problem.num_nodes()), 1);
    for (NodeId v = 0; v < problem.num_end_stations; ++v) {
      can_transit[static_cast<std::size_t>(v)] = 0;
    }
    paths = k_shortest_paths_reference(g, s, d, k, &can_transit);
  }
  for (int slot = 0; slot < k; ++slot) {
    Action action;
    action.kind = Action::Kind::kAddPath;
    bool valid = false;
    if (slot < static_cast<int>(paths.size())) {
      action.path = paths[static_cast<std::size_t>(slot)];
      valid = topology.path_respects_degrees(action.path);
      bool adds_link = false;
      for (std::size_t i = 0; i + 1 < action.path.size(); ++i) {
        if (!topology.has_link(action.path[i], action.path[i + 1])) adds_link = true;
      }
      valid = valid && adds_link;
    }
    space.actions.push_back(std::move(action));
    space.mask.push_back(valid ? 1 : 0);
  }
  return space;
}

// Steps a PlanningEnv with random valid actions and, at every state with a
// counterexample, compares Soag::generate() with the reference under the same
// RNG — at the configured K and at K = 32. Returns the states compared.
int compare_along_rollout(const PlanningProblem& problem, int k, int steps,
                          std::uint64_t seed) {
  const HeuristicRecovery nbf;
  NptsnConfig config;
  config.path_actions = k;
  SolutionRecorder recorder;
  PlanningEnv env(problem, nbf, config, recorder, Rng(seed));
  const Soag soag(problem, k);
  const Soag soag32(problem, 32);
  Rng pick(seed + 1);
  int compared = 0;
  for (int step = 0; step < steps; ++step) {
    const AnalysisOutcome& analysis = env.last_analysis();
    if (!analysis.reliable && !analysis.errors.empty()) {
      for (const Soag* tested : {&soag, &soag32}) {
        SCOPED_TRACE("step " + std::to_string(step) + " K " + std::to_string(tested->k()));
        Rng a(seed * 1000 + static_cast<std::uint64_t>(step));
        Rng b = a;
        const ActionSpace got =
            tested->generate(env.topology(), analysis.counterexample, analysis.errors, a);
        const ActionSpace want = reference_generate(problem, tested->k(), env.topology(),
                                                    analysis.counterexample,
                                                    analysis.errors, b);
        EXPECT_EQ(a.state(), b.state());
        EXPECT_EQ(got.mask, want.mask);
        EXPECT_EQ(got.actions.size(), want.actions.size());
        for (std::size_t i = 0; i < got.actions.size() && i < want.actions.size(); ++i) {
          EXPECT_EQ(got.actions[i].kind, want.actions[i].kind) << "slot " << i;
          EXPECT_EQ(got.actions[i].switch_id, want.actions[i].switch_id) << "slot " << i;
          EXPECT_EQ(got.actions[i].path, want.actions[i].path) << "slot " << i;
        }
      }
      ++compared;
    }
    std::vector<int> valid;
    const auto& mask = env.action_mask();
    for (int i = 0; i < static_cast<int>(mask.size()); ++i) {
      if (mask[static_cast<std::size_t>(i)] != 0) valid.push_back(i);
    }
    if (valid.empty() || env.step(pick.pick(valid)).episode_end) env.reset();
  }
  return compared;
}

TEST(Soag, MatchesReferenceYenOverCopiedResidualAlongRollouts) {
  const Scenario orion = make_orion();
  Rng flow_rng(7);
  const PlanningProblem orion_problem =
      with_flows(orion, random_flows(orion.problem, 6, flow_rng));
  EXPECT_GT(compare_along_rollout(orion_problem, 8, 120, 1), 40);

  const PlanningProblem ads_problem = with_flows(make_ads(), ads_flows());
  EXPECT_GT(compare_along_rollout(ads_problem, 16, 120, 2), 40);

  for (std::uint64_t seed = 3; seed <= 4; ++seed) {
    GeneratorParams params;
    params.zones = 3;
    params.flow_count = 6;
    EXPECT_GT(compare_along_rollout(generate(params, seed), 8, 80, seed), 20);
  }
}

TEST(Soag, RejectsOutOfRangeFailureIds) {
  const auto p = tiny_problem();
  const Soag soag(p, 4);
  Topology t(p);
  t.add_switch(4);
  Rng rng(1);
  EXPECT_THROW(soag.generate(t, FailureScenario::of_switches({99}), {{0, 1}}, rng),
               std::invalid_argument);
  FailureScenario bad_link;
  bad_link.failed_links = {EdgeKey{0, 42}};
  EXPECT_THROW(soag.generate(t, bad_link, {{0, 1}}, rng), std::invalid_argument);
  EXPECT_THROW(soag.generate(t, FailureScenario::none(), {{0, 17}}, rng),
               std::invalid_argument);
}

TEST(Soag, RejectsNonPositiveK) {
  const auto p = tiny_problem();
  EXPECT_THROW(Soag(p, 0), std::invalid_argument);
}

}  // namespace
}  // namespace nptsn
