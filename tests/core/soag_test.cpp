#include "core/soag.hpp"

#include <gtest/gtest.h>

#include <set>

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

TEST(Soag, RejectsNonPositiveK) {
  const auto p = tiny_problem();
  EXPECT_THROW(Soag(p, 0), std::invalid_argument);
}

}  // namespace
}  // namespace nptsn
