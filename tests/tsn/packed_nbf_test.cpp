// Differential tests for the packed TSN fast path (DESIGN.md §16):
// the packed NBF session must be BYTE-identical to the scalar
// HeuristicRecovery ground truth — same paths, same slots, same error sets —
// for every scenario shape (switch-only, link-only, mixed, higher-order),
// both disciplines, and every path-candidate budget; and each SWAR kernel
// must agree bit-for-bit with its frozen reference member on random inputs.
#include "tsn/packed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "testing/test_problems.hpp"
#include "tsn/sim_kernels.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

using testing::dual_homed_topology;
using testing::star_topology;
using testing::tiny_problem;

// Restores the process-global kernel selection on scope exit so a failing
// test cannot leak kReference into unrelated suites.
class KernelGuard {
 public:
  explicit KernelGuard(TsnKernel kernel) : saved_(tsn_kernel()) { set_tsn_kernel(kernel); }
  ~KernelGuard() { set_tsn_kernel(saved_); }

 private:
  TsnKernel saved_;
};

void expect_identical(const NbfResult& a, const NbfResult& b, const std::string& context) {
  EXPECT_EQ(a.errors, b.errors) << context;
  ASSERT_EQ(a.state.size(), b.state.size()) << context;
  for (std::size_t i = 0; i < a.state.size(); ++i) {
    ASSERT_EQ(a.state[i].has_value(), b.state[i].has_value())
        << context << " flow " << i;
    if (a.state[i]) {
      EXPECT_EQ(a.state[i]->path, b.state[i]->path) << context << " flow " << i;
      EXPECT_EQ(a.state[i]->slots, b.state[i]->slots) << context << " flow " << i;
    }
  }
}

// Every failure scenario of order <= 2 over the given switches and links
// (the exact shapes the mixed frontier enumerates).
std::vector<FailureScenario> scenarios_up_to_order_two(const std::vector<NodeId>& switches,
                                                       const std::vector<EdgeKey>& links) {
  std::vector<FailureScenario> scenarios;
  scenarios.push_back(FailureScenario::none());
  for (const NodeId s : switches) scenarios.push_back(FailureScenario::of_switches({s}));
  for (const EdgeKey& l : links) {
    FailureScenario scenario;
    scenario.failed_links = {l};
    scenarios.push_back(scenario);
  }
  for (std::size_t i = 0; i < switches.size(); ++i) {
    for (std::size_t j = i + 1; j < switches.size(); ++j) {
      scenarios.push_back(FailureScenario::of_switches({switches[i], switches[j]}));
    }
  }
  for (const NodeId s : switches) {
    for (const EdgeKey& l : links) {
      FailureScenario scenario;
      scenario.failed_switches = {s};
      scenario.failed_links = {l};
      scenarios.push_back(scenario);
    }
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      FailureScenario scenario;
      scenario.failed_links = {links[i], links[j]};
      scenarios.push_back(scenario);
    }
  }
  return scenarios;
}

// The same over the topology's selected switches and present optional links.
std::vector<FailureScenario> scenarios_up_to_order_two(const PlanningProblem& problem,
                                                       const Topology& topology) {
  std::vector<EdgeKey> links;
  for (const Edge& e : problem.connections.edges()) {
    if (topology.has_link(e.u, e.v)) {
      links.push_back(EdgeKey{std::min(e.u, e.v), std::max(e.u, e.v)});
    }
  }
  return scenarios_up_to_order_two(topology.selected_switches(), links);
}

// A ladder of two switch rails, a_i = 6 + i and b_i = 6 + kRungs + i, with a
// rung a_i - b_i at every i: 6 + 2 * 520 = 1046 nodes, past 1024. End
// station e is dual-homed to rung kStations[e]. Five flows 0 -> 1 share the
// rails between rungs 0 and 3: four fit the 8-slot table on the shortest
// path, the fifth needs the Yen fallback. Flow 4 -> 5 moves to rail b, ids
// past 1024, when a scenario cuts rail a near rung 516.
constexpr int kRungs = 520;
constexpr int kStations[] = {0, 3, 260, 263, 515, 518};

NodeId rail_a(int rung) { return 6 + rung; }
NodeId rail_b(int rung) { return 6 + kRungs + rung; }

PlanningProblem ladder_problem() {
  PlanningProblem problem;
  problem.num_end_stations = 6;
  Graph g(6 + 2 * kRungs);
  for (int i = 0; i < kRungs; ++i) {
    g.add_edge(rail_a(i), rail_b(i), 1.0);
    if (i + 1 < kRungs) {
      g.add_edge(rail_a(i), rail_a(i + 1), 1.0);
      g.add_edge(rail_b(i), rail_b(i + 1), 1.0);
    }
  }
  for (NodeId e = 0; e < 6; ++e) {
    g.add_edge(e, rail_a(kStations[e]), 1.0);
    g.add_edge(e, rail_b(kStations[e]), 1.0);
  }
  problem.connections = std::move(g);
  problem.tsn.base_period_us = 500.0;
  problem.tsn.slots_per_base = 8;
  const auto flow = [](NodeId source, NodeId destination) {
    FlowSpec f;
    f.source = source;
    f.destination = destination;
    f.period_us = 500.0;
    f.deadline_us = 500.0;
    f.frame_bytes = 1500;
    return f;
  };
  for (int i = 0; i < 5; ++i) problem.flows.push_back(flow(0, 1));
  problem.flows.push_back(flow(2, 3));
  problem.flows.push_back(flow(4, 5));
  return problem;
}

// Gt = Gc: every switch planned, every link present.
Topology ladder_topology(const PlanningProblem& problem) {
  Topology t(problem);
  for (const NodeId s : problem.switch_ids()) t.add_switch(s);
  for (const Edge& e : problem.connections.edges()) t.add_link(e.u, e.v);
  return t;
}

EdgeKey link(NodeId u, NodeId v) { return EdgeKey{std::min(u, v), std::max(u, v)}; }

TEST(PackedNbf, ByteIdenticalToScalarAcrossScenarioShapes) {
  for (const int flows : {1, 3, 4}) {
    const auto problem = tiny_problem(flows);
    const Topology topologies[] = {dual_homed_topology(problem), star_topology(problem)};
    for (const Topology& t : topologies) {
      for (const TtDiscipline discipline :
           {TtDiscipline::kNoWait, TtDiscipline::kStoreAndForward}) {
        for (const int candidates : {1, 3}) {
          const HeuristicRecovery nbf(candidates, discipline);
          const auto session = nbf.stage(t);
          ASSERT_NE(session, nullptr) << "tiny instances are inside the packed envelope";
          for (const auto& scenario : scenarios_up_to_order_two(problem, t)) {
            const std::string context =
                "flows " + std::to_string(flows) + " candidates " +
                std::to_string(candidates) + " scenario order " +
                std::to_string(scenario.order());
            expect_identical(session->recover(scenario), nbf.recover(t, scenario),
                             context);
          }
        }
      }
    }
  }

  // More than 1024 nodes: staged like any other instance. Switch, link and
  // mixed scenarios around each flow's rungs, ids past 1024 included.
  const auto problem = ladder_problem();
  const Topology t = ladder_topology(problem);
  const std::vector<NodeId> switches = {rail_a(1), rail_b(2), rail_a(261), rail_b(516)};
  const std::vector<EdgeKey> links = {link(0, rail_a(0)), link(rail_a(1), rail_b(1)),
                                      link(rail_b(2), rail_b(3)),
                                      link(rail_a(516), rail_a(517))};
  const auto scenarios = scenarios_up_to_order_two(switches, links);
  for (const TtDiscipline discipline : {TtDiscipline::kNoWait, TtDiscipline::kStoreAndForward}) {
    for (const int candidates : {1, 3}) {
      const HeuristicRecovery nbf(candidates, discipline);
      const auto session = nbf.stage(t);
      ASSERT_NE(session, nullptr) << "the packed envelope has no node bound";
      for (const auto& scenario : scenarios) {
        expect_identical(session->recover(scenario), nbf.recover(t, scenario),
                         "ladder, candidates " + std::to_string(candidates) +
                             " scenario order " + std::to_string(scenario.order()));
      }
    }
  }
}

TEST(PackedNbf, ByteIdenticalUnderTightSlotTables) {
  // 2-slot base period: capacity exhaustion and the Yen alternative-path
  // fallback both fire; the packed path must reproduce them exactly.
  auto problem = tiny_problem(2);
  problem.tsn.slots_per_base = 2;
  for (auto& f : problem.flows) f = {0, 1, 500.0, 64, 500.0};
  const auto t = dual_homed_topology(problem);
  for (const int candidates : {1, 3}) {
    const HeuristicRecovery nbf(candidates);
    const auto session = nbf.stage(t);
    ASSERT_NE(session, nullptr);
    for (const auto& scenario : scenarios_up_to_order_two(problem, t)) {
      expect_identical(session->recover(scenario), nbf.recover(t, scenario),
                       "tight table, candidates " + std::to_string(candidates));
    }
  }
}

TEST(PackedNbf, ConcurrentRecoverCallsMatchTheScalarPath) {
  // One session shared by four threads, each drawing its own pooled scratch
  // (bans, Dijkstra and Yen state, slot rows). The tight table makes the
  // shared CSR Yen fallback fire.
  auto problem = tiny_problem(2);
  problem.tsn.slots_per_base = 2;
  for (auto& f : problem.flows) f = {0, 1, 500.0, 64, 500.0};
  const auto t = dual_homed_topology(problem);
  const HeuristicRecovery nbf(3);
  const auto session = nbf.stage(t);
  ASSERT_NE(session, nullptr);
  const auto scenarios = scenarios_up_to_order_two(problem, t);
  std::vector<NbfResult> expected;
  for (const auto& scenario : scenarios) expected.push_back(nbf.recover(t, scenario));

  constexpr int kThreads = 4;
  std::vector<std::vector<NbfResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
          // Each thread walks the scenarios from its own offset.
          const std::size_t j = (i + static_cast<std::size_t>(w) * 7) % scenarios.size();
          NbfResult result = session->recover(scenarios[j]);
          if (round == 0) got[static_cast<std::size_t>(w)].push_back(std::move(result));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int w = 0; w < kThreads; ++w) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const std::size_t j = (i + static_cast<std::size_t>(w) * 7) % scenarios.size();
      expect_identical(got[static_cast<std::size_t>(w)][i], expected[j],
                       "thread " + std::to_string(w) + " scenario " + std::to_string(j));
    }
  }
}

TEST(PackedNbf, MalformedScenariosFailAsOnTheScalarPath) {
  // The session validates a scenario as Topology::residual() does: the same
  // exception with the same message, failed switches before failed links.
  const auto problem = tiny_problem(2);
  const auto t = dual_homed_topology(problem);
  const HeuristicRecovery nbf;
  const auto session = nbf.stage(t);
  ASSERT_NE(session, nullptr);
  // The text after the precondition's file and line.
  const auto failure = [](const auto& recover) -> std::string {
    try {
      recover();
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      return what.substr(what.find(" — "));
    }
    return "no throw";
  };
  const auto with_links = [](std::vector<NodeId> switches, std::vector<EdgeKey> links) {
    FailureScenario scenario;
    scenario.failed_switches = std::move(switches);
    scenario.failed_links = std::move(links);
    return scenario;
  };
  const FailureScenario malformed[] = {
      FailureScenario::of_switches({6}),   // an unplanned switch
      FailureScenario::of_switches({7}),   // out of range
      FailureScenario::of_switches({-1}),  // out of range
      with_links({}, {EdgeKey{0, 9}}),     // link endpoint out of range
      with_links({}, {EdgeKey{-2, 4}}),
      with_links({6}, {EdgeKey{0, 9}}),    // the switch is reported first
  };
  for (const FailureScenario& scenario : malformed) {
    const std::string scalar = failure([&] { nbf.recover(t, scenario); });
    EXPECT_NE(scalar, "no throw");
    EXPECT_EQ(failure([&] { session->recover(scenario); }), scalar);
  }
  // A well-formed scenario still recovers on the session that threw.
  expect_identical(session->recover(FailureScenario::of_switches({4})),
                   nbf.recover(t, FailureScenario::of_switches({4})), "after throws");
}

TEST(PackedNbf, StageRespectsEnvelopeAndKernelSelection) {
  const auto problem = tiny_problem(2);
  const auto t = dual_homed_topology(problem);
  const HeuristicRecovery nbf;
  EXPECT_NE(nbf.stage(t), nullptr);

  {
    // kReference freezes the scalar path: no packed session is built.
    KernelGuard guard(TsnKernel::kReference);
    EXPECT_EQ(nbf.stage(t), nullptr);
  }

  // slots_per_base beyond the single-word envelope: scalar fallback.
  auto wide = problem;
  wide.tsn.slots_per_base = 65;
  const auto wide_t = dual_homed_topology(wide);
  EXPECT_EQ(nbf.stage(wide_t), nullptr);
}

// --- SWAR kernel-pair differentials on random inputs ----------------------

TEST(SimKernelPairs, FoldOccupancyMatchesReference) {
  Rng rng(11);
  for (int trial = 0; trial < 20000; ++trial) {
    const int stride = rng.uniform_int(1, 16);
    const int repetitions = rng.uniform_int(1, 64 / stride);
    const std::uint64_t row =
        (rng.next_u64() ^ (rng.next_u64() << 1)) & tsk::low_mask(stride * repetitions);
    EXPECT_EQ(tsk::fold_occupancy_fast(row, stride, repetitions),
              tsk::fold_occupancy_reference(row, stride, repetitions))
        << "stride " << stride << " reps " << repetitions << " row " << row;
  }
}

TEST(SimKernelPairs, NowaitStartMatchesReference) {
  Rng rng(13);
  for (int trial = 0; trial < 20000; ++trial) {
    const int hops = rng.uniform_int(1, 6);
    const int deadline_slots = rng.uniform_int(hops, 64);
    std::vector<std::uint64_t> folds(static_cast<std::size_t>(hops));
    for (auto& fold : folds) {
      // Bias towards dense occupancy so "no feasible start" happens too.
      fold = rng.next_u64() | rng.next_u64();
      if (rng.uniform() < 0.3) fold = rng.next_u64() & rng.next_u64();
    }
    EXPECT_EQ(tsk::nowait_start_fast(folds.data(), hops, deadline_slots),
              tsk::nowait_start_reference(folds.data(), hops, deadline_slots))
        << "hops " << hops << " deadline " << deadline_slots;
  }
}

TEST(SimKernelPairs, EarliestFreeMatchesReference) {
  Rng rng(17);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::uint64_t fold = rng.uniform() < 0.5 ? rng.next_u64() | rng.next_u64()
                                                   : rng.next_u64() & rng.next_u64();
    const int deadline_slots = rng.uniform_int(0, 64);
    const int from = rng.uniform_int(0, 64);
    EXPECT_EQ(tsk::earliest_free_fast(fold, from, deadline_slots),
              tsk::earliest_free_reference(fold, from, deadline_slots))
        << "fold " << fold << " from " << from << " deadline " << deadline_slots;
  }
}

}  // namespace
}  // namespace nptsn
