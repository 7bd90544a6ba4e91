// Differential tests for the bitset-packed TSN fast path (DESIGN.md §16):
// the packed NBF session must be BYTE-identical to the scalar
// HeuristicRecovery ground truth — same paths, same slots, same error sets —
// for every scenario shape (switch-only, link-only, mixed, higher-order),
// both disciplines, and every path-candidate budget; and each SWAR kernel
// must agree bit-for-bit with its frozen reference member on random inputs.
#include "tsn/packed.hpp"

#include <gtest/gtest.h>

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

// Every failure scenario of order <= 2 over the topology's selected
// switches and present optional links (the exact shapes the mixed frontier
// enumerates).
std::vector<FailureScenario> scenarios_up_to_order_two(const PlanningProblem& problem,
                                                       const Topology& topology) {
  std::vector<NodeId> switches = topology.selected_switches();
  std::vector<EdgeKey> links;
  for (const Edge& e : problem.connections.edges()) {
    if (topology.has_link(e.u, e.v)) {
      links.push_back(EdgeKey{std::min(e.u, e.v), std::max(e.u, e.v)});
    }
  }
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

TEST(SimKernelPairs, ReachMatchesReferenceOnRandomGraphs) {
  Rng rng(19);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = rng.uniform_int(2, 130);  // crosses the 64-bit word boundary
    const int words = tsk::words_for(n);
    std::vector<std::vector<std::uint64_t>> adjacency(
        static_cast<std::size_t>(n), std::vector<std::uint64_t>(static_cast<std::size_t>(words), 0));
    const double density = rng.uniform() * 0.2;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.uniform() < density) {
          tsk::set_bit(adjacency[static_cast<std::size_t>(u)].data(), v);
          tsk::set_bit(adjacency[static_cast<std::size_t>(v)].data(), u);
        }
      }
    }
    std::vector<const std::uint64_t*> rows(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u) rows[static_cast<std::size_t>(u)] = adjacency[static_cast<std::size_t>(u)].data();
    std::vector<std::uint64_t> alive(static_cast<std::size_t>(words), 0);
    std::vector<std::uint64_t> transit(static_cast<std::size_t>(words), 0);
    for (int v = 0; v < n; ++v) {
      if (rng.uniform() < 0.85) tsk::set_bit(alive.data(), v);
      if (rng.uniform() < 0.6) tsk::set_bit(transit.data(), v);
    }
    std::vector<std::uint64_t> visited(static_cast<std::size_t>(words));
    std::vector<std::uint64_t> frontier(static_cast<std::size_t>(words));
    std::vector<std::uint64_t> next(static_cast<std::size_t>(words));
    for (int probe = 0; probe < 16; ++probe) {
      const int src = rng.uniform_int(0, n - 1);
      const int dst = rng.uniform_int(0, n - 1);
      if (!tsk::test_bit(alive.data(), src)) continue;
      const bool fast = tsk::reach_fast(rows.data(), words, alive.data(), transit.data(),
                                        src, dst, visited.data(), frontier.data(),
                                        next.data());
      const bool reference = tsk::reach_reference(rows.data(), words, alive.data(),
                                                  transit.data(), src, dst, visited.data(),
                                                  frontier.data(), next.data());
      EXPECT_EQ(fast, reference) << "n " << n << " src " << src << " dst " << dst;
    }
  }
}

}  // namespace
}  // namespace nptsn
