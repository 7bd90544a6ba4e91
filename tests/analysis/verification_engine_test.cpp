// Differential tests: the verification engine must return the identical
// verdict, identical FIRST counterexample, identical ErrorSet, and identical
// logical instrumentation counters (nbf_calls / pruned / skipped / maxord)
// as the sequential FailureAnalyzer — with caches kept warm or cleared before
// every analysis, with and without superset pruning, with and without
// flow-level redundancy, across whole monotone growth trajectories and
// across episode resets.
#include "analysis/verification_engine.hpp"

#include <gtest/gtest.h>

#include "core/soag.hpp"
#include "scenarios/ads.hpp"
#include "scenarios/orion.hpp"
#include "scenarios/scenario.hpp"
#include "testing/lying_nbf.hpp"
#include "testing/test_problems.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

using testing::dual_homed_topology;
using testing::star_topology;
using testing::tiny_problem;

void expect_equivalent(const AnalysisOutcome& engine, const AnalysisOutcome& seq,
                       const std::string& context) {
  EXPECT_EQ(engine.reliable, seq.reliable) << context;
  EXPECT_EQ(engine.counterexample.failed_switches, seq.counterexample.failed_switches)
      << context;
  EXPECT_EQ(engine.counterexample.failed_links, seq.counterexample.failed_links) << context;
  EXPECT_EQ(engine.errors, seq.errors) << context;
  EXPECT_EQ(engine.nbf_calls, seq.nbf_calls) << context;
  EXPECT_EQ(engine.scenarios_pruned, seq.scenarios_pruned) << context;
  EXPECT_EQ(engine.scenarios_skipped, seq.scenarios_skipped) << context;
  EXPECT_EQ(engine.max_order, seq.max_order) << context;
}

// A monotone growth trajectory: random switch additions/upgrades and random
// feasible link additions, one mutation per step (mirrors SOAG actions).
std::vector<Topology> random_trajectory(const PlanningProblem& problem, Rng& rng,
                                        int steps) {
  std::vector<Topology> states;
  Topology t(problem);
  states.push_back(t);
  const auto edges = problem.connections.edges();
  for (int step = 0; step < steps; ++step) {
    const double roll = rng.uniform();
    bool mutated = false;
    if (roll < 0.45) {
      // Add or upgrade a random switch.
      const auto switches = problem.switch_ids();
      const NodeId s = switches[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(switches.size()) - 1))];
      if (!t.has_switch(s)) {
        t.add_switch(s);
        mutated = true;
      } else if (t.switch_asil(s) != Asil::D) {
        t.upgrade_switch(s);
        mutated = true;
      }
    } else {
      // Add a random feasible link.
      for (int attempt = 0; attempt < 8 && !mutated; ++attempt) {
        const auto& e = edges[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(edges.size()) - 1))];
        const bool endpoints_exist =
            (!problem.is_switch(e.u) || t.has_switch(e.u)) &&
            (!problem.is_switch(e.v) || t.has_switch(e.v));
        if (!endpoints_exist || t.has_link(e.u, e.v)) continue;
        const auto max_deg = [&](NodeId v) {
          return problem.is_switch(v) ? problem.max_switch_degree() : problem.max_es_degree;
        };
        if (t.degree(e.u) < max_deg(e.u) && t.degree(e.v) < max_deg(e.v)) {
          t.add_link(e.u, e.v);
          mutated = true;
        }
      }
    }
    if (mutated) states.push_back(t);
  }
  return states;
}

// One engine kept warm across the whole trajectory, or cleared before every
// state so each analysis starts from empty caches.
struct EngineVariant {
  const char* name;
  bool fresh_per_step;
};

constexpr EngineVariant kVariants[] = {
    {"warm", false},
    {"fresh-per-step", true},
};

class EngineDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDifferential, MatchesSequentialAcrossGrowthTrajectory) {
  Rng rng(GetParam());
  auto problem = tiny_problem(3);
  const double goals[] = {1e-6, 1e-7, 1e-8};
  problem.reliability_goal = goals[rng.uniform_int(0, 2)];
  const bool flow_level = rng.uniform() < 0.3;
  const bool pruning = rng.uniform() < 0.8;

  const HeuristicRecovery nbf;
  FailureAnalyzer::Options seq_options;
  seq_options.flow_level_redundancy = flow_level;
  seq_options.use_superset_pruning = pruning;
  const FailureAnalyzer sequential(nbf, seq_options);

  const auto states = random_trajectory(problem, rng, 14);

  for (const auto& variant : kVariants) {
    VerificationEngine::Options options;
    options.flow_level_redundancy = flow_level;
    options.use_superset_pruning = pruning;
    VerificationEngine engine(nbf, options);

    for (std::size_t i = 0; i < states.size(); ++i) {
      if (variant.fresh_per_step) engine.clear();
      const auto seq = sequential.analyze(states[i]);
      const auto eng = engine.analyze(states[i]);
      expect_equivalent(eng, seq,
                        std::string("seed ") + std::to_string(GetParam()) + " variant " +
                            variant.name + " step " + std::to_string(i) +
                            (flow_level ? " flr" : "") + (pruning ? "" : " no-prune"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrajectories, EngineDifferential,
                         ::testing::Range<std::uint64_t>(1, 26));

// Warm caches must not change outcomes: analyzing the same topology twice
// gives identical results, with the second pass served without NBF work.
TEST(VerificationEngine, WarmReanalysisIsExactAndFullyCached) {
  const auto problem = tiny_problem(2);
  const HeuristicRecovery nbf;
  const FailureAnalyzer sequential(nbf);
  VerificationEngine engine(nbf);

  const auto t = dual_homed_topology(problem, Asil::B);
  const auto seq = sequential.analyze(t);
  const auto cold = engine.analyze(t);
  const auto warm = engine.analyze(t);
  expect_equivalent(cold, seq, "cold");
  expect_equivalent(warm, seq, "warm");
  EXPECT_GT(cold.nbf_executed, 0);
  EXPECT_EQ(warm.nbf_executed, 0) << "second pass must be served from the caches";
  EXPECT_EQ(warm.memo_hits + warm.residual_reuses, warm.nbf_calls);
}

// Re-analyses of a previously seen (link set, switch plan) pair are served
// from the outcome cache: one entry per distinct design, nothing executed.
TEST(VerificationEngine, OutcomeCacheServesRepeatedDesigns) {
  const auto problem = tiny_problem(2);
  const HeuristicRecovery nbf;
  VerificationEngine engine(nbf);

  Topology t = dual_homed_topology(problem, Asil::A);
  (void)engine.analyze(t);
  EXPECT_EQ(engine.outcome_entries(), 1u);
  (void)engine.analyze(t);
  EXPECT_EQ(engine.outcome_entries(), 1u) << "repeat design must not add an entry";

  // An ASIL upgrade is a different plan on the same graph: new entry, but the
  // verdict memo still covers every NBF call.
  t.upgrade_switch(4);
  const auto upgraded = engine.analyze(t);
  EXPECT_EQ(engine.outcome_entries(), 2u);
  EXPECT_EQ(upgraded.nbf_executed, 0);

  const auto cached = engine.analyze(t);
  EXPECT_EQ(engine.outcome_entries(), 2u);
  EXPECT_EQ(cached.nbf_executed, 0);
  EXPECT_EQ(cached.reliable, upgraded.reliable);
  EXPECT_EQ(cached.nbf_calls, upgraded.nbf_calls);
  EXPECT_EQ(cached.scenarios_pruned, upgraded.scenarios_pruned);
  EXPECT_EQ(cached.scenarios_skipped, upgraded.scenarios_skipped);
  EXPECT_EQ(cached.max_order, upgraded.max_order);
  EXPECT_EQ(cached.memo_hits, cached.nbf_calls) << "cache hit reports pure reuse";

  engine.clear();
  EXPECT_EQ(engine.outcome_entries(), 0u);
}

// ASIL upgrades leave the graph untouched: the memo carries every verdict
// over and only the probability frontier is recomputed.
TEST(VerificationEngine, AsilUpgradeReusesMemoizedVerdicts) {
  const auto problem = tiny_problem(2);
  const HeuristicRecovery nbf;
  const FailureAnalyzer sequential(nbf);
  VerificationEngine engine(nbf);

  Topology t = dual_homed_topology(problem, Asil::A);
  const auto fp_before = t.graph_fingerprint();
  (void)engine.analyze(t);
  t.upgrade_switch(4);
  EXPECT_EQ(t.graph_fingerprint(), fp_before) << "upgrades must not move the fingerprint";

  const auto seq = sequential.analyze(t);
  const auto eng = engine.analyze(t);
  expect_equivalent(eng, seq, "post-upgrade");
  EXPECT_EQ(eng.nbf_executed, 0) << "same graph: all verdicts must come from reuse";
}

// A failing verdict is memoized too: re-analysis after an ASIL upgrade finds
// the same counterexample without executing the NBF.
TEST(VerificationEngine, MemoizedCounterexampleCarriesErrorSet) {
  const auto problem = tiny_problem(2);
  const HeuristicRecovery nbf;
  const FailureAnalyzer sequential(nbf);
  VerificationEngine engine(nbf);

  Topology t = star_topology(problem, Asil::A);
  const auto first = engine.analyze(t);
  ASSERT_FALSE(first.reliable);
  ASSERT_FALSE(first.errors.empty());

  t.upgrade_switch(4);  // still a single point of failure, same graph
  const auto seq = sequential.analyze(t);
  const auto eng = engine.analyze(t);
  if (!seq.reliable) {
    expect_equivalent(eng, seq, "memoized failure");
    EXPECT_EQ(eng.nbf_executed, 0);
    EXPECT_FALSE(eng.errors.empty());
  }
}

// An episode reset shrinks the graph; the memo (keyed on exact residuals)
// needs no invalidation and the post-reset analyses must still match the
// sequential analyzer exactly.
TEST(VerificationEngine, EpisodeResetStaysExact) {
  const auto problem = tiny_problem(2);
  const HeuristicRecovery nbf;
  const FailureAnalyzer sequential(nbf);
  VerificationEngine engine(nbf);

  (void)engine.analyze(dual_homed_topology(problem, Asil::A));
  EXPECT_GT(engine.memo_entries(), 0u);

  // Fresh episode: empty topology is NOT a supergraph of the dual-homed one.
  const Topology fresh(problem);
  const auto seq = sequential.analyze(fresh);
  const auto eng = engine.analyze(fresh);
  expect_equivalent(eng, seq, "post-reset");

  const Topology star = star_topology(problem, Asil::A);
  expect_equivalent(engine.analyze(star), sequential.analyze(star), "post-reset star");
}

// Cross-step reuse under graph growth: a new link incident to a failed
// switch leaves that scenario's residual unchanged, so its verdict replays
// from the memo of the smaller topology — exact by NBF purity, no
// monotonicity assumption involved.
TEST(VerificationEngine, ResidualReuseAcrossGraphGrowth) {
  const auto problem = tiny_problem(2);
  const HeuristicRecovery nbf;
  const FailureAnalyzer sequential(nbf);
  VerificationEngine engine(nbf);

  Topology t = dual_homed_topology(problem, Asil::A);
  (void)engine.analyze(t);

  // Grow: a third switch linked to switch 4. Scenarios failing 4 keep their
  // residual; everything else is re-evaluated.
  t.add_switch(6);
  t.add_link(4, 6);
  const auto seq = sequential.analyze(t);
  const auto eng = engine.analyze(t);
  expect_equivalent(eng, seq, "grown");
  EXPECT_GT(eng.residual_reuses, 0) << "scenarios failing switch 4 must replay";
  EXPECT_LT(eng.nbf_executed, eng.nbf_calls);
  EXPECT_EQ(eng.nbf_executed + eng.memo_hits + eng.residual_reuses, eng.nbf_calls);
}

// A deterministic, pure — but deliberately NON-monotone — NBF: its verdict
// flips with the parity of the residual edge count, the way a greedy
// heuristic's verdict can flip when a link is added. StatelessNbf only
// promises determinism and purity, so the engine must stay differential-
// equivalent for this NBF too. This is the regression test for the former
// survivable-seed carry-over, which assumed verdict monotonicity under
// graph growth and returned stale ok-verdicts here.
class ParityNbf final : public StatelessNbf {
 public:
  NbfResult recover(const Topology& topology,
                    const FailureScenario& scenario) const override {
    NbfResult result;
    const Graph residual = topology.residual(scenario);
    if (residual.num_edges() % 2 == 1) result.errors.emplace_back(0, 1);
    return result;
  }
};

TEST_P(EngineDifferential, MatchesSequentialUnderNonMonotoneNbf) {
  Rng rng(GetParam());
  auto problem = tiny_problem(3);
  const bool pruning = rng.uniform() < 0.5;

  const ParityNbf nbf;
  FailureAnalyzer::Options seq_options;
  seq_options.use_superset_pruning = pruning;
  const FailureAnalyzer sequential(nbf, seq_options);

  const auto states = random_trajectory(problem, rng, 14);

  for (const auto& variant : kVariants) {
    VerificationEngine::Options options;
    options.use_superset_pruning = pruning;
    VerificationEngine engine(nbf, options);

    for (std::size_t i = 0; i < states.size(); ++i) {
      if (variant.fresh_per_step) engine.clear();
      const auto seq = sequential.analyze(states[i]);
      const auto eng = engine.analyze(states[i]);
      expect_equivalent(eng, seq,
                        std::string("parity seed ") + std::to_string(GetParam()) +
                            " variant " + variant.name + " step " + std::to_string(i) +
                            (pruning ? "" : " no-prune"));
    }
  }
}

// A tiny memo bound forces wholesale eviction; correctness must not depend
// on what the memo managed to retain.
TEST(VerificationEngine, MemoEvictionNeverChangesOutcomes) {
  const auto problem = tiny_problem(3);
  const HeuristicRecovery nbf;
  const FailureAnalyzer sequential(nbf);
  VerificationEngine::Options options;
  options.max_memo_entries = 2;
  VerificationEngine engine(nbf, options);

  Rng rng(99);
  const auto states = random_trajectory(problem, rng, 12);
  for (std::size_t i = 0; i < states.size(); ++i) {
    expect_equivalent(engine.analyze(states[i]), sequential.analyze(states[i]),
                      "eviction step " + std::to_string(i));
    EXPECT_LE(engine.memo_entries(), 2u + 64u);  // bound is enforced between analyses
  }
}

// The shared-cache binding salt keeps the engine's option bits in its low 16
// bits. A cache_salt of 2^48 or more would lose its top bits there and let
// two NBF constructions share verdicts, so the engine rejects it.
TEST(VerificationEngine, RejectsCacheSaltWiderThan48Bits) {
  const auto problem = tiny_problem(2);
  const HeuristicRecovery nbf;
  VerificationEngine::Options options;
  options.staging = make_engine_staging(problem);
  options.shared_cache = std::make_shared<EngineSharedCache>();
  options.cache_salt = std::uint64_t{1} << 48;
  EXPECT_THROW(VerificationEngine engine(nbf, options), std::invalid_argument);
}

// SOAG-driven planning trajectories on the real design scenarios: the exact
// workload the engine replaces in the environment hot loop.
void expect_equivalent_on_scenario(const Scenario& scenario, std::vector<FlowSpec> flows,
                                   int steps) {
  const auto problem = with_flows(scenario, std::move(flows));
  const HeuristicRecovery nbf;
  const FailureAnalyzer sequential(nbf);
  VerificationEngine engine(nbf);

  const Soag soag(problem, /*k=*/4);
  Rng rng(7);
  Topology t(problem);
  for (int step = 0; step < steps; ++step) {
    const auto seq = sequential.analyze(t);
    const auto eng = engine.analyze(t);
    expect_equivalent(eng, seq, scenario.name + " step " + std::to_string(step));
    if (seq.reliable) break;

    const auto actions = soag.generate(t, seq.counterexample, seq.errors, rng);
    std::vector<int> valid;
    for (int a = 0; a < static_cast<int>(actions.mask.size()); ++a) {
      if (actions.mask[static_cast<std::size_t>(a)]) valid.push_back(a);
    }
    if (valid.empty()) break;
    const Action& chosen =
        actions.actions[static_cast<std::size_t>(rng.pick(valid))];
    if (chosen.kind == Action::Kind::kSwitchUpgrade) {
      if (t.has_switch(chosen.switch_id)) {
        t.upgrade_switch(chosen.switch_id);
      } else {
        t.add_switch(chosen.switch_id);
      }
    } else {
      t.add_path(chosen.path);
    }
  }
}

// Audit-triggering failure modes: when the NBF misbehaves (swallows its
// error set, reports stale states, flips verdicts non-monotonically, or
// swallows only PART of the error set), the certified-planning audit is what
// catches the lie downstream — but only if the engine hands the planner the
// exact same counterexample and ErrorSet the sequential analyzer would have.
// Serializing both sides makes the comparison literal: byte-for-byte.
class TruncatedErrorNbf final : public StatelessNbf {
 public:
  explicit TruncatedErrorNbf(const StatelessNbf& inner) : inner_(&inner) {}
  NbfResult recover(const Topology& topology,
                    const FailureScenario& scenario) const override {
    NbfResult result = inner_->recover(topology, scenario);
    if (!result.errors.empty()) result.errors.erase(result.errors.begin());
    return result;
  }

 private:
  const StatelessNbf* inner_;
};

std::vector<std::uint8_t> outcome_bytes(const AnalysisOutcome& outcome) {
  ByteWriter w;
  w.u8(outcome.reliable ? 1 : 0);
  for (const NodeId v : outcome.counterexample.failed_switches) w.i64(v);
  for (const EdgeKey& e : outcome.counterexample.failed_links) {
    w.i64(e.a);
    w.i64(e.b);
  }
  for (const auto& [source, destination] : outcome.errors) {
    w.i64(source);
    w.i64(destination);
  }
  return w.data();
}

TEST(VerificationEngine, ErrorSetByteMatchesSequentialUnderAdversarialNbfs) {
  const auto problem = tiny_problem(3);
  const HeuristicRecovery honest;
  const testing::LyingNbf liar(honest);
  const testing::StaleStateNbf stale(honest);
  const TruncatedErrorNbf truncating(honest);
  const ParityNbf parity;

  struct Case {
    const char* name;
    const StatelessNbf* nbf;
  };
  const Case cases[] = {{"honest", &honest},
                        {"lying", &liar},
                        {"stale-state", &stale},
                        {"truncated-errors", &truncating},
                        {"parity", &parity}};
  const Topology topologies[] = {star_topology(problem, Asil::A),
                                 dual_homed_topology(problem, Asil::A)};

  for (const Case& c : cases) {
    const FailureAnalyzer sequential(*c.nbf);
    for (const Topology& t : topologies) {
      VerificationEngine engine(*c.nbf);
      const auto seq = sequential.analyze(t);
      const auto eng = engine.analyze(t);
      expect_equivalent(eng, seq, c.name);
      EXPECT_EQ(outcome_bytes(eng), outcome_bytes(seq)) << c.name;
    }
  }
}

TEST(VerificationEngine, MatchesSequentialOnAdsPlanningTrajectory) {
  auto scenario = make_ads();
  expect_equivalent_on_scenario(scenario, ads_flows(), /*steps=*/12);
}

TEST(VerificationEngine, MatchesSequentialOnOrionPlanningTrajectory) {
  auto scenario = make_orion();
  Rng rng(13);
  auto flows = random_flows(scenario.problem, /*count=*/4, rng);
  expect_equivalent_on_scenario(scenario, std::move(flows), /*steps=*/8);
}

}  // namespace
}  // namespace nptsn
