#include "core/observation_encoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "baselines/neuroplan.hpp"
#include "core/environment.hpp"
#include "core/soag.hpp"
#include "scenarios/ads.hpp"
#include "scenarios/generator.hpp"
#include "scenarios/orion.hpp"
#include "scenarios/scenario.hpp"
#include "testing/dense_observation.hpp"
#include "testing/test_problems.hpp"
#include "tsn/recovery.hpp"

namespace nptsn {
namespace {

using testing::dual_homed_topology;
using testing::tiny_problem;

constexpr int kK = 4;

Matrix a_hat_of(const Observation& obs) { return obs.a_hat->to_dense(); }
Matrix features_of(const Observation& obs) { return obs.features->to_dense(); }

ActionSpace space_for(const PlanningProblem& p, const Topology& t, std::uint64_t seed,
                      const ErrorSet& errors) {
  Rng rng(seed);
  return Soag(p, kK).generate(t, FailureScenario::none(), errors, rng);
}

TEST(Encoder, FeatureAndParamDimensions) {
  const auto p = tiny_problem(2);
  const ObservationEncoder encoder(p, kK);
  // 1 (switch) + |Vc| (links) + |Ves| (flows) + K (actions).
  EXPECT_EQ(encoder.feature_dim(), 1 + 7 + 4 + kK);
  // 2 per flow + slot count.
  EXPECT_EQ(encoder.param_dim(), 2 * 2 + 1);
}

TEST(Encoder, ShapesMatchDeclaredDims) {
  const auto p = tiny_problem(2);
  const ObservationEncoder encoder(p, kK);
  const Topology t(p);
  const auto obs = encoder.encode(t, space_for(p, t, 1, {{0, 1}}));
  EXPECT_EQ(obs.a_hat->rows(), 7);
  EXPECT_EQ(obs.a_hat->cols(), 7);
  EXPECT_EQ(obs.features->rows(), 7);
  EXPECT_EQ(obs.features->cols(), encoder.feature_dim());
  EXPECT_EQ(obs.params.rows(), 1);
  EXPECT_EQ(obs.params.cols(), encoder.param_dim());
}

TEST(Encoder, EmptyTopologyAdjacencyIsIdentityNormalized) {
  const auto p = tiny_problem(2);
  const ObservationEncoder encoder(p, kK);
  const Topology t(p);
  const Matrix a_hat = a_hat_of(encoder.encode(t, space_for(p, t, 1, {{0, 1}})));
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 7; ++j) {
      EXPECT_DOUBLE_EQ(a_hat.at(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Encoder, SwitchFeatureHoldsScaledCost) {
  const auto p = tiny_problem(2);
  const ObservationEncoder encoder(p, kK);
  auto t = dual_homed_topology(p);  // switches 4, 5 at A, degree 5 each
  const Matrix features = features_of(encoder.encode(t, space_for(p, t, 1, {{0, 1}})));
  // Degree 5 -> 6-port ASIL-A cost 10, scaled by 0.01.
  EXPECT_NEAR(features.at(4, 0), 0.10, 1e-12);
  EXPECT_NEAR(features.at(5, 0), 0.10, 1e-12);
  // End stations and unplanned switches carry zero.
  EXPECT_DOUBLE_EQ(features.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(features.at(6, 0), 0.0);
}

TEST(Encoder, LinkFeatureBlockSymmetricScaledCosts) {
  const auto p = tiny_problem(2);
  const ObservationEncoder encoder(p, kK);
  const auto t = dual_homed_topology(p);  // all links ASIL-A, unit length
  const Matrix features = features_of(encoder.encode(t, space_for(p, t, 1, {{0, 1}})));
  // Link (0, 4): ASIL-A cost 1 scaled to 0.01; symmetric entries.
  EXPECT_NEAR(features.at(0, 1 + 4), 0.01, 1e-12);
  EXPECT_NEAR(features.at(4, 1 + 0), 0.01, 1e-12);
  // Absent link (0, 6).
  EXPECT_DOUBLE_EQ(features.at(0, 1 + 6), 0.0);
}

TEST(Encoder, FlowBlockCountsFlowsBothDirections) {
  auto p = tiny_problem(0);
  p.flows.push_back({0, 1, 500.0, 64, 500.0});
  p.flows.push_back({0, 1, 500.0, 64, 500.0});
  p.flows.push_back({2, 0, 500.0, 64, 500.0});
  const ObservationEncoder encoder(p, kK);
  const Topology t(p);
  const Matrix features = features_of(encoder.encode(t, space_for(p, t, 1, {{0, 1}})));
  const int base = 1 + 7;
  EXPECT_NEAR(features.at(0, base + 1), 0.2, 1e-12);  // two 0<->1 flows
  EXPECT_NEAR(features.at(1, base + 0), 0.2, 1e-12);
  EXPECT_NEAR(features.at(2, base + 0), 0.1, 1e-12);
  EXPECT_NEAR(features.at(0, base + 2), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(features.at(3, base + 0), 0.0);
  // Switch rows stay zero in the flow block.
  EXPECT_DOUBLE_EQ(features.at(4, base + 0), 0.0);
}

TEST(Encoder, DynamicActionBlockMarksTraversedNodes) {
  const auto p = tiny_problem(2);
  const ObservationEncoder encoder(p, kK);
  Topology t(p);
  t.add_switch(4);
  const auto space = space_for(p, t, 2, {{0, 2}});
  const Matrix features = features_of(encoder.encode(t, space));
  const int base = 1 + 7 + 4;
  for (int slot = 0; slot < kK; ++slot) {
    const auto& path = space.actions[static_cast<std::size_t>(3 + slot)].path;
    for (int v = 0; v < 7; ++v) {
      const bool on_path = std::find(path.begin(), path.end(), v) != path.end();
      EXPECT_DOUBLE_EQ(features.at(v, base + slot), on_path ? 1.0 : 0.0);
    }
  }
}

TEST(Encoder, ParamsCarryFlowTimingAndSlots) {
  auto p = tiny_problem(0);
  p.flows.push_back({0, 1, 250.0, 750, 250.0});
  p.flows.push_back({1, 2, 500.0, 1500, 500.0});
  const ObservationEncoder encoder(p, kK);
  const Topology t(p);
  const auto obs = encoder.encode(t, space_for(p, t, 1, {{0, 1}}));
  EXPECT_NEAR(obs.params.at(0, 0), 0.5, 1e-12);   // 250/500
  EXPECT_NEAR(obs.params.at(0, 1), 0.5, 1e-12);   // 750/1500
  EXPECT_NEAR(obs.params.at(0, 2), 1.0, 1e-12);   // 500/500
  EXPECT_NEAR(obs.params.at(0, 3), 1.0, 1e-12);   // 1500/1500
  EXPECT_NEAR(obs.params.at(0, 4), 0.2, 1e-12);   // 20 slots / 100
}

TEST(Encoder, ActionArityChecked) {
  const auto p = tiny_problem(2);
  const ObservationEncoder encoder(p, kK);
  const Topology t(p);
  ActionSpace wrong;
  wrong.actions.resize(3);  // missing the K path slots
  wrong.mask.assign(3, 0);
  EXPECT_THROW(encoder.encode(t, wrong), std::invalid_argument);
}

TEST(Encoder, AdjacencyReflectsTopologyLinks) {
  const auto p = tiny_problem(2);
  const ObservationEncoder encoder(p, kK);
  const auto t = dual_homed_topology(p);
  const Matrix a_hat = a_hat_of(encoder.encode(t, space_for(p, t, 1, {{0, 1}})));
  // Connected nodes have positive normalized entries.
  EXPECT_GT(a_hat.at(0, 4), 0.0);
  EXPECT_GT(a_hat.at(4, 5), 0.0);
  EXPECT_DOUBLE_EQ(a_hat.at(0, 6), 0.0);
}

// Eq. 4 on the encoder's A_hat of the path 0 - 4 - 1 (switch 4 between two
// end stations).
TEST(NormalizedAdjacency, SelfLoopsAndSymmetricNormalization) {
  const auto p = tiny_problem(2);
  const ObservationEncoder encoder(p, kK);
  Topology t(p);
  t.add_switch(4);
  t.add_link(0, 4);
  t.add_link(4, 1);
  const Observation obs = encoder.encode(t, space_for(p, t, 1, {{0, 1}}));
  EXPECT_TRUE(obs.a_hat->symmetric());
  const Matrix a = a_hat_of(obs);
  // Degrees with self loops: d0 = 2, d4 = 3, d1 = 2.
  EXPECT_NEAR(a.at(0, 0), 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(a.at(4, 4), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(a.at(0, 4), 1.0 / std::sqrt(6.0), 1e-12);
  EXPECT_EQ(a.at(0, 4), a.at(4, 0));  // symmetric, exactly
  EXPECT_DOUBLE_EQ(a.at(0, 1), 0.0);  // no edge
}

// A node without links (an end station, or a switch not yet planned) keeps
// only its self loop, 1 / sqrt(1) squared: one stored entry, 1.0.
TEST(NormalizedAdjacency, IsolatedNodeBecomesSelfLoopOne) {
  const auto p = tiny_problem(2);
  const ObservationEncoder encoder(p, kK);
  Topology t(p);
  t.add_switch(4);
  t.add_link(0, 4);
  const Observation obs = encoder.encode(t, space_for(p, t, 1, {{0, 1}}));
  for (const int v : {1, 2, 3, 5, 6}) {
    ASSERT_EQ(obs.a_hat->row_end(v) - obs.a_hat->row_begin(v), 1u) << "node " << v;
    EXPECT_EQ(obs.a_hat->csr_cols()[obs.a_hat->row_begin(v)], v);
    EXPECT_EQ(obs.a_hat->csr_vals()[obs.a_hat->row_begin(v)], 1.0);
  }
}

// Compares the encoder's CSR forms with the dense-scan constructors over the
// oracle's matrices: row pointers, columns and value bits.
void expect_matches_oracle(const Observation& obs, const testing::DenseEncoding& dense,
                           const std::string& where) {
  const CsrRows a_hat(dense.a_hat.cols(), {&dense.a_hat});
  const CsrRows features(dense.features.cols(), {&dense.features});
  ASSERT_TRUE(a_hat.symmetric()) << where;
  EXPECT_EQ(testing::csr_difference(*obs.a_hat, a_hat), "") << where << ": A_hat";
  EXPECT_EQ(testing::csr_difference(*obs.features, features), "") << where << ": features";
}

// What a walk saw, so the test can show it covered the cases that matter.
struct Coverage {
  int absent_switches = 0;    // switch rows holding their self loop only, 1.0
  int upgraded_switches = 0;  // switches planned above ASIL A
  int empty_slots = 0;        // path slots without a path
  int doubled_flows = 0;      // flow-block entries of two flows, 0.2
};

void record_coverage(const PlanningProblem& problem, const Topology& topology,
                     const ActionSpace& actions, int k, const testing::DenseEncoding& dense,
                     Coverage& seen) {
  for (NodeId v = problem.num_end_stations; v < problem.num_nodes(); ++v) {
    if (!topology.has_switch(v)) {
      seen.absent_switches += dense.a_hat.at(v, v) == 1.0;
    } else if (topology.switch_asil(v) != Asil::A) {
      ++seen.upgraded_switches;
    }
  }
  for (int slot = 0; slot < k; ++slot) {
    seen.empty_slots +=
        actions.actions[static_cast<std::size_t>(problem.num_switches() + slot)].path.empty();
  }
  const int flow_base = 1 + problem.num_nodes();
  for (int v = 0; v < problem.num_nodes(); ++v) {
    for (int c = 0; c < problem.num_end_stations; ++c) {
      seen.doubled_flows += dense.features.at(v, flow_base + c) == 0.1 + 0.1;
    }
  }
}

// Random valid actions, resetting at episode ends and when stuck; check()
// runs on every state before its step.
template <class Env, class Check>
void walk(Env& env, int steps, std::uint64_t seed, const Check& check) {
  Rng rng(seed);
  env.reset();
  for (int step = 0; step < steps; ++step) {
    check(step);
    std::vector<int> allowed;
    const std::vector<std::uint8_t>& mask = env.action_mask();
    for (std::size_t a = 0; a < mask.size(); ++a) {
      if (mask[a] != 0) allowed.push_back(static_cast<int>(a));
    }
    if (allowed.empty() || env.step(rng.pick(allowed)).episode_end) env.reset();
  }
}

// The encoder's A_hat and feature CSR equal the dense encoding's, bit for
// bit, at every state of random walks on ORION, ADS and generated problems
// through PlanningEnv, and through NeuroPlan's environment (K = 1, an empty
// path slot).
TEST(Encoder, CsrEqualsTheDenseEncodingAtEveryStep) {
  std::vector<std::pair<std::string, PlanningProblem>> problems;
  Rng flow_rng(2023);
  const Scenario orion = make_orion();
  problems.emplace_back("ORION", with_flows(orion, random_flows(orion.problem, 6, flow_rng)));
  problems.emplace_back("ADS", with_flows(make_ads(), ads_flows()));
  for (const std::uint64_t seed : {3u, 7u, 11u}) {
    std::string name = "generator seed ";
    name += std::to_string(seed);
    problems.emplace_back(name, generate(GeneratorParams{}, seed));
  }
  // Two flows between one pair: the flow block sums them to 0.2.
  PlanningProblem doubled = tiny_problem(0);
  doubled.flows.push_back({0, 1, 500.0, 64, 500.0});
  doubled.flows.push_back({0, 1, 500.0, 64, 500.0});
  doubled.flows.push_back({2, 3, 500.0, 64, 500.0});
  problems.emplace_back("two flows between 0 and 1", doubled);

  const HeuristicRecovery nbf;
  Coverage seen;
  for (const auto& [name, problem] : problems) {
    NptsnConfig config;
    config.path_actions = kK;
    SolutionRecorder recorder;
    PlanningEnv env(problem, nbf, config, recorder, Rng(17));
    walk(env, 80, 5, [&](int step) {
      const testing::DenseEncoding dense =
          testing::dense_encoding(problem, kK, env.topology(), env.action_space());
      expect_matches_oracle(env.observe(), dense, name + ", step " + std::to_string(step));
      record_coverage(problem, env.topology(), env.action_space(), kK, dense, seen);
    });
  }

  const PlanningProblem& ads = problems[1].second;
  NptsnConfig config;
  SolutionRecorder recorder;
  NeuroPlanEnv neuroplan(ads, nbf, config, recorder);
  ActionSpace empty_slot;
  empty_slot.actions.resize(static_cast<std::size_t>(ads.num_switches()) + 1);
  empty_slot.actions.back().kind = Action::Kind::kAddPath;
  walk(neuroplan, 80, 9, [&](int step) {
    const testing::DenseEncoding dense =
        testing::dense_encoding(ads, 1, neuroplan.topology(), empty_slot);
    std::string where = "NeuroPlan, step ";
    where += std::to_string(step);
    expect_matches_oracle(neuroplan.observe(), dense, where);
    record_coverage(ads, neuroplan.topology(), empty_slot, 1, dense, seen);
  });

  EXPECT_GT(seen.absent_switches, 0);
  EXPECT_GT(seen.upgraded_switches, 0);
  EXPECT_GT(seen.empty_slots, 0);
  EXPECT_GT(seen.doubled_flows, 0);
}

}  // namespace
}  // namespace nptsn
