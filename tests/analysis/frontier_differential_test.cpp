// Randomized differential suite for the higher-order failure frontiers
// (frontier floor + mixed link/switch scenarios): across generated zonal
// instances and growth trajectories, every engine configuration — warm or
// cleared caches, shared caches, packed sessions vs the scalar reference
// kernels — must return BYTE-identical verdicts, counterexamples, ErrorSets,
// and logical counters to the sequential reference analyzer at every
// (min_order, include_links) setting; and a min_order=2 mixed certificate
// must audit clean, survive serialization, and reject tampering.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/auditor.hpp"
#include "analysis/certificate.hpp"
#include "analysis/engine_cache.hpp"
#include "analysis/failure_analyzer.hpp"
#include "analysis/verification_engine.hpp"
#include "scenarios/generator.hpp"
#include "testing/test_problems.hpp"
#include "tsn/sim_kernels.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

using testing::dual_homed_topology;
using testing::tiny_problem;

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
  w.i64(outcome.nbf_calls);
  w.i64(outcome.scenarios_pruned);
  w.i64(outcome.scenarios_skipped);
  w.i64(outcome.max_order);
  return w.data();
}

void expect_equivalent(const AnalysisOutcome& engine, const AnalysisOutcome& seq,
                       const std::string& context) {
  EXPECT_EQ(engine.reliable, seq.reliable) << context;
  EXPECT_EQ(engine.counterexample.failed_switches, seq.counterexample.failed_switches)
      << context;
  EXPECT_EQ(engine.counterexample.failed_links, seq.counterexample.failed_links)
      << context;
  EXPECT_EQ(engine.errors, seq.errors) << context;
  EXPECT_EQ(engine.nbf_calls, seq.nbf_calls) << context;
  EXPECT_EQ(engine.scenarios_pruned, seq.scenarios_pruned) << context;
  EXPECT_EQ(engine.scenarios_skipped, seq.scenarios_skipped) << context;
  EXPECT_EQ(engine.max_order, seq.max_order) << context;
  EXPECT_EQ(outcome_bytes(engine), outcome_bytes(seq)) << context;
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
    bool mutated = false;
    if (rng.uniform() < 0.45) {
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
      for (int attempt = 0; attempt < 8 && !mutated; ++attempt) {
        const auto& e = edges[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(edges.size()) - 1))];
        const bool endpoints_exist = (!problem.is_switch(e.u) || t.has_switch(e.u)) &&
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

// A small generated zonal instance (2 zones, full inter-zone switch mesh) —
// the procedural family the stress/corpus machinery runs on, distinct from
// the hand-built tiny_problem.
PlanningProblem small_zonal(std::uint64_t seed) {
  GeneratorParams params;
  params.zones = 2;
  params.stations_per_zone = 2;
  params.switches_per_zone = 1;
  params.backbone_switches = 1;
  params.flow_count = 3;
  return generate(params, seed);
}

class FrontierDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrontierDifferential, EngineMatchesSequentialAcrossOrdersThreadsCaches) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  // Alternate between the hand-built dense instance and a generated zonal
  // one; randomize the frontier shape per seed so the suite sweeps the
  // (min_order, include_links, flr, pruning) grid across seeds.
  const PlanningProblem problem = (seed % 2 == 0) ? small_zonal(seed) : tiny_problem(3);
  const int min_order = rng.uniform_int(0, 3);
  const bool include_links = rng.uniform() < 0.5;
  const bool flow_level = rng.uniform() < 0.2;
  const bool pruning = rng.uniform() < 0.8;

  const HeuristicRecovery nbf;
  FailureAnalyzer::Options seq_options;
  seq_options.min_order = min_order;
  seq_options.include_links = include_links;
  seq_options.flow_level_redundancy = flow_level;
  seq_options.use_superset_pruning = pruning;
  const FailureAnalyzer sequential(nbf, seq_options);

  const auto states = random_trajectory(problem, rng, 8);

  // Under TsnKernel::kReference the NBF offers no staged session, so that
  // variant runs every fresh evaluation through the scalar recover().
  struct Variant {
    const char* name;
    TsnKernel kernel;
    bool fresh_per_step;
    bool shared_cache;
  };
  const Variant variants[] = {
      {"warm", TsnKernel::kFast, false, false},
      {"warm-reference-kernels", TsnKernel::kReference, false, false},
      {"fresh-per-step", TsnKernel::kFast, true, false},
      {"shared-cache", TsnKernel::kFast, false, true},
  };

  const TsnKernel saved_kernel = tsn_kernel();
  for (const Variant& variant : variants) {
    VerificationEngine::Options options;
    options.min_order = min_order;
    options.include_links = include_links;
    options.flow_level_redundancy = flow_level;
    options.use_superset_pruning = pruning;
    if (variant.shared_cache) {
      options.staging = make_engine_staging(problem);
      options.shared_cache = std::make_shared<EngineSharedCache>();
    }
    VerificationEngine engine(nbf, options);

    set_tsn_kernel(variant.kernel);
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (variant.fresh_per_step) engine.clear();
      const auto seq = sequential.analyze(states[i]);
      const auto eng = engine.analyze(states[i]);
      expect_equivalent(eng, seq,
                        "seed " + std::to_string(seed) + " variant " + variant.name +
                            " step " + std::to_string(i) + " minord " +
                            std::to_string(min_order) + (include_links ? " links" : ""));
    }
    set_tsn_kernel(saved_kernel);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFrontiers, FrontierDifferential,
                         ::testing::Range<std::uint64_t>(1, 13));

// The scalar kReference kernel family must reproduce the packed kFast
// analysis byte-for-byte — the whole-pipeline form of the kernel-pair
// contract (sim_kernels.hpp: integer decisions, no FP divergence).
TEST(FrontierDifferential, KernelFamiliesAgreeOnFullAnalyses) {
  const auto problem = tiny_problem(3);
  const HeuristicRecovery nbf;
  FailureAnalyzer::Options options;
  options.min_order = 2;
  options.include_links = true;
  const FailureAnalyzer analyzer(nbf, options);

  Rng rng(5);
  const auto states = random_trajectory(problem, rng, 8);
  for (std::size_t i = 0; i < states.size(); ++i) {
    set_tsn_kernel(TsnKernel::kFast);
    const auto fast = analyzer.analyze(states[i]);
    set_tsn_kernel(TsnKernel::kReference);
    const auto reference = analyzer.analyze(states[i]);
    set_tsn_kernel(TsnKernel::kFast);
    expect_equivalent(fast, reference, "kernel family step " + std::to_string(i));
  }
}

// A triple-homed full-mesh plan on a 3-switch instance: survives every
// switch/link failure scenario up to order 2, so a min_order=2 mixed
// certificate exists for it.
Topology triple_mesh_topology(const PlanningProblem& problem) {
  Topology t(problem);
  for (const NodeId s : {4, 5, 6}) t.add_switch(s);
  for (NodeId u = 0; u < 4; ++u) {
    for (const NodeId s : {4, 5, 6}) t.add_link(u, s);
  }
  t.add_link(4, 5);
  t.add_link(4, 6);
  t.add_link(5, 6);
  return t;
}

PlanningProblem triple_mesh_problem() {
  auto problem = tiny_problem(3);
  problem.max_es_degree = 3;
  return problem;
}

// A reliable plan enumerates the FULL frontier (no early counterexample
// exit), so this is where the skip/prune/projection bookkeeping gets its
// deepest coverage: the engine must match the sequential analyzer on the
// triple-homed mesh at every frontier shape.
TEST(FrontierDifferential, ReliableTripleMeshFullEnumerationMatches) {
  const auto problem = triple_mesh_problem();
  const auto t = triple_mesh_topology(problem);
  const HeuristicRecovery nbf;

  for (const int min_order : {0, 1, 2, 3}) {
    for (const bool include_links : {false, true}) {
      FailureAnalyzer::Options seq_options;
      seq_options.min_order = min_order;
      seq_options.include_links = include_links;
      const FailureAnalyzer sequential(nbf, seq_options);
      const auto seq = sequential.analyze(t);
      if (min_order == 2) {
        EXPECT_TRUE(seq.reliable) << "triple mesh survives every order-2 scenario";
        EXPECT_GE(seq.max_order, 2);
      } else if (min_order == 3) {
        // The floor now forces the all-three-switches scenario, which no
        // plan on this instance can survive: a genuine order-3
        // counterexample, not a probability-frontier artifact.
        EXPECT_FALSE(seq.reliable);
        EXPECT_EQ(seq.counterexample.order(), 3);
      }

      VerificationEngine::Options options;
      options.min_order = min_order;
      options.include_links = include_links;
      VerificationEngine engine(nbf, options);
      expect_equivalent(engine.analyze(t), seq,
                        "mesh minord " + std::to_string(min_order) +
                            (include_links ? " links" : ""));
    }
  }
}

TEST(FrontierCertificate, MinOrderTwoMixedCertificateAuditsCleanAndRoundTrips) {
  const auto problem = triple_mesh_problem();
  const auto t = triple_mesh_topology(problem);
  const HeuristicRecovery nbf;

  CertificateOptions options;
  options.min_order = 2;
  options.include_links = true;
  const CertificateBuildResult built = build_certificate(t, nbf, options);
  ASSERT_TRUE(built.ok) << "triple-homed mesh must survive every order-2 scenario";
  EXPECT_EQ(built.certificate.min_order, 2);
  EXPECT_TRUE(built.certificate.include_links);
  EXPECT_GE(built.certificate.max_order, 2);
  // The frontier floor certifies mixed and double failures: more proofs than
  // the order-<=1 switch-only frontier (3 switches + empty) could hold.
  EXPECT_GT(built.certificate.proofs.size(), 4u);

  const AuditReport report = audit_certificate(problem, built.certificate);
  EXPECT_TRUE(report.ok) << report.summary();

  // Serialization round-trip preserves the audit verdict.
  ByteWriter out;
  save_certificate(built.certificate, out);
  const auto bytes = out.data();
  ByteReader in(bytes);
  const ReliabilityCertificate loaded = load_certificate(in);
  EXPECT_EQ(loaded.min_order, 2);
  EXPECT_TRUE(loaded.include_links);
  EXPECT_TRUE(audit_certificate(problem, loaded).ok);
}

TEST(FrontierCertificate, TamperedMixedCertificateIsRejected) {
  const auto problem = triple_mesh_problem();
  const auto t = triple_mesh_topology(problem);
  const HeuristicRecovery nbf;
  CertificateOptions options;
  options.min_order = 2;
  options.include_links = true;
  const CertificateBuildResult built = build_certificate(t, nbf, options);
  ASSERT_TRUE(built.ok);

  // Dropping any proof breaks completeness: the auditor re-enumerates the
  // mixed frontier independently and misses the deleted scenario.
  for (std::size_t victim : {std::size_t{0}, built.certificate.proofs.size() / 2,
                             built.certificate.proofs.size() - 1}) {
    ReliabilityCertificate tampered = built.certificate;
    tampered.proofs.erase(tampered.proofs.begin() + static_cast<std::ptrdiff_t>(victim));
    EXPECT_FALSE(audit_certificate(problem, tampered).ok)
        << "deleted proof " << victim << " must fail the audit";
  }

  // Understating the floor is a maxord/frontier mismatch, not a pass.
  {
    ReliabilityCertificate tampered = built.certificate;
    tampered.min_order = 0;
    EXPECT_FALSE(audit_certificate(problem, tampered).ok);
  }

  // A switch-only certificate claiming mixed proofs is structurally
  // malformed.
  {
    ReliabilityCertificate tampered = built.certificate;
    tampered.include_links = false;
    EXPECT_FALSE(audit_certificate(problem, tampered).ok);
  }
}

TEST(FrontierCertificate, DualHomedPlanCannotCertifyMinOrderTwo) {
  // Dual-homed end stations die when both their switches fail: the build
  // must fail with an order-2 counterexample instead of emitting a bogus
  // certificate.
  const auto problem = tiny_problem(3);
  const auto t = dual_homed_topology(problem, Asil::D);
  const HeuristicRecovery nbf;
  CertificateOptions options;
  options.min_order = 2;
  const CertificateBuildResult built = build_certificate(t, nbf, options);
  ASSERT_FALSE(built.ok);
  EXPECT_EQ(built.counterexample.order(), 2);
  EXPECT_FALSE(built.errors.empty());
}

}  // namespace
}  // namespace nptsn
