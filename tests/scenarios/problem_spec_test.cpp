#include "scenarios/problem_spec.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenarios/ads.hpp"
#include "scenarios/generator.hpp"
#include "scenarios/orion.hpp"
#include "scenarios/scenario.hpp"

namespace nptsn {
namespace {

// The problems the tools built inline before they shared one parser, written
// out longhand: the spec grammar is an interface (certificates are audited
// against a spec long after planning), so a spec must keep naming exactly
// these bytes.
std::vector<std::uint8_t> random_flow_bytes(const Scenario& scenario, int flows,
                                            std::uint64_t seed) {
  Rng rng(seed);
  return problem_bytes(with_flows(scenario, random_flows(scenario.problem, flows, rng)));
}

std::vector<std::uint8_t> generated_bytes(std::uint64_t seed, const std::vector<int>& knobs) {
  GeneratorParams params;
  int* const fields[] = {&params.flow_count, &params.zones, &params.switches_per_zone,
                         &params.backbone_switches, &params.max_es_degree};
  for (std::size_t i = 0; i < knobs.size(); ++i) *fields[i] = knobs[i];
  return problem_bytes(generate(params, seed));
}

TEST(ProblemSpec, EveryFormBuildsTheProblemTheToolsBuilt) {
  struct Case {
    std::string text;
    SpecFlowDefaults defaults;
    std::vector<std::uint8_t> bytes;
    std::string id;
  };
  const Scenario ads = make_ads();
  const Scenario orion = make_orion();
  const std::vector<Case> cases = {
      // nptsn_serve's forms (no flow defaults).
      {"ads", {}, problem_bytes(with_flows(ads, ads_flows())), "ads"},
      {"orion", {}, random_flow_bytes(orion, 4, 1), "orion-f4-s1"},
      {"orion:6", {}, random_flow_bytes(orion, 6, 1), "orion-f6-s1"},
      {"orion:6:3", {}, random_flow_bytes(orion, 6, 3), "orion-f6-s3"},
      {"gen:11", {}, generated_bytes(11, {}), "gen-11-f8-z4"},
      {"gen:11:4:2", {}, generated_bytes(11, {4, 2}), "gen-11-f4-z2"},
      {"gen:12:5", {}, generated_bytes(12, {5}), "gen-12-f5-z4"},
      {"gen:7:4:3:2", {}, generated_bytes(7, {4, 3, 2}), "gen-7-f4-z3-s2-b2-d2"},
      {"gen:3:2:2:3:0:3", {}, generated_bytes(3, {2, 2, 3, 0, 3}), "gen-3-f2-z2-s3-b0-d3"},
      // nptsn_audit's --flows / --flow-seed on ads and orion.
      {"ads", {5, 2}, random_flow_bytes(ads, 5, 2), "ads-f5-s2"},
      {"ads", {-1, 9}, problem_bytes(with_flows(ads, ads_flows())), "ads"},
      {"orion", {-1, 7}, random_flow_bytes(orion, 4, 7), "orion-f4-s7"},
      {"orion", {10, 7}, random_flow_bytes(orion, 10, 7), "orion-f10-s7"},
      {"orion:6", {10, 7}, random_flow_bytes(orion, 6, 7), "orion-f6-s7"},
      {"orion:6:3", {10, 7}, random_flow_bytes(orion, 6, 3), "orion-f6-s3"},
      {"gen:11", {10, 7}, generated_bytes(11, {}), "gen-11-f8-z4"},
  };
  for (const Case& c : cases) {
    const ProblemSpec spec = parse_problem_spec(c.text, c.defaults);
    EXPECT_EQ(problem_bytes(spec.problem), c.bytes)
        << c.text << " --flows " << c.defaults.flows << " --flow-seed " << c.defaults.seed;
    EXPECT_EQ(spec.id, c.id) << c.text;
    EXPECT_FALSE(spec.label.empty()) << c.text;
  }
}

TEST(ProblemSpec, MalformedSpecsAreValidationErrors) {
  for (const std::string text :
       {"", "nope", "ads:4", "orion:", "orion:x", "orion:-1", "orion:4:", "orion:4:1:2",
        "gen", "gen:", "gen:x", "gen:11:4:2:1:1:2:9", "gen:11:+4", "gen:11:0",
        "gen:11:4:0", "problem:a.bin"}) {
    EXPECT_THROW(parse_problem_spec(text), ValidationError) << "'" << text << "'";
  }
}

}  // namespace
}  // namespace nptsn
