#include "scenarios/problem_spec.hpp"

#include <climits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "scenarios/ads.hpp"
#include "scenarios/generator.hpp"
#include "scenarios/orion.hpp"
#include "util/parse_number.hpp"

namespace nptsn {
namespace {

ProblemSpec random_flow_problem(const Scenario& scenario, const std::string& tag,
                                const std::string& name, int flows, std::uint64_t seed) {
  Rng rng(seed);
  return {tag + "-f" + std::to_string(flows) + "-s" + std::to_string(seed),
          name + " / " + std::to_string(flows) + " random flows",
          with_flows(scenario, random_flows(scenario.problem, flows, rng))};
}

}  // namespace

ProblemSpec parse_problem_spec(const std::string& text, const SpecFlowDefaults& defaults) {
  std::vector<std::string> fields;
  for (std::size_t start = 0;;) {
    const std::size_t colon = text.find(':', start);
    fields.push_back(text.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  const auto fail = [&](const std::string& why) {
    throw ValidationError("problem spec '" + text + "': " + why);
  };
  // Field i as a non-negative decimal integer no larger than `max`.
  const auto number = [&](std::size_t i, std::uint64_t max) {
    const std::optional<std::uint64_t> value = parse_decimal<std::uint64_t>(fields[i], 0, max);
    if (!value) fail("field " + std::to_string(i) + " is not a non-negative integer");
    return *value;
  };
  const auto count = [&](std::size_t i) { return static_cast<int>(number(i, INT_MAX)); };
  const std::string& family = fields[0];
  const std::size_t max_fields = family == "ads" ? 1 : family == "orion" ? 3 : 7;
  if (fields.size() > max_fields) fail("too many fields");

  if (family == "ads") {
    if (defaults.flows >= 0) {
      return random_flow_problem(make_ads(), "ads", "ADS", defaults.flows, defaults.seed);
    }
    return {"ads", "ADS / application flows", with_flows(make_ads(), ads_flows())};
  }
  if (family == "orion") {
    const int flows = fields.size() > 1 ? count(1) : defaults.flows >= 0 ? defaults.flows : 4;
    const std::uint64_t seed = fields.size() > 2 ? number(2, UINT64_MAX) : defaults.seed;
    return random_flow_problem(make_orion(), "orion", "ORION", flows, seed);
  }
  if (family != "gen") throw ValidationError("unknown problem spec '" + text + "'");
  if (fields.size() < 2) {
    fail("needs a seed: gen:SEED[:FLOWS[:ZONES[:SPZ[:BACKBONE[:ESDEG]]]]]");
  }
  const std::uint64_t seed = number(1, UINT64_MAX);
  GeneratorParams params;
  // SPZ, BACKBONE and ESDEG are the richness knobs frontier hardening needs:
  // a min-order-2 plan only exists when end stations can be homed to >= 3
  // switches.
  int* const knobs[] = {&params.flow_count, &params.zones, &params.switches_per_zone,
                        &params.backbone_switches, &params.max_es_degree};
  for (std::size_t i = 2; i < fields.size(); ++i) *knobs[i - 2] = count(i);
  std::string id = "gen-" + std::to_string(seed) + "-f" + std::to_string(params.flow_count) +
                   "-z" + std::to_string(params.zones);
  if (fields.size() > 4) {
    id += "-s" + std::to_string(params.switches_per_zone) + "-b" +
          std::to_string(params.backbone_switches) + "-d" +
          std::to_string(params.max_es_degree);
  }
  return {std::move(id), describe(params) + " seed " + std::to_string(seed),
          generate(params, seed)};
}

}  // namespace nptsn
