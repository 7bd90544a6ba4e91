// Problem specs: the one grammar nptsn_serve and nptsn_audit name a
// planning problem with. Every form is deterministic, so a spec alone
// rebuilds the exact problem a plan or a certificate was made for.
//
//   ads                    the ADS scenario with its application flows
//   orion[:FLOWS[:SEED]]   ORION with FLOWS random flows from Rng(SEED)
//                          (defaults 4 and 1)
//   gen:SEED[:FLOWS[:ZONES[:SPZ[:BACKBONE[:ESDEG]]]]]
//                          a generated zonal instance (scenarios/generator);
//                          omitted fields keep their GeneratorParams defaults
#pragma once

#include <cstdint>
#include <string>

#include "scenarios/scenario.hpp"

namespace nptsn {

// Random flows an ads or orion spec falls back to when it names none;
// flows < 0 keeps the scenario default (ADS: its application flows, ORION:
// 4). A spec's own FLOWS and SEED fields win.
struct SpecFlowDefaults {
  int flows = -1;
  std::uint64_t seed = 1;
};

struct ProblemSpec {
  std::string id;     // file-name safe, e.g. "orion-f4-s1", "gen-11-f8-z4"
  std::string label;  // one line for logs
  PlanningProblem problem;
};

// Throws ValidationError on an unknown or malformed spec, including fields
// that are not non-negative integers and generator parameters that describe
// no valid instance.
ProblemSpec parse_problem_spec(const std::string& text, const SpecFlowDefaults& defaults = {});

}  // namespace nptsn
