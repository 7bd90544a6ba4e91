// Survival-Oriented Action Generator (Section IV-B, Algorithm 1).
//
// Generates the dynamic action space from the failure analyzer's feedback:
//  * |Vc_sw| switch-upgrade actions — add an absent optional switch at
//    ASIL-A, or raise a present one by one level (masked out at ASIL-D);
//  * K path-addition actions — Yen k-shortest paths between one randomly
//    chosen unrecovered (source, destination) pair, computed on Gc minus the
//    failed nodes/links and minus the switches not yet planned (paths may
//    only traverse already-added switches), masked by the degree constraint.
//
// Gc is snapshotted once, in the constructor, as a read-only CsrGraph; each
// generate() expresses Alg. 1 lines 2-4 as node and edge bans on a per-call
// CsrSearch over it, so no step copies a graph.
#pragma once

#include "core/actions.hpp"
#include "graph/csr.hpp"
#include "net/topology.hpp"
#include "tsn/recovery.hpp"
#include "util/rng.hpp"

namespace nptsn {

class Soag {
 public:
  // k: number of path-addition action slots (K of Table II).
  Soag(const PlanningProblem& problem, int k);

  // failure/errors: the non-recoverable scenario and its error message from
  // the last failure analysis. When errors is empty (no analysis feedback),
  // only switch actions are generated. rng picks the (s, d) pair (Alg. 1
  // line 1).
  ActionSpace generate(const Topology& topology, const FailureScenario& failure,
                       const ErrorSet& errors, Rng& rng) const;

  // Alg. 1 lines 2-5 for one (s, d) pair: up to K Yen paths on Gc minus
  // failure's switches and links, minus the switches the topology lacks.
  // generate() uses it for the pair it picks.
  std::vector<Path> candidate_paths(const Topology& topology, const FailureScenario& failure,
                                    NodeId s, NodeId d) const;

  int num_actions() const;
  int k() const { return k_; }

 private:
  const PlanningProblem* problem_;
  int k_;
  CsrGraph connections_;       // read-only view of Gc
  TransitFilter can_transit_;  // end stations never relay flows
};

}  // namespace nptsn
