// Encodes the TSSDN state and the dynamic action space into the GCN
// observation (Section IV-C, "Encoding Method").
//
// Feature matrix, |Vc| x (1 + |Vc| + |Ves| + K):
//   [0]                switch features — csw(deg, ASIL) for planned switches
//   [1 .. |Vc|]        link features — clk(ASIL(u,v)) for planned links
//   [.. + |Ves|]       flow features — # flows between node u and station v
//   [.. + K]           dynamic actions — 1 where the path traverses the node
// Costs are scaled down by a constant so the GCN inputs stay O(1).
// The parameter vector carries the per-flow (period, frame size) pairs plus
// the base-period slot count.
//
// Both graph inputs are built straight from Gt's ordered adjacency lists in
// the CSR forms the GCN kernels read (DESIGN.md §11): A_hat row i holds i
// and its neighbours in ascending order, each entry s_i * s_j with
// s_i = 1 / sqrt(deg_i + 1); feature row v holds its nonzero entries block
// by block in column order. Neither is ever a dense matrix.
#pragma once

#include <cstddef>
#include <vector>

#include "core/actions.hpp"
#include "net/topology.hpp"
#include "rl/env.hpp"

namespace nptsn {

class ObservationEncoder {
 public:
  ObservationEncoder(const PlanningProblem& problem, int k);

  int feature_dim() const;
  int param_dim() const;

  Observation encode(const Topology& topology, const ActionSpace& actions) const;

 private:
  const PlanningProblem* problem_;
  int k_;
  Matrix params_;  // constant per problem; computed once
  // The flow block (block 3) never changes for the life of the problem: row
  // v's nonzero entries, columns flow_cols_[t] and values flow_vals_[t] for
  // t in [flow_ptr_[v], flow_ptr_[v + 1]), ascending columns.
  std::vector<std::size_t> flow_ptr_;
  std::vector<int> flow_cols_;
  std::vector<double> flow_vals_;
};

}  // namespace nptsn
