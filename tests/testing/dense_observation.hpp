// The dense observation encoding, kept as a test oracle for the CSR forms
// the observation encoder emits (core/observation_encoder): Eq. 4's
// normalization of a 0/1 adjacency matrix and the four feature blocks, each
// computed on a dense matrix as the encoder once did. Plus the one helper
// that stages dense test matrices into an Observation, and a field-by-field
// comparison of CSR forms.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/actions.hpp"
#include "net/topology.hpp"
#include "rl/env.hpp"
#include "util/expect.hpp"

namespace nptsn::testing {

// A_hat = D^-1/2 (A + I) D^-1/2 of a raw 0/1 adjacency matrix (self loops
// added here): the degrees summed over each row, then every entry scaled by
// s_i * s_j.
inline Matrix normalized_adjacency(const Matrix& adjacency) {
  NPTSN_EXPECT(adjacency.rows() == adjacency.cols(), "adjacency must be square");
  const int n = adjacency.rows();
  Matrix a = adjacency;
  for (int i = 0; i < n; ++i) a.at(i, i) = 1.0;  // self loops

  std::vector<double> inv_sqrt_degree(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    double degree = 0.0;
    for (int j = 0; j < n; ++j) {
      NPTSN_EXPECT(a.at(i, j) == 0.0 || a.at(i, j) == 1.0, "adjacency must be 0/1");
      degree += a.at(i, j);
    }
    inv_sqrt_degree[static_cast<std::size_t>(i)] = 1.0 / std::sqrt(degree);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a.at(i, j) *= inv_sqrt_degree[static_cast<std::size_t>(i)] *
                    inv_sqrt_degree[static_cast<std::size_t>(j)];
    }
  }
  return a;
}

struct DenseEncoding {
  Matrix a_hat;     // n x n
  Matrix features;  // n x (1 + n + |Ves| + K)
};

// The dense encoding of (topology, actions) for `problem` with K = k path
// slots, block by block as ObservationEncoder documents it.
inline DenseEncoding dense_encoding(const PlanningProblem& problem, int k,
                                    const Topology& topology, const ActionSpace& actions) {
  constexpr double kCostScale = 0.01;
  constexpr double kFlowScale = 0.1;
  const int n = problem.num_nodes();
  DenseEncoding out;

  Matrix adjacency(n, n);
  for (const auto& edge : topology.graph().edges()) {
    adjacency.at(edge.u, edge.v) = 1.0;
    adjacency.at(edge.v, edge.u) = 1.0;
  }
  out.a_hat = normalized_adjacency(adjacency);

  Matrix features(n, 1 + n + problem.num_end_stations + k);
  // Block 3 (flow demand), summed in problem order.
  const int flow_base = 1 + n;
  for (const auto& flow : problem.flows) {
    features.at(flow.source, flow_base + flow.destination) += kFlowScale;
    features.at(flow.destination, flow_base + flow.source) += kFlowScale;
  }
  // Block 1 (col 0): switch cost; end stations and absent switches are 0.
  for (const NodeId v : topology.selected_switches()) {
    features.at(v, 0) =
        problem.library.switch_cost(topology.degree(v), topology.switch_asil(v)) * kCostScale;
  }
  // Block 2 (cols 1 .. n): per-unit link cost of the planned links.
  for (const auto& edge : topology.graph().edges()) {
    const double cost =
        problem.library.link_cost(topology.link_asil(edge.u, edge.v), 1.0) * kCostScale;
    features.at(edge.u, 1 + edge.v) = cost;
    features.at(edge.v, 1 + edge.u) = cost;
  }
  // Block 4 (K cols): nodes traversed by each path-addition action.
  const int action_base = 1 + n + problem.num_end_stations;
  for (int slot = 0; slot < k; ++slot) {
    const auto& action = actions.actions[static_cast<std::size_t>(problem.num_switches() + slot)];
    for (const NodeId v : action.path) features.at(v, action_base + slot) = 1.0;
  }
  out.features = std::move(features);
  return out;
}

// An Observation of dense test matrices: a_hat (n x n) and features
// (n x F) staged into the CSR forms an encoder emits, by the dense-scan
// constructors.
inline Observation observation_of(const Matrix& a_hat, const Matrix& features, Matrix params) {
  Observation obs;
  obs.a_hat = std::make_shared<const CsrRows>(a_hat.cols(), std::vector<const Matrix*>{&a_hat});
  obs.features =
      std::make_shared<const CsrRows>(features.cols(), std::vector<const Matrix*>{&features});
  obs.params = std::move(params);
  return obs;
}

namespace detail {

// Joins the parts into a message (streamed, not "literal" + std::to_string,
// which GCC 12 falsely flags under -Wrestrict).
template <class... Parts>
std::string message(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

}  // namespace detail

// The first field in which two CSR forms differ (shape, symmetric(), a row
// pointer, a column, the bits of a value), or "" when they are equal.
inline std::string csr_difference(const CsrRows& got, const CsrRows& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return detail::message("shape: ", got.rows(), " x ", got.cols(), ", want ", want.rows(),
                           " x ", want.cols());
  }
  if (got.symmetric() != want.symmetric()) return "symmetric()";
  for (int r = 0; r < got.rows(); ++r) {
    if (got.row_end(r) != want.row_end(r)) return detail::message("row pointer after row ", r);
  }
  for (std::size_t t = 0; t < got.nnz(); ++t) {
    if (got.csr_cols()[t] != want.csr_cols()[t]) return detail::message("column of entry ", t);
    if (std::memcmp(got.csr_vals() + t, want.csr_vals() + t, sizeof(double)) != 0) {
      return detail::message("value bits of entry ", t);
    }
  }
  return "";
}

}  // namespace nptsn::testing
