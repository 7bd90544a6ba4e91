#include "core/observation_encoder.hpp"

#include <cmath>
#include <cstdint>
#include <memory>

#include "util/expect.hpp"

namespace nptsn {
namespace {

// Keeps cost-valued features in O(1) range for the GCN.
constexpr double kCostScale = 0.01;
constexpr double kFlowScale = 0.1;

}  // namespace

ObservationEncoder::ObservationEncoder(const PlanningProblem& problem, int k)
    : problem_(&problem), k_(k) {
  NPTSN_EXPECT(k >= 1, "need at least one path action slot");
  // Parameter vector: per flow (period / base period, frame bytes / MTU),
  // then the slot count; constant for the life of the problem.
  const auto num_flows = problem.flows.size();
  params_ = Matrix(1, static_cast<int>(2 * num_flows) + 1);
  for (std::size_t f = 0; f < num_flows; ++f) {
    params_.at(0, static_cast<int>(2 * f)) =
        problem.flows[f].period_us / problem.tsn.base_period_us;
    params_.at(0, static_cast<int>(2 * f) + 1) =
        static_cast<double>(problem.flows[f].frame_bytes) / 1500.0;
  }
  params_.at(0, params_.cols() - 1) =
      static_cast<double>(problem.tsn.slots_per_base) / 100.0;

  // Block 3 (flow demand between u and end station v): the flows summed in
  // problem order, once per problem, then kept as each row's nonzeros.
  const int n = problem.num_nodes();
  const int flow_base = 1 + n;
  Matrix flows(n, problem.num_end_stations);
  for (const auto& flow : problem.flows) {
    flows.at(flow.source, flow.destination) += kFlowScale;
    flows.at(flow.destination, flow.source) += kFlowScale;
  }
  flow_ptr_.push_back(0);
  for (int v = 0; v < n; ++v) {
    for (int c = 0; c < flows.cols(); ++c) {
      if (flows.at(v, c) == 0.0) continue;
      flow_cols_.push_back(flow_base + c);
      flow_vals_.push_back(flows.at(v, c));
    }
    flow_ptr_.push_back(flow_cols_.size());
  }
}

int ObservationEncoder::feature_dim() const {
  return 1 + problem_->num_nodes() + problem_->num_end_stations + k_;
}

int ObservationEncoder::param_dim() const { return params_.cols(); }

Observation ObservationEncoder::encode(const Topology& topology,
                                       const ActionSpace& actions) const {
  NPTSN_EXPECT(actions.size() == problem_->num_switches() + k_,
               "action space arity mismatch");
  const int n = problem_->num_nodes();
  const Graph& gt = topology.graph();

  // Eq. 4's A_hat = D^-1/2 (A + I) D^-1/2 of Gt. Row i holds i and its
  // neighbours j in ascending order, each s_i * s_j with
  // s_i = 1 / sqrt(deg_i + 1): the degree of A + I is an exact integer, and
  // s_i * s_j == s_j * s_i keeps the rows symmetric.
  std::vector<double> s(static_cast<std::size_t>(n));
  std::size_t links = 0;
  for (int v = 0; v < n; ++v) {
    const int degree = gt.degree(v);
    s[static_cast<std::size_t>(v)] = 1.0 / std::sqrt(static_cast<double>(degree + 1));
    links += static_cast<std::size_t>(degree);
  }
  std::vector<std::size_t> a_ptr;
  std::vector<int> a_cols;
  std::vector<double> a_vals;
  a_ptr.reserve(static_cast<std::size_t>(n) + 1);
  a_cols.reserve(links + static_cast<std::size_t>(n));
  a_vals.reserve(links + static_cast<std::size_t>(n));
  a_ptr.push_back(0);
  for (int i = 0; i < n; ++i) {
    const auto entry = [&](int j) {
      a_cols.push_back(j);
      a_vals.push_back(s[static_cast<std::size_t>(i)] * s[static_cast<std::size_t>(j)]);
    };
    bool self = false;  // the self loop goes before the first neighbour above i
    for (const auto& [j, length] : gt.neighbors(i)) {
      if (!self && j > i) {
        entry(i);
        self = true;
      }
      entry(j);
    }
    if (!self) entry(i);
    a_ptr.push_back(a_cols.size());
  }

  // Block 4's marks: on_path[v * K + slot] when the slot's path-addition
  // action traverses v.
  std::vector<std::uint8_t> on_path(static_cast<std::size_t>(n) * k_, 0);
  for (int slot = 0; slot < k_; ++slot) {
    const auto& action =
        actions.actions[static_cast<std::size_t>(problem_->num_switches() + slot)];
    NPTSN_ASSERT(action.kind == Action::Kind::kAddPath, "path slot holds a non-path action");
    for (const NodeId v : action.path) {
      NPTSN_EXPECT(v >= 0 && v < n, "path node out of range");
      on_path[static_cast<std::size_t>(v) * k_ + static_cast<std::size_t>(slot)] = 1;
    }
  }

  // Feature row v, block by block in column order; entries equal to 0.0 are
  // not stored.
  std::vector<std::size_t> f_ptr;
  std::vector<int> f_cols;
  std::vector<double> f_vals;
  f_ptr.reserve(static_cast<std::size_t>(n) + 1);
  f_ptr.push_back(0);
  const auto put = [&](int col, double value) {
    if (value == 0.0) return;
    f_cols.push_back(col);
    f_vals.push_back(value);
  };
  const int action_base = 1 + n + problem_->num_end_stations;
  for (int v = 0; v < n; ++v) {
    // Block 1 (col 0): switch cost; end stations and absent switches are 0.
    if (topology.has_switch(v)) {
      put(0, problem_->library.switch_cost(topology.degree(v), topology.switch_asil(v)) *
                 kCostScale);
    }
    // Block 2 (cols 1 .. n): per-unit link cost of the planned links.
    for (const auto& [u, length] : gt.neighbors(v)) {
      put(1 + u, problem_->library.link_cost(topology.link_asil(v, u), 1.0) * kCostScale);
    }
    // Block 3 (|Ves| cols): the constant flow-demand block.
    for (std::size_t t = flow_ptr_[static_cast<std::size_t>(v)];
         t < flow_ptr_[static_cast<std::size_t>(v) + 1]; ++t) {
      put(flow_cols_[t], flow_vals_[t]);
    }
    // Block 4 (K cols): the path-addition actions that traverse v.
    for (int slot = 0; slot < k_; ++slot) {
      if (on_path[static_cast<std::size_t>(v) * k_ + static_cast<std::size_t>(slot)] != 0) {
        put(action_base + slot, 1.0);
      }
    }
    f_ptr.push_back(f_cols.size());
  }

  Observation obs;
  obs.a_hat = std::make_shared<const CsrRows>(n, std::move(a_ptr), std::move(a_cols),
                                              std::move(a_vals));
  obs.features = std::make_shared<const CsrRows>(feature_dim(), std::move(f_ptr),
                                                 std::move(f_cols), std::move(f_vals));
  obs.params = params_;
  return obs;
}

}  // namespace nptsn
