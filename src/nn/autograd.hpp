// Reverse-mode automatic differentiation over Matrix values.
//
// A Tensor is a value-semantic handle to a node of a dynamically built
// computation graph. Operations record a backprop closure; calling
// backward() on a scalar result accumulates gradients into every reachable
// parameter (leaf tensor created with Tensor::parameter). This replaces the
// paper's PyTorch dependency — only the operations the GCN/actor-critic
// stack needs are implemented, each with an analytically derived adjoint
// (validated against finite differences in tests/nn/autograd_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "nn/matrix.hpp"

namespace nptsn {

namespace detail {

struct Node {
  Matrix value;
  Matrix grad;  // allocated on first use, same shape as value
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates this->grad into the parents' grads.
  std::function<void(Node&)> backprop;

  Matrix& ensure_grad();
};

}  // namespace detail

class Tensor {
 public:
  Tensor() = default;

  // A constant input (observation, adjacency): never receives gradient.
  static Tensor constant(Matrix value);
  // A trainable leaf (weight, bias).
  static Tensor parameter(Matrix value);

  bool defined() const { return node_ != nullptr; }
  bool requires_grad() const;

  const Matrix& value() const;
  // Direct mutation for the optimizer; only meaningful on leaves.
  Matrix& mutable_value();
  const Matrix& grad() const;
  Matrix& mutable_grad();
  void zero_grad();

  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }
  // Value of a 1x1 tensor.
  double item() const;

  // Backpropagates from this scalar (1x1) tensor; gradients ACCUMULATE into
  // leaves, call zero_grad (or Adam::zero_grad) between backward passes.
  void backward() const;

  // Internal: builds an op node.
  static Tensor make_op(Matrix value, std::vector<Tensor> inputs,
                        std::function<void(detail::Node&)> backprop);
  const std::shared_ptr<detail::Node>& node() const { return node_; }

 private:
  explicit Tensor(std::shared_ptr<detail::Node> node) : node_(std::move(node)) {}
  std::shared_ptr<detail::Node> node_;
};

// --- differentiable operations ---------------------------------------------
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, double s);
Tensor hadamard(const Tensor& a, const Tensor& b);
Tensor relu(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor exp_op(const Tensor& a);
// Column-wise mean over rows: n x F -> 1 x F (GCN readout, PPO batch means).
Tensor mean_rows(const Tensor& a);
Tensor sum_all(const Tensor& a);  // -> 1 x 1
Tensor concat_cols(const Tensor& a, const Tensor& b);
// Elementwise clamp; gradient is zero outside [lo, hi] (PPO clipping).
Tensor clamp(const Tensor& a, double lo, double hi);
// Elementwise min; gradient routed to the smaller input (ties: a).
Tensor min2(const Tensor& a, const Tensor& b);
// B x A logits -> B x 1: row i's log-probability of actions[i] under the
// stable softmax over the entries with masks[i * A + j] != 0 (masked entries
// get probability 0 and zero gradient). masks is B x A row-major; every row
// needs an unmasked entry, and actions[i] must be one of them.
Tensor masked_log_prob(const Tensor& logits, const std::vector<std::uint8_t>& masks,
                       const std::vector<int>& actions);
Tensor transpose_op(const Tensor& a);

// --- fused / batched operations (the NN hot path, DESIGN.md §11) -------------
// One tape node for act(x W + bias): the GEMM, the bias broadcast, and the
// activation run as a single fused kernel pass, and the backward pass uses
// the transposed-GEMM kernels instead of materializing transposes.
Tensor affine_act(const Tensor& x, const Tensor& w, const Tensor& bias, Epilogue act);
// The whole batched GCN encoder (Eq. 4 layers and the mean readout) as ONE
// tape node over B same-sized graphs stacked vertically. `features` holds B
// blocks of n = block_rows rows, staged as CSR rows (the observation
// features are a few percent nonzero), and `a_hats` the B graphs' n x n
// A-hat stacked the same way, (B n) x n; layer l maps graph g's rows H to
// relu(A_g (H W_l + b_l)), A_g being rows [g n, (g + 1) n) of a_hats, and
// row g of the B x width result is the column mean of graph g's last layer
// (of its features when `layers` is empty). The forward runs every layer of a graph back to back in
// block_rows x width tiles; the backward streams the batch a few graphs at a
// time through the same kind of tiles, so no stacked gradient matrix exists.
// The node keeps the stacked outputs of layers 1..L-1, one byte per element
// of the last layer's ReLU gate, and a reference to the features for the
// first layer's x^T delta. Each kernel family computes every output and
// gradient bit the unfused tape of affine, per-graph A-hat products, ReLU
// and per-graph means computes over the dense features (DESIGN.md §11).
// The features are constants (they receive no gradient), and the
// adjacencies must be symmetric (CsrRows::symmetric(), true for every Eq. 4
// A-hat; anything else throws): the backward propagates A_g^T delta =
// A_g delta with the forward's CSR product. a_hats may be null when `layers`
// is empty.
struct GcnWeights {
  Tensor weight;  // in x out
  Tensor bias;    // 1 x out
};
Tensor gcn_encoder(const std::shared_ptr<const CsrRows>& a_hats, int block_rows,
                   const std::shared_ptr<const CsrRows>& features,
                   const std::vector<GcnWeights>& layers);
// Stacks B 1 x C rows into a B x C tensor (per-observation fallback path
// for encoders without a batched forward).
Tensor stack_rows(const std::vector<Tensor>& rows);
// Elementwise LeakyReLU with the given negative-side slope.
Tensor leaky_relu(const Tensor& a, double negative_slope = 0.2);
// Row-wise softmax over an n x n score matrix where only entries with
// mask.at(i, j) != 0 participate (others get probability 0). Every row must
// have at least one unmasked entry. Used by the GAT attention layer, where
// the mask is the self-looped adjacency.
Tensor masked_softmax_rows(const Tensor& scores, const Matrix& mask);

// --- numeric sentinels -------------------------------------------------------
// Read-only scans the training health supervisor runs at epoch boundaries.
// Both tolerate leaves whose gradient was never allocated (treated as zero).

// First NaN/Inf among the parameters' VALUES: (found, offending value).
std::pair<bool, double> find_non_finite_value(const std::vector<Tensor>& params);

// One pass over the parameters' accumulated GRADIENTS: flags the first
// NaN/Inf and accumulates the squared L2 norm of everything scanned so far
// (norm is only meaningful when non_finite is false).
struct GradientScan {
  bool non_finite = false;
  double bad_value = 0.0;   // the offending NaN/Inf when non_finite
  double squared_norm = 0.0;
};
GradientScan scan_gradients(const std::vector<Tensor>& params);

}  // namespace nptsn
