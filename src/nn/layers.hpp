// Network building blocks: Linear, the GAT ablation layer, and MLP stacks.
// The GCN layers of Eq. 4 are Linear weights run by the batched encoder node
// (gcn_encoder in nn/autograd) over the A-hat the observation encoder
// builds (core/observation_encoder).
#pragma once

#include <vector>

#include "nn/autograd.hpp"
#include "util/rng.hpp"

namespace nptsn {

// Fully connected layer, y = x W + b with W: in x out, b: 1 x out.
class Linear {
 public:
  Linear(int in_features, int out_features, Rng& rng);

  // x: n x in -> n x out (bias broadcast over rows).
  Tensor forward(const Tensor& x) const;
  // act(x W + b) as one fused tape node (GEMM + bias + activation in a
  // single kernel pass); forward() is forward_act with Epilogue::kNone.
  Tensor forward_act(const Tensor& x, Epilogue act) const;

  int in_features() const { return weight_.value().rows(); }
  int out_features() const { return weight_.value().cols(); }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }
  void collect_parameters(std::vector<Tensor>& out) const;

 private:
  Tensor weight_;
  Tensor bias_;
};

// One graph-attention layer (Velickovic et al., the GAT alternative the
// paper discusses and rejects in Section IV-C — kept as an ablation):
//   e_ij   = LeakyReLU(a_src^T W h_i + a_dst^T W h_j)   for j in N(i) u {i}
//   alpha  = softmax_j(e_ij)
//   h'_i   = relu(sum_j alpha_ij W h_j)
// Single attention head; the neighborhood mask is any n x n matrix whose
// non-zero entries mark attendable pairs (A_hat works directly).
class GatLayer {
 public:
  GatLayer(int in_features, int out_features, Rng& rng);

  // neighborhood: n x n mask (non-zero = attend); h: n x in -> n x out.
  Tensor forward(const Matrix& neighborhood, const Tensor& h) const;

  void collect_parameters(std::vector<Tensor>& out) const;

 private:
  Linear lin_;
  Tensor attn_src_;  // out x 1
  Tensor attn_dst_;  // out x 1
};

// Multi-layer perceptron with tanh hidden activations and a linear head —
// the actor/critic head architecture used by SpinningUp PPO.
class Mlp {
 public:
  Mlp(int in_features, const std::vector<int>& hidden, int out_features, Rng& rng);

  Tensor forward(Tensor x) const;
  void collect_parameters(std::vector<Tensor>& out) const;

 private:
  std::vector<Linear> layers_;
};

}  // namespace nptsn
