#include "nn/layers.hpp"

#include <cmath>

#include "util/expect.hpp"

namespace nptsn {
namespace {

// Xavier/Glorot uniform initialization.
Matrix init_weight(int in_features, int out_features, Rng& rng) {
  NPTSN_EXPECT(in_features > 0 && out_features > 0, "layer dimensions must be positive");
  const double bound = std::sqrt(6.0 / static_cast<double>(in_features + out_features));
  Matrix w(in_features, out_features);
  for (int i = 0; i < w.size(); ++i) w.data()[i] = rng.uniform(-bound, bound);
  return w;
}

}  // namespace

Linear::Linear(int in_features, int out_features, Rng& rng)
    : weight_(Tensor::parameter(init_weight(in_features, out_features, rng))),
      bias_(Tensor::parameter(Matrix(1, out_features))) {}

Tensor Linear::forward(const Tensor& x) const {
  return forward_act(x, Epilogue::kNone);
}

Tensor Linear::forward_act(const Tensor& x, Epilogue act) const {
  NPTSN_EXPECT(x.cols() == in_features(), "linear input width mismatch");
  return affine_act(x, weight_, bias_, act);
}

void Linear::collect_parameters(std::vector<Tensor>& out) const {
  out.push_back(weight_);
  out.push_back(bias_);
}

GatLayer::GatLayer(int in_features, int out_features, Rng& rng)
    : lin_(in_features, out_features, rng),
      attn_src_(Tensor::parameter(init_weight(out_features, 1, rng))),
      attn_dst_(Tensor::parameter(init_weight(out_features, 1, rng))) {}

Tensor GatLayer::forward(const Matrix& neighborhood, const Tensor& h) const {
  NPTSN_EXPECT(neighborhood.rows() == neighborhood.cols() &&
                   neighborhood.rows() == h.rows(),
               "neighborhood/feature shape mismatch");
  const int n = h.rows();
  const Tensor wh = lin_.forward(h);                       // n x out
  const Tensor src = matmul(wh, attn_src_);                // n x 1
  const Tensor dst = matmul(wh, attn_dst_);                // n x 1
  const Tensor ones_row = Tensor::constant(Matrix(1, n, 1.0));
  const Tensor ones_col = Tensor::constant(Matrix(n, 1, 1.0));
  // scores_ij = src_i + dst_j via rank-one broadcasts.
  const Tensor scores =
      leaky_relu(add(matmul(src, ones_row), matmul(ones_col, transpose_op(dst))));
  const Tensor attention = masked_softmax_rows(scores, neighborhood);
  return relu(matmul(attention, wh));
}

void GatLayer::collect_parameters(std::vector<Tensor>& out) const {
  lin_.collect_parameters(out);
  out.push_back(attn_src_);
  out.push_back(attn_dst_);
}

Mlp::Mlp(int in_features, const std::vector<int>& hidden, int out_features, Rng& rng) {
  int width = in_features;
  for (const int h : hidden) {
    layers_.emplace_back(width, h, rng);
    width = h;
  }
  layers_.emplace_back(width, out_features, rng);
}

Tensor Mlp::forward(Tensor x) const {
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    x = layers_[i].forward_act(x, Epilogue::kTanh);
  }
  return layers_.back().forward(x);
}

void Mlp::collect_parameters(std::vector<Tensor>& out) const {
  for (const auto& layer : layers_) layer.collect_parameters(out);
}

}  // namespace nptsn
