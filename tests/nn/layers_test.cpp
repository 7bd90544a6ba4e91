#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace nptsn {
namespace {

TEST(Linear, ShapesAndParameterCount) {
  Rng rng(1);
  Linear layer(5, 3, rng);
  EXPECT_EQ(layer.in_features(), 5);
  EXPECT_EQ(layer.out_features(), 3);
  std::vector<Tensor> params;
  layer.collect_parameters(params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].rows(), 5);
  EXPECT_EQ(params[0].cols(), 3);
  EXPECT_EQ(params[1].rows(), 1);
  EXPECT_EQ(params[1].cols(), 3);
}

TEST(Linear, ForwardComputesAffineMap) {
  Rng rng(2);
  Linear layer(2, 2, rng);
  std::vector<Tensor> params;
  layer.collect_parameters(params);
  // Overwrite weights for a known map: y = x W + b.
  params[0].mutable_value() = Matrix::from({{1.0, 2.0}, {3.0, 4.0}});
  params[1].mutable_value() = Matrix::from({{0.5, -0.5}});
  const Tensor y = layer.forward(Tensor::constant(Matrix::from({{1.0, 1.0}})));
  EXPECT_DOUBLE_EQ(y.value().at(0, 0), 4.5);
  EXPECT_DOUBLE_EQ(y.value().at(0, 1), 5.5);
}

TEST(Linear, ForwardBatchesOverRows) {
  Rng rng(3);
  Linear layer(3, 4, rng);
  const Tensor y = layer.forward(Tensor::constant(Matrix(7, 3, 0.5)));
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 4);
  // All rows identical since all inputs identical.
  for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(y.value().at(0, j), y.value().at(6, j));
}

TEST(Linear, InputWidthChecked) {
  Rng rng(4);
  Linear layer(3, 2, rng);
  EXPECT_THROW(layer.forward(Tensor::constant(Matrix(1, 4))), std::invalid_argument);
}

TEST(Linear, InitializationBoundedAndNonDegenerate) {
  Rng rng(5);
  Linear layer(64, 64, rng);
  std::vector<Tensor> params;
  layer.collect_parameters(params);
  const double bound = std::sqrt(6.0 / 128.0);
  EXPECT_LE(params[0].value().max_abs(), bound + 1e-12);
  EXPECT_GT(params[0].value().max_abs(), 0.0);
  EXPECT_DOUBLE_EQ(params[1].value().max_abs(), 0.0);  // zero bias init
}

TEST(GatLayer, ShapesAndNonNegativity) {
  Rng rng(20);
  GatLayer layer(3, 4, rng);
  Matrix neighborhood(2, 2);
  neighborhood.at(0, 0) = neighborhood.at(1, 1) = 1.0;
  neighborhood.at(0, 1) = neighborhood.at(1, 0) = 1.0;
  const Tensor out = layer.forward(neighborhood, Tensor::constant(Matrix(2, 3, 0.5)));
  EXPECT_EQ(out.rows(), 2);
  EXPECT_EQ(out.cols(), 4);
  for (int i = 0; i < out.value().size(); ++i) EXPECT_GE(out.value().data()[i], 0.0);
}

TEST(GatLayer, IsolatedNodeAttendsOnlyItself) {
  // With a diagonal neighborhood, attention collapses to the identity and
  // the layer reduces to relu(W h + b) per node.
  Rng rng(21);
  GatLayer layer(2, 2, rng);
  Matrix diag(2, 2);
  diag.at(0, 0) = diag.at(1, 1) = 1.0;
  const Matrix h = Matrix::from({{1.0, 0.0}, {0.0, 1.0}});
  const Tensor out = layer.forward(diag, Tensor::constant(h));
  // Compare against the layer's own linear map + relu.
  std::vector<Tensor> params;
  layer.collect_parameters(params);
  const Matrix expected = matmul(h, params[0].value());
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      const double linear = expected.at(i, j) + params[1].value().at(0, j);
      EXPECT_NEAR(out.value().at(i, j), std::max(0.0, linear), 1e-12);
    }
  }
}

TEST(GatLayer, GradientsFlowToAttentionParameters) {
  Rng rng(22);
  GatLayer layer(2, 3, rng);
  Matrix neighborhood(3, 3, 1.0);  // fully connected
  const Tensor out =
      layer.forward(neighborhood, Tensor::constant(Matrix::from({{1.0, 2.0}, {0.5, -1.0}, {2.0, 0.0}})));
  sum_all(out).backward();
  std::vector<Tensor> params;
  layer.collect_parameters(params);
  ASSERT_EQ(params.size(), 4u);  // W, b, attn_src, attn_dst
  for (auto& p : params) EXPECT_FALSE(p.grad().empty());
}

TEST(GatLayer, ShapeMismatchChecked) {
  Rng rng(23);
  GatLayer layer(2, 2, rng);
  EXPECT_THROW(layer.forward(Matrix(3, 3, 1.0), Tensor::constant(Matrix(2, 2))),
               std::invalid_argument);
}

TEST(Mlp, HiddenLayersAndOutputShape) {
  Rng rng(8);
  Mlp mlp(4, {8, 8}, 3, rng);
  const Tensor y = mlp.forward(Tensor::constant(Matrix(1, 4, 0.1)));
  EXPECT_EQ(y.rows(), 1);
  EXPECT_EQ(y.cols(), 3);
  std::vector<Tensor> params;
  mlp.collect_parameters(params);
  EXPECT_EQ(params.size(), 6u);  // 3 layers x (W, b)
}

TEST(Mlp, NoHiddenLayersIsLinear) {
  Rng rng(9);
  Mlp mlp(3, {}, 2, rng);
  std::vector<Tensor> params;
  mlp.collect_parameters(params);
  EXPECT_EQ(params.size(), 2u);
}

TEST(Mlp, OutputIsUnboundedLinearHead) {
  // tanh hidden layers saturate at +-1, but the linear head can exceed it.
  Rng rng(10);
  Mlp mlp(1, {4}, 1, rng);
  std::vector<Tensor> params;
  mlp.collect_parameters(params);
  params[0].mutable_value() = Matrix(1, 4, 5.0);   // saturate every tanh unit
  params[2].mutable_value() = Matrix(4, 1, 10.0);  // large head weights
  const Tensor y = mlp.forward(Tensor::constant(Matrix(1, 1, 100.0)));
  EXPECT_GT(std::abs(y.value().at(0, 0)), 1.0);
}

TEST(Mlp, GradientsFlowToAllParameters) {
  Rng rng(11);
  Mlp mlp(3, {5}, 2, rng);
  const Tensor loss = sum_all(mlp.forward(Tensor::constant(Matrix(1, 3, 1.0))));
  loss.backward();
  std::vector<Tensor> params;
  mlp.collect_parameters(params);
  for (auto& p : params) {
    EXPECT_FALSE(p.grad().empty());
    EXPECT_GT(p.grad().max_abs(), 0.0);
  }
}

}  // namespace
}  // namespace nptsn
