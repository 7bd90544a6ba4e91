// Gradient correctness: every differentiable op is checked against central
// finite differences, plus graph-structure behaviors (accumulation, reuse,
// constants, masking).
#include "nn/autograd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "nn/layers.hpp"
#include "testing/dense_observation.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

Matrix random_matrix(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0, 1.0);
  return m;
}

// Central-difference gradient of scalar_fn at `point`, compared entrywise
// with the autograd gradient.
void check_gradient(const Matrix& point,
                    const std::function<Tensor(const Tensor&)>& scalar_fn,
                    double tolerance = 1e-6) {
  Tensor x = Tensor::parameter(point);
  Tensor loss = scalar_fn(x);
  loss.backward();
  const Matrix analytic = x.grad();

  const double eps = 1e-6;
  for (int i = 0; i < point.size(); ++i) {
    Matrix plus = point;
    plus.data()[i] += eps;
    Matrix minus = point;
    minus.data()[i] -= eps;
    const double f_plus = scalar_fn(Tensor::parameter(plus)).item();
    const double f_minus = scalar_fn(Tensor::parameter(minus)).item();
    const double numeric = (f_plus - f_minus) / (2.0 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tolerance) << "entry " << i;
  }
}

TEST(Autograd, TensorBasics) {
  Tensor t = Tensor::constant(Matrix::from({{1.0, 2.0}}));
  EXPECT_TRUE(t.defined());
  EXPECT_FALSE(t.requires_grad());
  EXPECT_EQ(t.rows(), 1);
  EXPECT_EQ(t.cols(), 2);

  Tensor p = Tensor::parameter(Matrix(1, 1, 3.0));
  EXPECT_TRUE(p.requires_grad());
  EXPECT_DOUBLE_EQ(p.item(), 3.0);

  Tensor empty;
  EXPECT_FALSE(empty.defined());
  EXPECT_THROW(empty.value(), std::invalid_argument);
}

TEST(Autograd, ItemRequiresScalar) {
  Tensor t = Tensor::constant(Matrix(2, 2));
  EXPECT_THROW(t.item(), std::invalid_argument);
}

TEST(Autograd, BackwardRequiresScalarWithGrad) {
  Tensor c = Tensor::constant(Matrix(1, 1, 2.0));
  EXPECT_THROW(c.backward(), std::invalid_argument);  // no parameters involved
  Tensor p = Tensor::parameter(Matrix(2, 2));
  EXPECT_THROW(p.backward(), std::invalid_argument);  // not a scalar
}

TEST(Autograd, SimpleChainGradient) {
  // loss = sum(3 * x) -> dloss/dx = 3.
  Tensor x = Tensor::parameter(Matrix::from({{1.0, -2.0}}));
  Tensor loss = sum_all(scale(x, 3.0));
  loss.backward();
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(x.grad().at(0, 1), 3.0);
}

TEST(Autograd, GradientsAccumulateAcrossBackwardCalls) {
  Tensor x = Tensor::parameter(Matrix(1, 1, 1.0));
  sum_all(scale(x, 2.0)).backward();
  sum_all(scale(x, 2.0)).backward();
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 4.0);
  x.zero_grad();
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 0.0);
}

TEST(Autograd, ReusedTensorGetsSummedGradient) {
  // loss = sum(x + x) -> dloss/dx = 2.
  Tensor x = Tensor::parameter(Matrix(1, 3, 1.0));
  sum_all(add(x, x)).backward();
  for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(x.grad().at(0, j), 2.0);
}

TEST(Autograd, ConstantsReceiveNoGradient) {
  Tensor x = Tensor::parameter(Matrix(1, 2, 1.0));
  Tensor c = Tensor::constant(Matrix(1, 2, 5.0));
  sum_all(hadamard(x, c)).backward();
  EXPECT_TRUE(c.grad().empty() || c.grad().max_abs() == 0.0);
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 5.0);
}

TEST(AutogradGradCheck, Matmul) {
  Rng rng(1);
  const Matrix a = random_matrix(3, 4, rng);
  const Matrix b = random_matrix(4, 2, rng);
  // Gradient w.r.t. the left operand.
  check_gradient(a, [&](const Tensor& x) {
    return sum_all(matmul(x, Tensor::constant(b)));
  });
  // Gradient w.r.t. the right operand.
  check_gradient(b, [&](const Tensor& x) {
    return sum_all(matmul(Tensor::constant(a), x));
  });
}

TEST(AutogradGradCheck, AddSubScaleHadamard) {
  Rng rng(2);
  const Matrix a = random_matrix(2, 3, rng);
  const Matrix b = random_matrix(2, 3, rng);
  check_gradient(a, [&](const Tensor& x) {
    return sum_all(hadamard(add(x, Tensor::constant(b)),
                            sub(x, scale(Tensor::constant(b), 0.5))));
  });
}

TEST(AutogradGradCheck, Relu) {
  // Stay away from the kink at 0 for finite differences.
  const Matrix a = Matrix::from({{0.5, -0.7, 1.2, -0.1}});
  check_gradient(a, [](const Tensor& x) { return sum_all(relu(x)); });
}

TEST(AutogradGradCheck, TanhExp) {
  Rng rng(4);
  const Matrix a = random_matrix(2, 2, rng);
  check_gradient(a, [](const Tensor& x) { return sum_all(tanh_op(x)); });
  check_gradient(a, [](const Tensor& x) { return sum_all(exp_op(x)); }, 1e-5);
}

TEST(AutogradGradCheck, MeanRowsAndSelect) {
  Rng rng(5);
  const Matrix a = random_matrix(4, 3, rng);
  // Entry (0, 1) of the row mean, selected by a one-hot weight.
  const Tensor pick = Tensor::constant(Matrix::from({{0.0, 1.0, 0.0}}));
  check_gradient(a, [&](const Tensor& x) { return sum_all(hadamard(mean_rows(x), pick)); });
}

TEST(AutogradGradCheck, ConcatCols) {
  Rng rng(6);
  const Matrix a = random_matrix(2, 3, rng);
  const Matrix b = random_matrix(2, 2, rng);
  check_gradient(a, [&](const Tensor& x) {
    return sum_all(tanh_op(concat_cols(x, Tensor::constant(b))));
  });
  check_gradient(b, [&](const Tensor& x) {
    return sum_all(tanh_op(concat_cols(Tensor::constant(a), x)));
  });
}

TEST(AutogradGradCheck, ClampInteriorAndExterior) {
  // Interior entries differentiate to 1, clamped entries to 0; keep values
  // away from the clamp boundaries for the finite difference.
  const Matrix a = Matrix::from({{0.5, 2.0, -2.0, 0.9}});
  check_gradient(a, [](const Tensor& x) { return sum_all(clamp(x, -1.0, 1.0)); });
}

TEST(AutogradGradCheck, Min2RoutesGradient) {
  const Matrix a = Matrix::from({{0.5, 2.0}});
  const Matrix b = Matrix::from({{1.0, 1.0}});
  check_gradient(a, [&](const Tensor& x) {
    return sum_all(min2(x, Tensor::constant(b)));
  });
  check_gradient(b, [&](const Tensor& x) {
    return sum_all(min2(Tensor::constant(a), x));
  });
}

TEST(AutogradGradCheck, Average) {
  Rng rng(7);
  const Matrix a = random_matrix(1, 3, rng);
  check_gradient(a, [](const Tensor& x) {
    // mean of the rows {x, 2x}: gradient 1.5 per entry.
    return sum_all(mean_rows(stack_rows({x, scale(x, 2.0)})));
  });
  // The PPO losses' batch mean over a column, here of squares.
  const Matrix column = random_matrix(5, 1, rng);
  check_gradient(column, [](const Tensor& x) { return mean_rows(hadamard(x, x)); });
}

TEST(AutogradGradCheck, MaskedLogSoftmax) {
  Rng rng(8);
  const Matrix logits = random_matrix(3, 5, rng);
  // Row 2 has one legal action: its log-prob is 0 whatever the logits.
  const std::vector<std::uint8_t> masks = {1, 0, 1, 1, 0,  //
                                           1, 1, 1, 1, 1,  //
                                           0, 0, 0, 1, 0};
  const std::vector<int> actions = {2, 0, 3};
  // Distinct row weights, so each row's gradient is checked on its own.
  const Tensor weights = Tensor::constant(Matrix::from({{1.0}, {-0.5}, {2.0}}));
  check_gradient(logits, [&](const Tensor& x) {
    return sum_all(hadamard(masked_log_prob(x, masks, actions), weights));
  });
}

TEST(Autograd, MaskedLogSoftmaxValues) {
  const Tensor logits = Tensor::constant(Matrix::from({{1.0, 100.0, 1.0}, {1.0, 100.0, 1.0}}));
  const Tensor logp = masked_log_prob(logits, {1, 0, 1, 1, 0, 1}, {0, 2});
  ASSERT_EQ(logp.rows(), 2);
  ASSERT_EQ(logp.cols(), 1);
  // Masked entry ignored: the two unmasked logits are equal -> log(1/2).
  EXPECT_NEAR(logp.value().at(0, 0), std::log(0.5), 1e-12);
  EXPECT_NEAR(logp.value().at(1, 0), std::log(0.5), 1e-12);
  // One legal action: probability 1.
  EXPECT_EQ(masked_log_prob(logits, {0, 1, 0, 1, 0, 0}, {1, 0}).value().at(1, 0), 0.0);
}

TEST(Autograd, MaskedLogSoftmaxNumericallyStable) {
  const Tensor logits =
      Tensor::constant(Matrix::from({{1000.0, 999.0}, {1000.0, 999.0},  //
                                     {-1000.0, -999.0}, {-1000.0, -999.0}}));
  const Tensor logp = masked_log_prob(logits, std::vector<std::uint8_t>(8, 1), {0, 1, 0, 1});
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(std::isfinite(logp.value().at(i, 0))) << i;
  EXPECT_NEAR(std::exp(logp.value().at(0, 0)) + std::exp(logp.value().at(1, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(logp.value().at(2, 0)) + std::exp(logp.value().at(3, 0)), 1.0, 1e-9);
}

TEST(Autograd, MaskedLogSoftmaxAllMaskedThrows) {
  const Tensor logits = Tensor::constant(Matrix(2, 3));
  EXPECT_THROW(masked_log_prob(logits, {1, 0, 0, 0, 0, 0}, {0, 0}), std::invalid_argument);
}

TEST(Autograd, MaskedLogProbRejectsMismatchedMasksAndActions) {
  const Tensor logits = Tensor::constant(Matrix(2, 3));
  const std::vector<std::uint8_t> masks = {1, 1, 0, 0, 1, 1};
  EXPECT_NO_THROW(masked_log_prob(logits, masks, {0, 2}));
  // Mask size: one mask per logit.
  EXPECT_THROW(masked_log_prob(logits, {1, 1, 0}, {0, 2}), std::invalid_argument);
  // Action count: one action per row.
  EXPECT_THROW(masked_log_prob(logits, masks, {0}), std::invalid_argument);
  // The action must be a legal one of its row.
  EXPECT_THROW(masked_log_prob(logits, masks, {2, 2}), std::invalid_argument);
  EXPECT_THROW(masked_log_prob(logits, masks, {0, 3}), std::invalid_argument);
  EXPECT_THROW(masked_log_prob(logits, masks, {-1, 2}), std::invalid_argument);
}

TEST(AutogradGradCheck, Transpose) {
  Rng rng(9);
  const Matrix a = random_matrix(2, 4, rng);
  check_gradient(a, [](const Tensor& x) {
    return sum_all(tanh_op(transpose_op(x)));
  });
}

// The batched encoder node backpropagates through A-hat with the forward
// CSR kernels (A-hat is symmetric); check every layer's weight and bias
// numerically in both kernel families, on real Eq. 4 adjacencies of random
// graphs. Only the checked parameter trains, so the backward also stops at
// every depth.
TEST(AutogradGradCheck, GcnEncoder) {
  const NnKernel saved = nn_kernel();
  Rng rng(10);
  constexpr int kNodes = 5;
  constexpr int kGraphs = 3;
  std::vector<Matrix> a_hats;
  for (int g = 0; g < kGraphs; ++g) {
    Matrix adjacency(kNodes, kNodes);
    for (int i = 0; i < kNodes; ++i) {
      for (int j = i + 1; j < kNodes; ++j) {
        if (rng.uniform() < 0.4) adjacency.at(i, j) = adjacency.at(j, i) = 1.0;
      }
    }
    a_hats.push_back(testing::normalized_adjacency(adjacency));
  }
  std::vector<const Matrix*> blocks;
  for (const Matrix& a_hat : a_hats) blocks.push_back(&a_hat);
  const auto adj = std::make_shared<const CsrRows>(kNodes, blocks);
  const Matrix x = random_matrix(kGraphs * kNodes, 3, rng);
  const auto features = std::make_shared<const CsrRows>(3, std::vector<const Matrix*>{&x});
  // Three layers, 3 -> 4 -> 4 -> 2 features.
  std::vector<Matrix> params;
  for (const auto& [in, out] : {std::pair{3, 4}, std::pair{4, 4}, std::pair{4, 2}}) {
    params.push_back(random_matrix(in, out, rng));
    params.push_back(random_matrix(1, out, rng));
  }
  const Matrix upstream = random_matrix(kGraphs, 2, rng);
  for (const NnKernel kernel : {NnKernel::kReference, NnKernel::kFast}) {
    set_nn_kernel(kernel);
    for (std::size_t checked = 0; checked < params.size(); ++checked) {
      check_gradient(params[checked], [&](const Tensor& x) {
        std::vector<GcnWeights> layers;
        for (std::size_t p = 0; p < params.size(); p += 2) {
          layers.push_back({p == checked ? x : Tensor::constant(params[p]),
                            p + 1 == checked ? x : Tensor::constant(params[p + 1])});
        }
        return sum_all(hadamard(gcn_encoder(adj, kNodes, features, layers),
                                Tensor::constant(upstream)));
      });
    }
  }
  set_nn_kernel(saved);
}

TEST(AutogradGradCheck, LeakyRelu) {
  const Matrix a = Matrix::from({{0.5, -0.7, 1.2, -0.1}});
  check_gradient(a, [](const Tensor& x) { return sum_all(leaky_relu(x, 0.2)); });
}

TEST(Autograd, LeakyReluValues) {
  const Tensor y = leaky_relu(Tensor::constant(Matrix::from({{2.0, -2.0}})), 0.1);
  EXPECT_DOUBLE_EQ(y.value().at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(y.value().at(0, 1), -0.2);
}

TEST(AutogradGradCheck, MaskedSoftmaxRows) {
  Rng rng(10);
  const Matrix scores = random_matrix(3, 3, rng);
  Matrix mask(3, 3);
  mask.at(0, 0) = mask.at(0, 1) = 1.0;
  mask.at(1, 1) = mask.at(1, 2) = 1.0;
  mask.at(2, 0) = mask.at(2, 1) = mask.at(2, 2) = 1.0;
  check_gradient(scores, [&](const Tensor& x) {
    // A non-uniform reduction so every entry's gradient is exercised.
    const Tensor probs = masked_softmax_rows(x, mask);
    return sum_all(hadamard(probs, Tensor::constant(Matrix::from(
                                       {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}}))));
  });
}

TEST(Autograd, MaskedSoftmaxRowsValues) {
  Matrix mask(2, 2);
  mask.at(0, 0) = mask.at(0, 1) = 1.0;
  mask.at(1, 1) = 1.0;
  const Tensor probs =
      masked_softmax_rows(Tensor::constant(Matrix::from({{1.0, 1.0}, {5.0, -3.0}})), mask);
  EXPECT_NEAR(probs.value().at(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(probs.value().at(0, 1), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(probs.value().at(1, 0), 0.0);  // masked despite logit 5
  EXPECT_NEAR(probs.value().at(1, 1), 1.0, 1e-12);
}

TEST(Autograd, MaskedSoftmaxRowsRejectsEmptyRow) {
  const Tensor scores = Tensor::constant(Matrix(2, 2));
  EXPECT_THROW(masked_softmax_rows(scores, Matrix(2, 2)), std::invalid_argument);
  EXPECT_THROW(masked_softmax_rows(scores, Matrix(3, 3)), std::invalid_argument);
}

TEST(Autograd, DiamondGraphGradient) {
  // loss = sum((x*2) ⊙ (x*3)) = sum(6 x^2) -> grad = 12 x.
  Tensor x = Tensor::parameter(Matrix::from({{1.0, -2.0}}));
  Tensor loss = sum_all(hadamard(scale(x, 2.0), scale(x, 3.0)));
  loss.backward();
  EXPECT_NEAR(x.grad().at(0, 0), 12.0, 1e-12);
  EXPECT_NEAR(x.grad().at(0, 1), -24.0, 1e-12);
}

TEST(Autograd, DeepChainDoesNotOverflowStack) {
  Tensor x = Tensor::parameter(Matrix(1, 1, 1.0));
  Tensor y = x;
  for (int i = 0; i < 5000; ++i) y = scale(y, 1.0);
  sum_all(y).backward();
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 1.0);
}

}  // namespace
}  // namespace nptsn
