#include "rl/distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "nn/autograd.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

TEST(MaskedProbabilities, SoftmaxOverUnmaskedOnly) {
  const Matrix logits = Matrix::from({{0.0, 0.0, 100.0}});
  const auto probs = masked_probabilities(logits, {1, 1, 0});
  ASSERT_EQ(probs.size(), 3u);
  EXPECT_NEAR(probs[0], 0.5, 1e-12);
  EXPECT_NEAR(probs[1], 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(probs[2], 0.0);  // masked despite the huge logit
}

TEST(MaskedProbabilities, SumsToOne) {
  const Matrix logits = Matrix::from({{1.0, -2.0, 0.3, 4.0}});
  const auto probs = masked_probabilities(logits, {1, 0, 1, 1});
  double sum = 0.0;
  for (const double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(MaskedProbabilities, StableUnderLargeLogits) {
  const Matrix logits = Matrix::from({{1000.0, 999.0}});
  const auto probs = masked_probabilities(logits, {1, 1});
  EXPECT_TRUE(std::isfinite(probs[0]));
  EXPECT_GT(probs[0], probs[1]);
}

TEST(MaskedProbabilities, AllMaskedThrows) {
  const Matrix logits = Matrix::from({{1.0, 2.0}});
  EXPECT_THROW(masked_probabilities(logits, {0, 0}), std::invalid_argument);
}

TEST(MaskedProbabilities, AllMaskedThrowsTypedRecoverableError) {
  // The trainer's worker-quarantine path depends on catching this exact type
  // (and it must stay an invalid_argument for supervisor-less callers).
  const Matrix logits = Matrix::from({{1.0, 2.0}});
  try {
    masked_probabilities(logits, {0, 0});
    FAIL() << "expected MaskedDistributionError";
  } catch (const MaskedDistributionError& e) {
    EXPECT_NE(std::string(e.what()).find("all actions are masked"),
              std::string::npos);
  }
}

TEST(MaskedProbabilities, NonFiniteLogitsUnderMaskThrowTyped) {
  const Matrix logits =
      Matrix::from({{std::numeric_limits<double>::quiet_NaN(), 2.0}});
  // NaN under the mask poisons the softmax; a masked-out NaN does not.
  EXPECT_THROW(masked_probabilities(logits, {1, 1}), MaskedDistributionError);
  const auto probs = masked_probabilities(logits, {0, 1});
  EXPECT_DOUBLE_EQ(probs[1], 1.0);
}

TEST(EntropyOf, MatchesHandComputedValue) {
  // exp(0) : exp(log 3) = 1 : 3, so H = -(1/4) log(1/4) - (3/4) log(3/4).
  const double expected = std::log(4.0) - 0.75 * std::log(3.0);
  EXPECT_NEAR(entropy_of({0.25, 0.0, 0.75}), expected, 1e-15);
  const Matrix logits = Matrix::from({{0.0, 5.0, std::log(3.0)}});
  EXPECT_NEAR(entropy_of(masked_probabilities(logits, {1, 0, 1})), expected, 1e-15);
}

TEST(MaskedProbabilities, MaskSizeChecked) {
  const Matrix logits = Matrix::from({{1.0, 2.0}});
  EXPECT_THROW(masked_probabilities(logits, {1}), std::invalid_argument);
}

// The rollout samples an action as Trainer::run_epoch does:
// Rng::sample_weighted over masked_probabilities, recording log(p[action]).
TEST(SampleMasked, NeverPicksMaskedAction) {
  Rng rng(1);
  const Matrix logits = Matrix::from({{5.0, 5.0, 5.0, 5.0}});
  const auto probs = masked_probabilities(logits, {0, 1, 0, 1});
  for (int i = 0; i < 500; ++i) {
    const int action = rng.sample_weighted(probs);
    EXPECT_TRUE(action == 1 || action == 3);
    EXPECT_NEAR(std::log(probs[static_cast<std::size_t>(action)]), std::log(0.5), 1e-12);
  }
}

TEST(SampleMasked, FrequenciesFollowLogits) {
  Rng rng(2);
  // exp(0) : exp(log 3) = 1 : 3.
  const auto probs = masked_probabilities(Matrix::from({{0.0, std::log(3.0)}}), {1, 1});
  int count1 = 0;
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    if (rng.sample_weighted(probs) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.03);
}

TEST(SampleMasked, LogProbMatchesDistribution) {
  // The log-prob a rollout step records is the one the PPO update's
  // masked_log_prob computes at unchanged weights, so the first update
  // iteration's ratios are 1.
  Rng rng(3);
  const Matrix logits = Matrix::from({{0.2, -1.0, 2.0, 0.7}});
  const std::vector<std::uint8_t> mask = {1, 1, 0, 1};
  const auto probs = masked_probabilities(logits, mask);
  for (int i = 0; i < 50; ++i) {
    const int action = rng.sample_weighted(probs);
    const Tensor logp = masked_log_prob(Tensor::constant(logits), mask, {action});
    EXPECT_NEAR(std::log(probs[static_cast<std::size_t>(action)]), logp.item(), 1e-12);
  }
}

// The rollout's entropy sentinel: entropy_of over masked_probabilities.
TEST(EntropyMasked, UniformMaximizesEntropy) {
  const Matrix uniform = Matrix::from({{1.0, 1.0, 1.0, 1.0}});
  EXPECT_NEAR(entropy_of(masked_probabilities(uniform, {1, 1, 1, 1})), std::log(4.0), 1e-12);
  // Masking two actions reduces the support.
  EXPECT_NEAR(entropy_of(masked_probabilities(uniform, {1, 1, 0, 0})), std::log(2.0), 1e-12);
}

TEST(EntropyMasked, DeterministicDistributionHasZeroEntropy) {
  const Matrix peaked = Matrix::from({{100.0, 0.0}});
  EXPECT_NEAR(entropy_of(masked_probabilities(peaked, {1, 1})), 0.0, 1e-9);
  EXPECT_NEAR(entropy_of(masked_probabilities(peaked, {1, 0})), 0.0, 1e-12);
}

}  // namespace
}  // namespace nptsn
