#include "rl/distribution.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace nptsn {

std::vector<double> masked_probabilities(const Matrix& logits,
                                         const std::vector<std::uint8_t>& mask) {
  NPTSN_EXPECT(logits.rows() == 1, "logits must be a 1 x A row");
  NPTSN_EXPECT(static_cast<int>(mask.size()) == logits.cols(), "mask size mismatch");

  double max_logit = -std::numeric_limits<double>::infinity();
  for (int j = 0; j < logits.cols(); ++j) {
    if (!mask[static_cast<std::size_t>(j)]) continue;
    const double logit = logits.at(0, j);
    // NaN loses every std::max comparison, so it must be caught explicitly
    // or it would silently poison the exp/normalize below.
    if (std::isnan(logit)) {
      throw MaskedDistributionError("non-finite logits under the action mask");
    }
    max_logit = std::max(max_logit, logit);
  }
  if (!std::isfinite(max_logit)) {
    // Recoverable typed error, not an abort: the quarantine path catches
    // this, resets the worker's environment, and the run continues.
    throw MaskedDistributionError(
        max_logit == -std::numeric_limits<double>::infinity()
            ? "all actions are masked: the state offers no legal action"
            : "non-finite logits under the action mask");
  }

  std::vector<double> probs(mask.size(), 0.0);
  double denom = 0.0;
  for (int j = 0; j < logits.cols(); ++j) {
    if (mask[static_cast<std::size_t>(j)]) {
      probs[static_cast<std::size_t>(j)] = std::exp(logits.at(0, j) - max_logit);
      denom += probs[static_cast<std::size_t>(j)];
    }
  }
  for (double& p : probs) p /= denom;
  return probs;
}

double entropy_of(const std::vector<double>& probs) {
  double h = 0.0;
  for (const double p : probs) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

}  // namespace nptsn
