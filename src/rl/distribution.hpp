// Masked categorical action distribution of the rollout (plain-Matrix side;
// the PPO update's differentiable counterpart is nn/autograd.hpp's
// masked_log_prob).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "nn/matrix.hpp"

namespace nptsn {

// Raised when a distribution is requested over a fully masked action row —
// the state offers no legal action. Deliberately a typed, recoverable error
// (not a bare precondition failure): the trainer's worker-quarantine path
// catches it, records an all_actions_masked anomaly, resets the offending
// worker's environment, and completes the epoch from the surviving workers.
// Derives from std::invalid_argument so callers without the health
// supervisor keep the historical failure type.
class MaskedDistributionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// Probabilities of the masked softmax over a 1 x A logit row; masked entries
// get exactly 0. Throws MaskedDistributionError when every entry is masked.
std::vector<double> masked_probabilities(const Matrix& logits,
                                         const std::vector<std::uint8_t>& mask);

// Entropy in nats of a masked_probabilities vector (the rollout's
// entropy-collapse sentinel).
double entropy_of(const std::vector<double>& probs);

}  // namespace nptsn
