#include "nn/adam.hpp"

#include <cmath>

#include "util/expect.hpp"

namespace nptsn {

Adam::Adam(std::vector<Tensor> parameters, Options options)
    : parameters_(std::move(parameters)), options_(options) {
  NPTSN_EXPECT(!parameters_.empty(), "optimizer needs at least one parameter");
  NPTSN_EXPECT(options_.learning_rate > 0.0, "learning rate must be positive");
  m_.reserve(parameters_.size());
  v_.reserve(parameters_.size());
  for (const Tensor& p : parameters_) {
    NPTSN_EXPECT(p.requires_grad(), "optimizer parameters must require grad");
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::zero_grad() {
  for (Tensor& p : parameters_) p.zero_grad();
}

void Adam::step() {
  ++step_count_;
  const double bias1 = 1.0 - std::pow(options_.beta1, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(options_.beta2, static_cast<double>(step_count_));
  // Locals, so the compiler need not reload them after every store; with
  // -fno-math-errno on this file the loop vectorizes (src/nn/CMakeLists.txt).
  const double beta1 = options_.beta1;
  const double beta2 = options_.beta2;
  const double lr = options_.learning_rate;
  const double eps = options_.epsilon;
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    const int size = parameters_[i].value().size();
    double* value = parameters_[i].mutable_value().data();
    const double* grad = parameters_[i].mutable_grad().data();
    double* m = m_[i].data();
    double* v = v_[i].data();
    for (int j = 0; j < size; ++j) {
      const double g = grad[j];
      m[j] = beta1 * m[j] + (1.0 - beta1) * g;
      v[j] = beta2 * v[j] + (1.0 - beta2) * g * g;
      const double m_hat = m[j] / bias1;
      const double v_hat = v[j] / bias2;
      value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }
}

Adam::State Adam::export_state() const {
  State state;
  state.m = m_;
  state.v = v_;
  state.step_count = step_count_;
  return state;
}

void Adam::import_state(const State& state) {
  NPTSN_EXPECT(state.m.size() == parameters_.size() && state.v.size() == parameters_.size(),
               "optimizer state parameter count mismatch");
  NPTSN_EXPECT(state.step_count >= 0, "optimizer step count must be non-negative");
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    NPTSN_EXPECT(state.m[i].same_shape(m_[i]) && state.v[i].same_shape(v_[i]),
                 "optimizer state shape mismatch");
  }
  m_ = state.m;
  v_ = state.v;
  step_count_ = state.step_count;
}

}  // namespace nptsn
