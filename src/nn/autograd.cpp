#include "nn/autograd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "nn/kernels.hpp"

namespace nptsn {

namespace detail {

Matrix& Node::ensure_grad() {
  if (grad.empty() && !value.empty()) grad = Matrix(value.rows(), value.cols());
  return grad;
}

}  // namespace detail

using detail::Node;

Tensor Tensor::constant(Matrix value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  return Tensor(std::move(node));
}

Tensor Tensor::parameter(Matrix value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = true;
  return Tensor(std::move(node));
}

bool Tensor::requires_grad() const { return node_ != nullptr && node_->requires_grad; }

const Matrix& Tensor::value() const {
  NPTSN_EXPECT(defined(), "tensor is empty");
  return node_->value;
}

Matrix& Tensor::mutable_value() {
  NPTSN_EXPECT(defined(), "tensor is empty");
  return node_->value;
}

const Matrix& Tensor::grad() const {
  NPTSN_EXPECT(defined(), "tensor is empty");
  return node_->grad;
}

Matrix& Tensor::mutable_grad() {
  NPTSN_EXPECT(defined(), "tensor is empty");
  return node_->ensure_grad();
}

void Tensor::zero_grad() {
  NPTSN_EXPECT(defined(), "tensor is empty");
  node_->ensure_grad().fill(0.0);
}

double Tensor::item() const {
  NPTSN_EXPECT(value().rows() == 1 && value().cols() == 1, "item() requires a 1x1 tensor");
  return value().at(0, 0);
}

Tensor Tensor::make_op(Matrix value, std::vector<Tensor> inputs,
                       std::function<void(Node&)> backprop) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  for (const Tensor& t : inputs) {
    NPTSN_EXPECT(t.defined(), "op input tensor is empty");
    node->requires_grad = node->requires_grad || t.node_->requires_grad;
    node->parents.push_back(t.node_);
  }
  if (node->requires_grad) node->backprop = std::move(backprop);
  return Tensor(std::move(node));
}

void Tensor::backward() const {
  NPTSN_EXPECT(defined(), "tensor is empty");
  NPTSN_EXPECT(value().rows() == 1 && value().cols() == 1,
               "backward() requires a scalar loss");
  NPTSN_EXPECT(node_->requires_grad, "loss does not depend on any parameter");

  // Topological order via iterative post-order DFS.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  node_->ensure_grad().at(0, 0) += 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backprop) node->backprop(*node);
  }
}

namespace {

// Adds `delta` into the parent's gradient when the parent participates in
// training (constants skip the work).
void add_grad(Node& parent, const Matrix& delta) {
  if (!parent.requires_grad) return;
  accumulate(parent.ensure_grad(), delta);
}

// Same for a delta the caller is done with: a parent without a gradient yet
// adopts its storage instead of zero-filling a second matrix and adding into
// it. At stacked-batch sizes that saves a zero-fill and an extra pass over
// megabytes per op, and one more block alive at the update's peak (the
// buffer recycler hands such blocks back without page faults, but they still
// count toward RSS). The in-place 0.0 + d is exactly what accumulating into
// zeros computes (it turns -0.0 into +0.0), so the gradient bits do not
// change.
void add_grad(Node& parent, Matrix&& delta) {
  if (!parent.requires_grad) return;
  if (parent.grad.empty() && !parent.value.empty() && delta.same_shape(parent.value)) {
    double* d = delta.data();
    for (int i = 0; i < delta.size(); ++i) d[i] = 0.0 + d[i];
    parent.grad = std::move(delta);
    return;
  }
  accumulate(parent.ensure_grad(), delta);
}

Node& parent(Node& self, std::size_t i) { return *self.parents[i]; }

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  Matrix out = matmul(a.value(), b.value());
  return Tensor::make_op(std::move(out), {a, b}, [](Node& self) {
    Node& pa = parent(self, 0);
    Node& pb = parent(self, 1);
    if (pa.requires_grad) add_grad(pa, matmul_transposed(self.grad, pb.value));
    if (pb.requires_grad) add_grad(pb, matmul_transposed_a(pa.value, self.grad));
  });
}

Tensor add(const Tensor& a, const Tensor& b) {
  return Tensor::make_op(add(a.value(), b.value()), {a, b}, [](Node& self) {
    add_grad(parent(self, 0), self.grad);
    add_grad(parent(self, 1), self.grad);
  });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return Tensor::make_op(sub(a.value(), b.value()), {a, b}, [](Node& self) {
    add_grad(parent(self, 0), self.grad);
    add_grad(parent(self, 1), scale(self.grad, -1.0));
  });
}

Tensor scale(const Tensor& a, double s) {
  return Tensor::make_op(scale(a.value(), s), {a}, [s](Node& self) {
    add_grad(parent(self, 0), scale(self.grad, s));
  });
}

Tensor hadamard(const Tensor& a, const Tensor& b) {
  return Tensor::make_op(hadamard(a.value(), b.value()), {a, b}, [](Node& self) {
    Node& pa = parent(self, 0);
    Node& pb = parent(self, 1);
    if (pa.requires_grad) add_grad(pa, hadamard(self.grad, pb.value));
    if (pb.requires_grad) add_grad(pb, hadamard(self.grad, pa.value));
  });
}

Tensor relu(const Tensor& a) {
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::max(0.0, out.data()[i]);
  return Tensor::make_op(std::move(out), {a}, [](Node& self) {
    Matrix delta = self.grad;
    for (int i = 0; i < delta.size(); ++i) {
      if (self.value.data()[i] <= 0.0) delta.data()[i] = 0.0;
    }
    add_grad(parent(self, 0), std::move(delta));
  });
}

Tensor tanh_op(const Tensor& a) {
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::tanh(out.data()[i]);
  return Tensor::make_op(std::move(out), {a}, [](Node& self) {
    Matrix delta = self.grad;
    for (int i = 0; i < delta.size(); ++i) {
      const double y = self.value.data()[i];
      delta.data()[i] *= (1.0 - y * y);
    }
    add_grad(parent(self, 0), std::move(delta));
  });
}

Tensor exp_op(const Tensor& a) {
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::exp(out.data()[i]);
  return Tensor::make_op(std::move(out), {a}, [](Node& self) {
    add_grad(parent(self, 0), hadamard(self.grad, self.value));
  });
}

Tensor mean_rows(const Tensor& a) {
  const Matrix& v = a.value();
  NPTSN_EXPECT(v.rows() >= 1, "mean_rows requires at least one row");
  const double inv = 1.0 / static_cast<double>(v.rows());
  Matrix out = Matrix::uninitialized(1, v.cols());
  nnk::mean_readout(v.data(), v.rows(), v.cols(), inv, out.data());
  return Tensor::make_op(std::move(out), {a}, [inv](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    const int cols = pa.value.cols();
    Matrix delta = Matrix::uninitialized(pa.value.rows(), cols);
    for (int i = 0; i < delta.rows(); ++i) {
      double* drow = delta.data() + static_cast<std::size_t>(i) * cols;
      for (int j = 0; j < cols; ++j) drow[j] = self.grad.data()[j] * inv;
    }
    add_grad(pa, std::move(delta));
  });
}

Tensor sum_all(const Tensor& a) {
  Matrix out(1, 1, a.value().sum());
  return Tensor::make_op(std::move(out), {a}, [](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    add_grad(pa, Matrix(pa.value.rows(), pa.value.cols(), self.grad.at(0, 0)));
  });
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  const Matrix& va = a.value();
  const Matrix& vb = b.value();
  NPTSN_EXPECT(va.rows() == vb.rows(), "concat_cols row mismatch");
  const int split = va.cols();
  const int cols = split + vb.cols();
  Matrix out = Matrix::uninitialized(va.rows(), cols);
  for (int i = 0; i < va.rows(); ++i) {
    double* orow = out.data() + static_cast<std::size_t>(i) * cols;
    const double* arow = va.data() + static_cast<std::size_t>(i) * split;
    const double* brow = vb.data() + static_cast<std::size_t>(i) * vb.cols();
    std::copy(arow, arow + split, orow);
    std::copy(brow, brow + vb.cols(), orow + split);
  }
  return Tensor::make_op(std::move(out), {a, b}, [split](Node& self) {
    Node& pa = parent(self, 0);
    Node& pb = parent(self, 1);
    const int rows = self.grad.rows();
    const int cols = self.grad.cols();
    // Copies the column range [begin, begin + width) of the incoming gradient.
    const auto slice = [&](int begin, int width) {
      Matrix d = Matrix::uninitialized(rows, width);
      for (int i = 0; i < rows; ++i) {
        const double* grow = self.grad.data() + static_cast<std::size_t>(i) * cols + begin;
        std::copy(grow, grow + width, d.data() + static_cast<std::size_t>(i) * width);
      }
      return d;
    };
    if (pa.requires_grad) add_grad(pa, slice(0, split));
    if (pb.requires_grad) add_grad(pb, slice(split, cols - split));
  });
}

Tensor clamp(const Tensor& a, double lo, double hi) {
  NPTSN_EXPECT(lo <= hi, "clamp requires lo <= hi");
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::clamp(out.data()[i], lo, hi);
  return Tensor::make_op(std::move(out), {a}, [lo, hi](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    Matrix delta = self.grad;
    for (int i = 0; i < delta.size(); ++i) {
      const double x = pa.value.data()[i];
      if (x < lo || x > hi) delta.data()[i] = 0.0;
    }
    add_grad(pa, std::move(delta));
  });
}

Tensor min2(const Tensor& a, const Tensor& b) {
  NPTSN_EXPECT(a.value().same_shape(b.value()), "min2 shape mismatch");
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::min(out.data()[i], b.value().data()[i]);
  return Tensor::make_op(std::move(out), {a, b}, [](Node& self) {
    Node& pa = parent(self, 0);
    Node& pb = parent(self, 1);
    Matrix da(self.grad.rows(), self.grad.cols());
    Matrix db(self.grad.rows(), self.grad.cols());
    for (int i = 0; i < self.grad.size(); ++i) {
      if (pa.value.data()[i] <= pb.value.data()[i]) {
        da.data()[i] = self.grad.data()[i];
      } else {
        db.data()[i] = self.grad.data()[i];
      }
    }
    if (pa.requires_grad) add_grad(pa, std::move(da));
    if (pb.requires_grad) add_grad(pb, std::move(db));
  });
}

Tensor masked_log_prob(const Tensor& logits, const std::vector<std::uint8_t>& masks,
                       const std::vector<int>& actions) {
  const Matrix& x = logits.value();
  const int rows = x.rows();
  const int cols = x.cols();
  NPTSN_EXPECT(masks.size() == static_cast<std::size_t>(rows) * cols, "mask size mismatch");
  NPTSN_EXPECT(actions.size() == static_cast<std::size_t>(rows), "action count mismatch");

  // Each row's stable masked log-softmax, kept for the backward.
  Matrix log_probs(rows, cols);
  Matrix out = Matrix::uninitialized(rows, 1);
  for (int i = 0; i < rows; ++i) {
    const double* xrow = x.data() + static_cast<std::size_t>(i) * cols;
    const std::uint8_t* mrow = masks.data() + static_cast<std::size_t>(i) * cols;
    double max_logit = -std::numeric_limits<double>::infinity();
    bool any = false;
    for (int j = 0; j < cols; ++j) {
      if (mrow[j]) {
        max_logit = std::max(max_logit, xrow[j]);
        any = true;
      }
    }
    NPTSN_EXPECT(any, "all actions are masked");
    const int a = actions[static_cast<std::size_t>(i)];
    NPTSN_EXPECT(a >= 0 && a < cols && mrow[a], "the action is masked or out of range");
    double denom = 0.0;
    for (int j = 0; j < cols; ++j) {
      if (mrow[j]) denom += std::exp(xrow[j] - max_logit);
    }
    const double log_denom = std::log(denom) + max_logit;
    double* lrow = log_probs.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      if (mrow[j]) lrow[j] = xrow[j] - log_denom;
    }
    out.data()[i] = lrow[a];
  }
  return Tensor::make_op(
      std::move(out), {logits},
      [masks, actions, log_probs = std::move(log_probs)](Node& self) {
        Node& pa = parent(self, 0);
        if (!pa.requires_grad) return;
        // d logp_i / d x_ij = [j == a_i] - p_ij over the unmasked j.
        const int cols = log_probs.cols();
        Matrix delta(log_probs.rows(), cols);
        for (int i = 0; i < delta.rows(); ++i) {
          const double g = self.grad.data()[i];
          const int a = actions[static_cast<std::size_t>(i)];
          const std::size_t at = static_cast<std::size_t>(i) * cols;
          for (int j = 0; j < cols; ++j) {
            if (!masks[at + j]) continue;
            delta.data()[at + j] = (j == a ? g : 0.0) - std::exp(log_probs.data()[at + j]) * g;
          }
        }
        add_grad(pa, std::move(delta));
      });
}

Tensor transpose_op(const Tensor& a) {
  return Tensor::make_op(transpose(a.value()), {a}, [](Node& self) {
    add_grad(parent(self, 0), transpose(self.grad));
  });
}

namespace {

// Incoming gradient gated through the fused activation's derivative,
// evaluated at the op's OUTPUT (same gating as the standalone relu/tanh
// ops: relu zeroes where the output is <= 0, tanh scales by 1 - y^2).
Matrix epilogue_delta(const Matrix& grad, const Matrix& out, Epilogue act) {
  if (act == Epilogue::kNone) return grad;
  Matrix delta = Matrix::uninitialized(grad.rows(), grad.cols());
  const double* g = grad.data();
  const double* y = out.data();
  double* d = delta.data();
  if (act == Epilogue::kRelu) {
    for (int i = 0; i < delta.size(); ++i) d[i] = y[i] <= 0.0 ? 0.0 : g[i];
  } else {
    for (int i = 0; i < delta.size(); ++i) d[i] = g[i] * (1.0 - y[i] * y[i]);
  }
  return delta;
}

// Column sums of grad accumulated directly into a 1 x C parent gradient
// (ascending rows per column).
void add_grad_col_sums(Node& parent_node, const Matrix& grad) {
  if (!parent_node.requires_grad) return;
  nnk::add_col_sums(grad.data(), grad.rows(), grad.cols(), parent_node.ensure_grad().data());
}

}  // namespace

Tensor affine_act(const Tensor& x, const Tensor& w, const Tensor& bias, Epilogue act) {
  Matrix out = affine(x.value(), w.value(), &bias.value(), act);
  return Tensor::make_op(std::move(out), {x, w, bias}, [act](Node& self) {
    Node& px = parent(self, 0);
    Node& pw = parent(self, 1);
    Node& pb = parent(self, 2);
    const Matrix delta = epilogue_delta(self.grad, self.value, act);
    if (px.requires_grad) add_grad(px, matmul_transposed(delta, pw.value));
    if (pw.requires_grad) add_grad(pw, matmul_transposed_a(px.value, delta));
    add_grad_col_sums(pb, delta);
  });
}

Tensor gcn_encoder(const std::shared_ptr<const CsrRows>& a_hats, int block_rows,
                   const std::shared_ptr<const CsrRows>& features,
                   const std::vector<GcnWeights>& layers) {
  NPTSN_EXPECT(features != nullptr, "gcn_encoder needs staged features");
  const CsrRows& x = *features;
  NPTSN_EXPECT(block_rows >= 1 && x.rows() % block_rows == 0,
               "gcn_encoder: feature rows are not a whole number of graphs");
  const int n = block_rows;
  const int count = x.rows() / n;
  const int depth = static_cast<int>(layers.size());
  std::vector<Tensor> inputs;
  int width = x.cols();
  int tile_width = 0;  // widest layer output: the affine scratch tile
  std::int64_t flops = 0;
  for (const GcnWeights& layer : layers) {
    const Matrix& w = layer.weight.value();
    NPTSN_EXPECT(w.rows() == width && layer.bias.rows() == 1 &&
                     layer.bias.cols() == w.cols(),
                 "gcn_encoder layer shape mismatch");
    flops += std::int64_t{2} * x.rows() * w.cols() * (w.rows() + n);
    width = w.cols();
    tile_width = std::max(tile_width, width);
    inputs.push_back(layer.weight);
    inputs.push_back(layer.bias);
  }
  if (depth > 0) {
    NPTSN_EXPECT(a_hats != nullptr && a_hats->cols() == n && a_hats->rows() == x.rows(),
                 "gcn_encoder adjacencies do not match the stacked features");
    NPTSN_EXPECT(a_hats->symmetric(),
                 "gcn_encoder needs symmetric adjacency blocks (A-hat^T = A-hat)");
  }

  // Forward, every layer of a graph back to back, the first from the CSR
  // features. Only the outputs the backward reads leave the tiles: layers
  // 1..L-1 (the next layer's input and ReLU gate), and the last layer's gate
  // as one byte per element.
  const nnk::KernelTable& kernels = nnk::kernel_table(nn_kernel());
  std::vector<Matrix> hidden;
  for (int l = 0; l + 1 < depth; ++l) {
    hidden.push_back(
        Matrix::uninitialized(x.rows(), layers[static_cast<std::size_t>(l)].weight.cols()));
  }
  // Matrix's allocator: no zero-fill, and on ORION (1 MB) the recycler.
  std::vector<std::uint8_t, detail::DefaultInitAllocator<std::uint8_t>> dead(
      depth > 0 ? static_cast<std::size_t>(x.rows()) * width : 0);
  Matrix out = Matrix::uninitialized(count, width);
  const double inv = 1.0 / static_cast<double>(n);
  // The W of every layer above the first as the table reads it, packed once
  // per pass and shared by the graphs and their pool tasks.
  std::vector<nnk::PackedOperand> packed(static_cast<std::size_t>(depth));
  for (int l = 1; l < depth; ++l) {
    const Matrix& w = layers[static_cast<std::size_t>(l)].weight.value();
    packed[static_cast<std::size_t>(l)].pack(kernels, w.data(), w.rows(), w.cols(), n);
  }
  nnk::for_each_graph_range(count, flops, [&](int begin, int end) {
    Matrix z = Matrix::uninitialized(n, tile_width);
    Matrix last = Matrix::uninitialized(n, width);
    for (int g = begin; g < end; ++g) {
      double* orow = out.data() + static_cast<std::size_t>(g) * width;
      if (depth == 0) {
        nnk::mean_readout_csr(x, g * n, n, inv, orow);
        continue;
      }
      // Each layer: z = x W + b in the tile, then y = relu(A-hat_g z).
      const double* h = nullptr;
      for (int l = 0; l < depth; ++l) {
        const Matrix& w = layers[static_cast<std::size_t>(l)].weight.value();
        const double* bias = layers[static_cast<std::size_t>(l)].bias.value().data();
        double* y = l + 1 < depth ? hidden[static_cast<std::size_t>(l)].data() +
                                        static_cast<std::size_t>(g) * n * w.cols()
                                  : last.data();
        if (l == 0) {
          kernels.affine_csr(x, g * n, n, w.data(), w.cols(), bias, Epilogue::kNone, z.data());
        } else {
          kernels.affine_rows(h, w.rows(), packed[static_cast<std::size_t>(l)].operand(),
                              w.cols(), bias, Epilogue::kNone, z.data(), 0, n);
        }
        kernels.affine_csr(*a_hats, g * n, n, z.data(), w.cols(), nullptr, Epilogue::kRelu, y);
        h = y;
      }
      nnk::mean_readout(h, n, width, inv, orow);
      nnk::relu_dead_bytes(h, static_cast<std::size_t>(n) * width,
                           dead.data() + static_cast<std::size_t>(g) * n * width);
    }
  });

  // Backward, streamed a run of graphs at a time: for each layer from the
  // last, the ReLU gate, A-hat delta through the forward kernels, the bias
  // column sums, x^T delta into the weight gradient's chain, and delta W^T
  // into the layer below's gate. Every element keeps the chain the unfused
  // tape computed over the whole batch (DESIGN.md §11).
  auto backward = [a_hats, features, n, hidden = std::move(hidden),
                   dead = std::move(dead)](Node& self) {
    const int depth = static_cast<int>(self.parents.size()) / 2;
    const auto weight = [&](int l) -> Node& {
      return parent(self, 2 * static_cast<std::size_t>(l));
    };
    const auto bias = [&](int l) -> Node& {
      return parent(self, 2 * static_cast<std::size_t>(l) + 1);
    };
    // No delta is needed below the lowest layer with a trainable parameter.
    int lowest = 0;
    while (!weight(lowest).requires_grad && !bias(lowest).requires_grad) ++lowest;

    const nnk::KernelTable& kernels = nnk::kernel_table(nn_kernel());
    const int count = self.value.rows();
    const int width = self.value.cols();
    // W^T packed once per pass, and each weight gradient's chain, started
    // at +0.0 and resumed run by run in ascending row order.
    std::vector<nnk::PackedOperand> wt(static_cast<std::size_t>(depth));
    std::vector<Matrix> dw(static_cast<std::size_t>(depth));
    int tile_width = 0;
    for (int l = lowest; l < depth; ++l) {
      const Matrix& w = weight(l).value;
      if (l > lowest) {
        wt[static_cast<std::size_t>(l)].pack_transposed(kernels, w.data(), w.rows(), w.cols());
      }
      if (weight(l).requires_grad) dw[static_cast<std::size_t>(l)] = Matrix(w.rows(), w.cols());
      tile_width = std::max({tile_width, w.rows(), w.cols()});
    }
    // A run spans about nnk::kTnChunk rows, so x^T delta reloads its
    // accumulators once per run rather than once per (16-row ADS) graph.
    const int run = std::max(1, nnk::kTnChunk / n);
    Matrix delta = Matrix::uninitialized(run * n, tile_width);
    Matrix prop = Matrix::uninitialized(run * n, tile_width);
    Matrix back = Matrix::uninitialized(run * n, tile_width);
    nnk::PackedOperand prop_packed;  // a run's delta, as x^T delta reads it
    const double inv = 1.0 / static_cast<double>(n);
    for (int g0 = 0; g0 < count; g0 += run) {
      const int g1 = std::min(count, g0 + run);
      const int rows = (g1 - g0) * n;
      const std::size_t row0 = static_cast<std::size_t>(g0) * n;
      // The readout's broadcast, then the last layer's ReLU gate.
      for (int g = g0; g < g1; ++g) {
        const std::size_t at = static_cast<std::size_t>(g) * n * width;
        nnk::readout_gate(self.grad.data() + static_cast<std::size_t>(g) * width, inv,
                          dead.data() + at, n, width,
                          delta.data() + (at - row0 * width));
      }
      for (int l = depth - 1; l >= lowest; --l) {
        const Matrix& w = weight(l).value;
        const int in = w.rows();
        const int out = w.cols();
        for (int g = g0; g < g1; ++g) {
          const std::size_t at = static_cast<std::size_t>(g - g0) * n * out;
          kernels.affine_csr(*a_hats, g * n, n, delta.data() + at, out, nullptr,
                             Epilogue::kNone, prop.data() + at);
        }
        if (bias(l).requires_grad) {
          nnk::add_col_sums(prop.data(), rows, out, bias(l).ensure_grad().data());
        }
        // The layer's input: the CSR features below the first layer, the
        // stored output of the layer below elsewhere.
        const double* h =
            l == 0 ? nullptr : hidden[static_cast<std::size_t>(l - 1)].data() + row0 * in;
        if (weight(l).requires_grad) {
          double* gw = dw[static_cast<std::size_t>(l)].data();
          if (l == 0) {
            kernels.matmul_tn_resume_csr(*features, static_cast<int>(row0), rows, prop.data(),
                                         out, gw);
          } else {
            prop_packed.pack(kernels, prop.data(), rows, out, in);
            kernels.matmul_tn_resume(h, rows, in, prop_packed.operand(), out, gw, 0, in);
          }
        }
        if (l > lowest) {
          kernels.matmul_rows(prop.data(), out, wt[static_cast<std::size_t>(l)].operand(), in,
                              back.data(), 0, rows);
          // The layer below's ReLU gate, at its stored output.
          nnk::relu_gate(h, back.data(), static_cast<std::size_t>(rows) * in, delta.data());
        }
      }
    }
    for (int l = depth - 1; l >= lowest; --l) {
      add_grad(weight(l), std::move(dw[static_cast<std::size_t>(l)]));
    }
  };
  return Tensor::make_op(std::move(out), std::move(inputs), std::move(backward));
}

Tensor stack_rows(const std::vector<Tensor>& rows) {
  NPTSN_EXPECT(!rows.empty(), "stack_rows of zero tensors");
  const int cols = rows.front().value().cols();
  Matrix out = Matrix::uninitialized(static_cast<int>(rows.size()), cols);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Matrix& v = rows[i].value();
    NPTSN_EXPECT(v.rows() == 1 && v.cols() == cols, "stack_rows shape mismatch");
    std::copy(v.data(), v.data() + cols, out.data() + i * cols);
  }
  return Tensor::make_op(std::move(out), rows, [](Node& self) {
    const int cols = self.grad.cols();
    for (std::size_t i = 0; i < self.parents.size(); ++i) {
      Node& p = *self.parents[i];
      if (!p.requires_grad) continue;
      double* g = p.ensure_grad().data();
      const double* grow = self.grad.data() + i * cols;
      for (int j = 0; j < cols; ++j) g[j] += grow[j];
    }
  });
}

Tensor leaky_relu(const Tensor& a, double negative_slope) {
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) {
    if (out.data()[i] < 0.0) out.data()[i] *= negative_slope;
  }
  return Tensor::make_op(std::move(out), {a}, [negative_slope](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    Matrix delta = self.grad;
    for (int i = 0; i < delta.size(); ++i) {
      if (pa.value.data()[i] < 0.0) delta.data()[i] *= negative_slope;
    }
    add_grad(pa, std::move(delta));
  });
}

Tensor masked_softmax_rows(const Tensor& scores, const Matrix& mask) {
  const Matrix& x = scores.value();
  NPTSN_EXPECT(x.same_shape(mask), "scores/mask shape mismatch");
  Matrix out(x.rows(), x.cols());
  for (int i = 0; i < x.rows(); ++i) {
    double max_score = -std::numeric_limits<double>::infinity();
    bool any = false;
    for (int j = 0; j < x.cols(); ++j) {
      if (mask.at(i, j) != 0.0) {
        max_score = std::max(max_score, x.at(i, j));
        any = true;
      }
    }
    NPTSN_EXPECT(any, "masked_softmax_rows: fully masked row " + std::to_string(i));
    double denom = 0.0;
    for (int j = 0; j < x.cols(); ++j) {
      if (mask.at(i, j) != 0.0) {
        out.at(i, j) = std::exp(x.at(i, j) - max_score);
        denom += out.at(i, j);
      }
    }
    for (int j = 0; j < x.cols(); ++j) out.at(i, j) /= denom;
  }
  const Matrix mask_copy = mask;
  return Tensor::make_op(std::move(out), {scores}, [mask_copy](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    // Per row: d y_j / d x_i = y_j (delta_ij - y_i) over unmasked entries.
    Matrix delta(self.value.rows(), self.value.cols());
    for (int r = 0; r < self.value.rows(); ++r) {
      double dot = 0.0;
      for (int j = 0; j < self.value.cols(); ++j) {
        if (mask_copy.at(r, j) != 0.0) dot += self.grad.at(r, j) * self.value.at(r, j);
      }
      for (int i = 0; i < self.value.cols(); ++i) {
        if (mask_copy.at(r, i) == 0.0) continue;
        delta.at(r, i) = self.value.at(r, i) * (self.grad.at(r, i) - dot);
      }
    }
    add_grad(pa, std::move(delta));
  });
}

std::pair<bool, double> find_non_finite_value(const std::vector<Tensor>& params) {
  for (const Tensor& p : params) {
    const Matrix& m = p.value();
    for (int i = 0; i < m.size(); ++i) {
      const double x = m.data()[i];
      if (!std::isfinite(x)) return {true, x};
    }
  }
  return {false, 0.0};
}

GradientScan scan_gradients(const std::vector<Tensor>& params) {
  GradientScan scan;
  for (const Tensor& p : params) {
    // grad() is the raw (possibly never-allocated, hence empty) gradient
    // matrix; an empty gradient contributes zero to the norm.
    const Matrix& g = p.grad();
    for (int i = 0; i < g.size(); ++i) {
      const double x = g.data()[i];
      if (!std::isfinite(x)) {
        scan.non_finite = true;
        scan.bad_value = x;
        return scan;
      }
      scan.squared_norm += x * x;
    }
  }
  return scan;
}

}  // namespace nptsn
