#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "nn/kernels.hpp"

namespace nptsn {

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), fill) {
  NPTSN_EXPECT(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
}

Matrix::Matrix(int rows, int cols, UninitTag)
    : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
  NPTSN_EXPECT(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
}

Matrix Matrix::uninitialized(int rows, int cols) {
  return Matrix(rows, cols, UninitTag{});
}

Matrix Matrix::from(std::initializer_list<std::initializer_list<double>> rows) {
  NPTSN_EXPECT(rows.size() > 0, "matrix literal must be non-empty");
  const int r = static_cast<int>(rows.size());
  const int c = static_cast<int>(rows.begin()->size());
  Matrix m(r, c);
  int i = 0;
  for (const auto& row : rows) {
    NPTSN_EXPECT(static_cast<int>(row.size()) == c, "ragged matrix literal");
    int j = 0;
    for (const double v : row) m.at(i, j++) = v;
    ++i;
  }
  return m;
}

double& Matrix::at(int r, int c) {
  NPTSN_EXPECT(r >= 0 && r < rows_ && c >= 0 && c < cols_, "matrix index out of range");
  return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c)];
}

double Matrix::at(int r, int c) const {
  NPTSN_EXPECT(r >= 0 && r < rows_ && c >= 0 && c < cols_, "matrix index out of range");
  return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c)];
}

void Matrix::fill(double value) { std::ranges::fill(data_, value); }

double Matrix::sum() const {
  double total = 0.0;
  for (const double v : data_) total += v;
  return total;
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (const double v : data_) best = std::max(best, std::abs(v));
  return best;
}

bool Matrix::all_finite() const {
  for (const double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.cols() == b.rows(), "matmul shape mismatch");
  Matrix out;
  if (nn_kernel() == NnKernel::kFast) {
    nnk::matmul_fast(a, b, out);
  } else {
    nnk::matmul_reference(a, b, out);
  }
  return out;
}

Matrix matmul_transposed(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.cols() == b.cols(), "matmul_transposed shape mismatch");
  Matrix out;
  if (nn_kernel() == NnKernel::kFast) {
    nnk::matmul_nt_fast(a, b, out);
  } else {
    nnk::matmul_nt_reference(a, b, out);
  }
  return out;
}

Matrix matmul_transposed_a(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.rows() == b.rows(), "matmul_transposed_a shape mismatch");
  Matrix out;
  if (nn_kernel() == NnKernel::kFast) {
    nnk::matmul_tn_fast(a, b, out);
  } else {
    nnk::matmul_tn_reference(a, b, out);
  }
  return out;
}

Matrix affine(const Matrix& x, const Matrix& w, const Matrix* bias, Epilogue act) {
  NPTSN_EXPECT(x.cols() == w.rows(), "affine shape mismatch");
  NPTSN_EXPECT(bias == nullptr || (bias->rows() == 1 && bias->cols() == w.cols()),
               "affine bias shape mismatch");
  Matrix out;
  if (nn_kernel() == NnKernel::kFast) {
    nnk::affine_fast(x, w, bias, act, out);
  } else {
    nnk::affine_reference(x, w, bias, act, out);
  }
  return out;
}

Matrix matmul_epilogue(const Matrix& a, const Matrix& b, Epilogue act) {
  NPTSN_EXPECT(a.cols() == b.rows(), "matmul_epilogue shape mismatch");
  Matrix out;
  if (nn_kernel() == NnKernel::kFast) {
    nnk::affine_fast(a, b, nullptr, act, out);
  } else {
    nnk::affine_reference(a, b, nullptr, act, out);
  }
  return out;
}

BlockAdjacency::BlockAdjacency(std::vector<Matrix> blocks)
    : blocks_(std::move(blocks)) {
  NPTSN_EXPECT(!blocks_.empty(), "BlockAdjacency needs at least one block");
  n_ = blocks_.front().rows();
  NPTSN_EXPECT(n_ > 0, "BlockAdjacency needs non-empty blocks");
  std::size_t nnz = 0;
  for (const Matrix& b : blocks_) {
    NPTSN_EXPECT(b.rows() == n_ && b.cols() == n_,
                 "BlockAdjacency blocks must all be square and same-size");
    const double* p = b.data();
    for (int r = 0; r < n_; ++r) {
      for (int c = 0; c < n_; ++c) {
        const double v = p[static_cast<std::size_t>(r) * n_ + c];
        nnz += v != 0.0;
        symmetric_ = symmetric_ && v == p[static_cast<std::size_t>(c) * n_ + r];
      }
    }
  }
  row_ptr_.reserve(static_cast<std::size_t>(count()) * n_ + 1);
  cols_.reserve(nnz);
  vals_.reserve(nnz);
  row_ptr_.push_back(0);
  for (const Matrix& b : blocks_) {
    for (int r = 0; r < n_; ++r) {
      const double* row = b.data() + static_cast<std::size_t>(r) * n_;
      for (int c = 0; c < n_; ++c) {
        if (row[c] == 0.0) continue;
        cols_.push_back(c);
        vals_.push_back(row[c]);
      }
      row_ptr_.push_back(cols_.size());
    }
  }
}

namespace {

void check_block_shapes(const BlockAdjacency& adj, const Matrix& h, const char* what) {
  NPTSN_EXPECT(h.rows() == adj.block_size() * adj.count(),
               std::string(what) + " stacked rows do not match the block count");
}

}  // namespace

Matrix block_diag_matmul(const BlockAdjacency& adj, const Matrix& h, Epilogue act) {
  check_block_shapes(adj, h, "block_diag_matmul");
  Matrix out;
  if (nn_kernel() == NnKernel::kFast) {
    nnk::block_affine_fast(adj, h, act, out);
  } else {
    nnk::block_affine_reference(adj, h, act, out);
  }
  return out;
}

Matrix block_diag_gcn(const BlockAdjacency& adj, const Matrix& h,
                      const Matrix& w, const Matrix& bias) {
  check_block_shapes(adj, h, "block_diag_gcn");
  NPTSN_EXPECT(h.cols() == w.rows(), "block_diag_gcn affine shape mismatch");
  NPTSN_EXPECT(bias.rows() == 1 && bias.cols() == w.cols(),
               "block_diag_gcn bias shape mismatch");
  Matrix out;
  if (nn_kernel() == NnKernel::kFast) {
    nnk::block_gcn_fast(adj, h, w, bias, out);
  } else {
    nnk::block_gcn_reference(adj, h, w, bias, out);
  }
  return out;
}

Matrix transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) out.at(j, i) = a.at(i, j);
  }
  return out;
}

Matrix add(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.same_shape(b), "add shape mismatch");
  Matrix out = a;
  for (int i = 0; i < out.size(); ++i) out.data()[i] += b.data()[i];
  return out;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.same_shape(b), "sub shape mismatch");
  Matrix out = a;
  for (int i = 0; i < out.size(); ++i) out.data()[i] -= b.data()[i];
  return out;
}

Matrix scale(const Matrix& a, double s) {
  Matrix out = a;
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= s;
  return out;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.same_shape(b), "hadamard shape mismatch");
  Matrix out = a;
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= b.data()[i];
  return out;
}

Matrix add_row_broadcast(const Matrix& a, const Matrix& row) {
  NPTSN_EXPECT(row.rows() == 1 && row.cols() == a.cols(), "broadcast shape mismatch");
  Matrix out = a;
  const int cols = a.cols();
  for (int i = 0; i < a.rows(); ++i) {
    double* orow = out.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) orow[j] += row.data()[j];
  }
  return out;
}

void accumulate(Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.same_shape(b), "accumulate shape mismatch");
  for (int i = 0; i < a.size(); ++i) a.data()[i] += b.data()[i];
}

}  // namespace nptsn
