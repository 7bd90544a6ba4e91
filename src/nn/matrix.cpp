#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <new>

// ASAN_(UN)POISON_MEMORY_REGION: the header makes them no-ops unless
// AddressSanitizer is on.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace nptsn {

namespace {

// Per-thread recycler state. Both are trivially destructible, so a Matrix
// freed during or after thread teardown still finds them valid: with no
// scope open it just goes to the heap.
thread_local BufferRecycleScope* t_scope = nullptr;  // outermost open scope
thread_local RecyclerCounters t_counters;

}  // namespace

namespace detail {

void* recycle_allocate(std::size_t bytes) {
  if (BufferRecycleScope* scope = t_scope) {
    auto& parked = scope->parked_;
    for (std::size_t i = parked.size(); i-- > 0;) {
      if (parked[i].bytes != bytes) continue;
      void* p = parked[i].p;
      parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(i));
      t_counters.parked_bytes -= bytes;
      ++t_counters.reused;
      ASAN_UNPOISON_MEMORY_REGION(p, bytes);
      return p;
    }
  }
  ++t_counters.fresh;
  return ::operator new(bytes);
}

void recycle_deallocate(void* p, std::size_t bytes) noexcept {
  if (BufferRecycleScope* scope = t_scope) {
    try {
      scope->parked_.push_back({p, bytes});
      t_counters.parked_bytes += bytes;
      // Parked memory is freed memory: ASan reports any read or write
      // through a dangling pointer until the block is handed out again.
      ASAN_POISON_MEMORY_REGION(p, bytes);
      return;
    } catch (const std::bad_alloc&) {
      // No room to record the block: give it back to the heap instead.
    }
  }
  ::operator delete(p);
}

}  // namespace detail

BufferRecycleScope::BufferRecycleScope() : outermost_(t_scope == nullptr) {
  if (outermost_) t_scope = this;
}

BufferRecycleScope::~BufferRecycleScope() {
  if (!outermost_) return;
  t_scope = nullptr;
  t_counters.parked_bytes = 0;
  for (const Block& block : parked_) {
    ASAN_UNPOISON_MEMORY_REGION(block.p, block.bytes);
    ::operator delete(block.p);
  }
}

RecyclerCounters recycler_counters() { return t_counters; }

std::vector<std::size_t> recycler_parked_sizes() {
  std::vector<std::size_t> sizes;
  if (t_scope != nullptr) {
    for (const auto& block : t_scope->parked_) sizes.push_back(block.bytes);
  }
  return sizes;
}

namespace {

// Element count of a rows x cols matrix, checked before anything is sized
// from it: a negative dimension would otherwise reach std::vector as a huge
// (or, for two negatives, a wrapped-around) count.
std::size_t checked_size(int rows, int cols) {
  NPTSN_EXPECT(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
  return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
}

}  // namespace

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

Matrix::Matrix(int rows, int cols, UninitTag)
    : rows_(rows), cols_(cols), data_(checked_size(rows, cols)) {}

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

namespace detail {

void CsrArrays::check(std::size_t rows, int width) const {
  NPTSN_EXPECT(width >= 0, "CSR rows need a non-negative width");
  NPTSN_EXPECT(!row_ptr.empty() && row_ptr.size() == rows + 1 && row_ptr.front() == 0 &&
                   row_ptr.back() == cols.size() && vals.size() == cols.size(),
               "CSR arrays do not fit together");
  for (std::size_t r = 0; r < rows; ++r) {
    NPTSN_EXPECT(row_ptr[r] <= row_ptr[r + 1], "CSR row pointers must ascend");
    int prev = -1;
    for (std::size_t t = row_ptr[r]; t < row_ptr[r + 1]; ++t) {
      NPTSN_EXPECT(cols[t] > prev && cols[t] < width,
                   "CSR columns must ascend strictly inside the row width");
      NPTSN_EXPECT(vals[t] != 0.0, "CSR rows store no zero entries");
      prev = cols[t];
    }
  }
}

void CsrArrays::append_dense(const Matrix& m) {
  for (int r = 0; r < m.rows(); ++r) {
    const double* row = m.data() + static_cast<std::size_t>(r) * m.cols();
    for (int c = 0; c < m.cols(); ++c) {
      if (row[c] == 0.0) continue;
      cols.push_back(c);
      vals.push_back(row[c]);
    }
    row_ptr.push_back(cols.size());
  }
}

CsrArrays CsrArrays::stack(const std::vector<const CsrArrays*>& parts) {
  std::size_t rows = 0;
  std::size_t nnz = 0;
  for (const CsrArrays* part : parts) {
    rows += part->rows();
    nnz += part->vals.size();
  }
  CsrArrays out;
  out.row_ptr.reserve(rows + 1);
  out.cols.reserve(nnz);
  out.vals.reserve(nnz);
  for (const CsrArrays* part : parts) {
    const std::size_t base = out.cols.size();
    for (auto it = part->row_ptr.begin() + 1; it != part->row_ptr.end(); ++it) {
      out.row_ptr.push_back(base + *it);
    }
    out.cols.insert(out.cols.end(), part->cols.begin(), part->cols.end());
    out.vals.insert(out.vals.end(), part->vals.begin(), part->vals.end());
  }
  return out;
}

Matrix CsrArrays::dense(std::size_t row0, int rows, int width) const {
  Matrix out(rows, width);
  for (int r = 0; r < rows; ++r) {
    double* orow = out.data() + static_cast<std::size_t>(r) * width;
    const std::size_t row = row0 + static_cast<std::size_t>(r);
    for (std::size_t t = row_ptr[row]; t < row_ptr[row + 1]; ++t) {
      orow[cols[t]] = vals[t];
    }
  }
  return out;
}

}  // namespace detail

BlockAdjacency::BlockAdjacency(int n, std::vector<std::size_t> row_ptr, std::vector<int> cols,
                               std::vector<double> vals)
    : n_(n), count_(1), csr_{std::move(row_ptr), std::move(cols), std::move(vals)} {
  NPTSN_EXPECT(n > 0, "BlockAdjacency needs non-empty blocks");
  csr_.check(static_cast<std::size_t>(n), n);
  symmetric_ = stored_symmetric();
}

BlockAdjacency::BlockAdjacency(const std::vector<const BlockAdjacency*>& parts) {
  NPTSN_EXPECT(!parts.empty(), "BlockAdjacency needs at least one block");
  n_ = parts.front()->n_;
  std::vector<const detail::CsrArrays*> arrays;
  arrays.reserve(parts.size());
  for (const BlockAdjacency* part : parts) {
    NPTSN_EXPECT(part->n_ == n_, "BlockAdjacency blocks must all be square and same-size");
    count_ += part->count_;
    symmetric_ = symmetric_ && part->symmetric_;
    arrays.push_back(&part->csr_);
  }
  csr_ = detail::CsrArrays::stack(arrays);
}

BlockAdjacency::BlockAdjacency(const std::vector<Matrix>& blocks)
    : count_(static_cast<int>(blocks.size())) {
  NPTSN_EXPECT(!blocks.empty(), "BlockAdjacency needs at least one block");
  n_ = blocks.front().rows();
  NPTSN_EXPECT(n_ > 0, "BlockAdjacency needs non-empty blocks");
  for (const Matrix& b : blocks) {
    NPTSN_EXPECT(b.rows() == n_ && b.cols() == n_,
                 "BlockAdjacency blocks must all be square and same-size");
    csr_.append_dense(b);
  }
  symmetric_ = stored_symmetric();
}

bool BlockAdjacency::stored_symmetric() const {
  const auto& cols = csr_.cols;
  for (int g = 0; g < count_; ++g) {
    for (int r = 0; r < n_; ++r) {
      for (std::size_t t = row_begin(g, r); t < row_end(g, r); ++t) {
        const auto first = cols.begin() + static_cast<std::ptrdiff_t>(row_begin(g, cols[t]));
        const auto last = cols.begin() + static_cast<std::ptrdiff_t>(row_end(g, cols[t]));
        const auto mirror = std::lower_bound(first, last, r);
        if (mirror == last || *mirror != r || csr_.vals[mirror - cols.begin()] != csr_.vals[t]) {
          return false;
        }
      }
    }
  }
  return true;
}

Matrix BlockAdjacency::to_dense(int g) const {
  NPTSN_EXPECT(g >= 0 && g < count_, "block index out of range");
  return csr_.dense(static_cast<std::size_t>(g) * n_, n_, n_);
}

CsrRows::CsrRows(int cols, std::vector<std::size_t> row_ptr, std::vector<int> col,
                 std::vector<double> val)
    : cols_(cols), csr_{std::move(row_ptr), std::move(col), std::move(val)} {
  csr_.check(csr_.rows(), cols);
}

CsrRows::CsrRows(const std::vector<const CsrRows*>& parts) {
  NPTSN_EXPECT(!parts.empty(), "CsrRows needs at least one part");
  cols_ = parts.front()->cols_;
  std::vector<const detail::CsrArrays*> arrays;
  arrays.reserve(parts.size());
  for (const CsrRows* part : parts) {
    NPTSN_EXPECT(part->cols_ == cols_, "CsrRows parts must all be `cols` wide");
    arrays.push_back(&part->csr_);
  }
  csr_ = detail::CsrArrays::stack(arrays);
}

CsrRows::CsrRows(int cols, const std::vector<const Matrix*>& blocks) : cols_(cols) {
  NPTSN_EXPECT(cols >= 0, "CsrRows needs a non-negative width");
  for (const Matrix* m : blocks) {
    NPTSN_EXPECT(m->cols() == cols, "CsrRows blocks must all be `cols` wide");
    csr_.append_dense(*m);
  }
}

Matrix CsrRows::to_dense() const { return csr_.dense(0, rows(), cols_); }

Matrix transpose(const Matrix& a) {
  // In square blocks: walked row by row, the column writes of a 256-wide
  // matrix stride 2 KiB and keep evicting each other from a few L1 sets
  // (about 4 ns per element, against about 1 ns in 8 x 8 blocks).
  constexpr int kBlock = 8;
  const int rows = a.rows();
  const int cols = a.cols();
  Matrix out = Matrix::uninitialized(cols, rows);
  for (int i0 = 0; i0 < rows; i0 += kBlock) {
    const int i1 = std::min(rows, i0 + kBlock);
    for (int j0 = 0; j0 < cols; j0 += kBlock) {
      const int j1 = std::min(cols, j0 + kBlock);
      for (int i = i0; i < i1; ++i) {
        const double* arow = a.data() + static_cast<std::size_t>(i) * cols;
        for (int j = j0; j < j1; ++j) out.data()[static_cast<std::size_t>(j) * rows + i] = arow[j];
      }
    }
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

void accumulate(Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.same_shape(b), "accumulate shape mismatch");
  for (int i = 0; i < a.size(); ++i) a.data()[i] += b.data()[i];
}

}  // namespace nptsn
