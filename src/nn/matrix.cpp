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

CsrRows::CsrRows(int cols, std::vector<std::size_t> row_ptr, std::vector<int> col,
                 std::vector<double> val)
    : cols_(cols), row_ptr_(std::move(row_ptr)), col_(std::move(col)), val_(std::move(val)) {
  NPTSN_EXPECT(cols >= 0, "CsrRows needs a non-negative width");
  NPTSN_EXPECT(!row_ptr_.empty() && row_ptr_.front() == 0 && row_ptr_.back() == col_.size() &&
                   val_.size() == col_.size(),
               "CSR arrays do not fit together");
  for (int r = 0; r < rows(); ++r) {
    NPTSN_EXPECT(row_begin(r) <= row_end(r) && row_end(r) <= col_.size(),
                 "CSR row pointers must ascend");
    int prev = -1;
    for (std::size_t t = row_begin(r); t < row_end(r); ++t) {
      NPTSN_EXPECT(col_[t] > prev && col_[t] < cols,
                   "CSR columns must ascend strictly inside the row width");
      NPTSN_EXPECT(val_[t] != 0.0, "CSR rows store no zero entries");
      prev = col_[t];
    }
  }
  symmetric_ = rows() == cols && square_symmetric(0);
}

CsrRows::CsrRows(const std::vector<const CsrRows*>& parts) {
  NPTSN_EXPECT(!parts.empty(), "CsrRows needs at least one part");
  cols_ = parts.front()->cols_;
  std::size_t rows = 0;
  std::size_t nnz = 0;
  for (const CsrRows* part : parts) {
    NPTSN_EXPECT(part->cols_ == cols_, "CsrRows parts must all be `cols` wide");
    symmetric_ = symmetric_ && part->symmetric_;
    rows += static_cast<std::size_t>(part->rows());
    nnz += part->nnz();
  }
  row_ptr_.reserve(rows + 1);
  col_.reserve(nnz);
  val_.reserve(nnz);
  for (const CsrRows* part : parts) {
    const std::size_t base = col_.size();
    for (auto it = part->row_ptr_.begin() + 1; it != part->row_ptr_.end(); ++it) {
      row_ptr_.push_back(base + *it);
    }
    col_.insert(col_.end(), part->col_.begin(), part->col_.end());
    val_.insert(val_.end(), part->val_.begin(), part->val_.end());
  }
}

CsrRows::CsrRows(int cols, const std::vector<const Matrix*>& blocks) : cols_(cols) {
  NPTSN_EXPECT(cols >= 0, "CsrRows needs a non-negative width");
  for (const Matrix* m : blocks) {
    NPTSN_EXPECT(m->cols() == cols, "CsrRows blocks must all be `cols` wide");
    const auto row0 = static_cast<std::size_t>(rows());
    append_dense(*m);
    symmetric_ = symmetric_ && m->rows() == cols && square_symmetric(row0);
  }
}

void CsrRows::append_dense(const Matrix& m) {
  for (int r = 0; r < m.rows(); ++r) {
    const double* row = m.data() + static_cast<std::size_t>(r) * m.cols();
    for (int c = 0; c < m.cols(); ++c) {
      if (row[c] == 0.0) continue;
      col_.push_back(c);
      val_.push_back(row[c]);
    }
    row_ptr_.push_back(col_.size());
  }
}

bool CsrRows::square_symmetric(std::size_t row0) const {
  const auto begin = [&](std::size_t r) { return row_ptr_[row0 + r]; };
  for (std::size_t r = 0; r < static_cast<std::size_t>(cols_); ++r) {
    for (std::size_t t = begin(r); t < begin(r + 1); ++t) {
      const auto c = static_cast<std::size_t>(col_[t]);
      const auto first = col_.begin() + static_cast<std::ptrdiff_t>(begin(c));
      const auto last = col_.begin() + static_cast<std::ptrdiff_t>(begin(c + 1));
      const auto mirror = std::lower_bound(first, last, static_cast<int>(r));
      if (mirror == last || *mirror != static_cast<int>(r) ||
          val_[static_cast<std::size_t>(mirror - col_.begin())] != val_[t]) {
        return false;
      }
    }
  }
  return true;
}

Matrix CsrRows::to_dense() const {
  Matrix out(rows(), cols_);
  for (int r = 0; r < rows(); ++r) {
    double* orow = out.data() + static_cast<std::size_t>(r) * cols_;
    for (std::size_t t = row_begin(r); t < row_end(r); ++t) orow[col_[t]] = val_[t];
  }
  return out;
}

Matrix transpose(const Matrix& a) {
  const int rows = a.rows();
  const int cols = a.cols();
  Matrix out = Matrix::uninitialized(cols, rows);
  for (int i = 0; i < rows; ++i) {
    const double* arow = a.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) out.data()[static_cast<std::size_t>(j) * rows + i] = arow[j];
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
