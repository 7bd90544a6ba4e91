// Dense row-major matrix of doubles — the numeric workhorse under the
// autograd tape — and CsrRows, the one sparse operand of the NN kernels
// (an observation's A-hat and features, and their stacked batches). No
// BLAS, exact reproducibility. Two kernel families sit behind the GEMM
// entry points: the original naive reference loops and a register-blocked,
// cache-tiled fast family (nn/kernels.hpp); the active family is a
// process-global switch driven by NptsnConfig::nn_kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "util/expect.hpp"

namespace nptsn {

// GEMM kernel family (DESIGN.md §11). kReference keeps the naive loops as
// the differential-testing ground truth; kFast is the blocked/tiled family.
// Both are deterministic run-to-run and across thread counts.
enum class NnKernel { kReference, kFast };

// Process-global kernel selection. plan() sets this from
// NptsnConfig::nn_kernel before training starts; concurrent planners in one
// process share the switch, so set it once per process.
void set_nn_kernel(NnKernel kernel);
NnKernel nn_kernel();

// Threads for the parallel fast-GEMM path (1 = always serial). The parallel
// path partitions output rows into fixed-size chunks independent of the
// thread count, so results are bit-identical at every setting.
void set_nn_kernel_threads(int threads);
int nn_kernel_threads();

// Fused epilogue applied by affine in the same pass that writes the output
// tile.
enum class Epilogue { kNone, kRelu, kTanh };

namespace detail {

// Matrix buffers of at least this many bytes go through the recycler below
// instead of straight to the heap: in training, the stacked-batch matrices of
// a PPO update and the gradients of 256 x 256 weights. A single
// observation's matrices stay far below it.
inline constexpr std::size_t kRecycleFloorBytes = 256 * 1024;

// The recycler's entry points for blocks at or above the floor. Inside an
// open BufferRecycleScope a freed block is parked and handed back to the next
// request of exactly its size; otherwise both are plain ::operator new/delete.
void* recycle_allocate(std::size_t bytes);
void recycle_deallocate(void* p, std::size_t bytes) noexcept;

// Allocator that leaves doubles default-initialized (i.e. uninitialized)
// when the container value-constructs without arguments. Matrix uses it so
// Matrix::uninitialized can skip the zero-fill pass for outputs a kernel is
// about to overwrite completely; the ordinary constructors still fill
// explicitly, so their semantics are unchanged. Buffers at or above
// kRecycleFloorBytes are routed through the recycler.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  T* allocate(std::size_t n) {
    if (n * sizeof(T) >= kRecycleFloorBytes) {
      return static_cast<T*>(recycle_allocate(n * sizeof(T)));
    }
    return std::allocator<T>::allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) >= kRecycleFloorBytes) {
      recycle_deallocate(p, n * sizeof(T));
    } else {
      std::allocator<T>::deallocate(p, n);
    }
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

}  // namespace detail

// This thread's recycler counters (read-only; for tests and diagnostics).
struct RecyclerCounters {
  std::uint64_t fresh = 0;       // buffers at or above the floor taken from the heap
  std::uint64_t reused = 0;      // requests served by a parked block
  std::size_t parked_bytes = 0;  // currently parked in this thread's open scope
};
RecyclerCounters recycler_counters();
// Sizes in bytes of the blocks parked in this thread's open scope, oldest
// first (empty outside a scope).
std::vector<std::size_t> recycler_parked_sizes();

// Recycles large Matrix buffers for as long as it is open (DESIGN.md §11).
// While a scope is open on a thread, a buffer of at least
// detail::kRecycleFloorBytes freed on that thread is parked instead of
// returned to the heap, and the next request of exactly that size on the
// thread gets the most recently parked block back, so a PPO update's
// stacked-batch temporaries stop costing fresh zero-filled pages on every
// iteration. Scopes nest; the outermost one on the thread owns the parked
// blocks and returns all of them to the heap when it closes. Create and
// destroy a scope on one thread, as a stack object. Trainer::train() opens
// one for a whole training session.
class BufferRecycleScope {
 public:
  BufferRecycleScope();
  ~BufferRecycleScope();
  BufferRecycleScope(const BufferRecycleScope&) = delete;
  BufferRecycleScope& operator=(const BufferRecycleScope&) = delete;

 private:
  friend void* detail::recycle_allocate(std::size_t bytes);
  friend void detail::recycle_deallocate(void* p, std::size_t bytes) noexcept;
  friend std::vector<std::size_t> recycler_parked_sizes();

  struct Block {
    void* p;
    std::size_t bytes;
  };
  bool outermost_;
  std::vector<Block> parked_;  // oldest first
};

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0);
  static Matrix from(std::initializer_list<std::initializer_list<double>> rows);
  // Allocates without filling — every element is indeterminate until
  // written. Only for outputs the caller overwrites in full before any read
  // (the fast GEMM kernels); everything else wants the zero-filling
  // constructor.
  static Matrix uninitialized(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  int size() const { return rows_ * cols_; }
  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  double& at(int r, int c);
  double at(int r, int c) const;
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void fill(double value);
  double sum() const;
  // Largest absolute entry (0 for empty matrices).
  double max_abs() const;
  // True when every entry is finite (no NaN/Inf); true for empty matrices.
  // The numeric-sentinel primitive of the training health supervisor.
  bool all_finite() const;

 private:
  struct UninitTag {};
  Matrix(int rows, int cols, UninitTag);

  int rows_ = 0;
  int cols_ = 0;
  std::vector<double, detail::DefaultInitAllocator<double>> data_;
};

// Rows of a sparse matrix in CSR form, the one sparse operand of the GCN
// kernels (DESIGN.md §11). Each row keeps its entries that are != 0.0 in
// ascending column order, so walking a row performs the chain a
// zero-skipping dense scan of the row performs; -0.0 entries are dropped
// like +0.0 ones, as the reference loops' zero-skip (x == 0.0) drops both.
// The observation encoder builds an observation's two sparse inputs in this
// form: Eq. 4's A-hat of its graph as n x n rows, and its node features as
// n x F rows. ActorCritic's staging stacks B of each, so graph g of a batch
// owns rows [g n, (g + 1) n) of the (B n) x n adjacency and of the
// (B n) x F features.
class CsrRows {
 public:
  // Rows from their CSR arrays, each `cols` wide: row_ptr holds rows + 1
  // offsets from 0, and row r's columns col[t] (strictly ascending, in
  // [0, cols)) and values val[t] (each != 0.0) sit at t in
  // [row_ptr[r], row_ptr[r + 1]). Throws std::invalid_argument otherwise.
  // Square rows (rows == cols) have their symmetry checked here, once.
  CsrRows(int cols, std::vector<std::size_t> row_ptr, std::vector<int> col,
          std::vector<double> val);
  // The rows of every part, stacked top to bottom: the parts' arrays
  // concatenated, row pointers rebased. The parts must be equally wide.
  explicit CsrRows(const std::vector<const CsrRows*>& parts);
  // The rows of dense `blocks`, each `cols` wide, stacked top to bottom, as
  // if each block were a part (tests and benchmarks).
  CsrRows(int cols, const std::vector<const Matrix*>& blocks);

  int rows() const { return static_cast<int>(row_ptr_.size() - 1); }
  int cols() const { return cols_; }
  // Entries stored over all rows.
  std::size_t nnz() const { return val_.size(); }
  // True when every part the rows were built from is square and equals its
  // transpose exactly (b(r, c) == b(c, r) for all r, c), so every
  // cols x cols block of rows [g cols, (g + 1) cols) is symmetric: checked
  // once per square part as it is built, and the AND of the parts' flags
  // for a stack. Eq. 4's D^-1/2 (A + I) D^-1/2 of an undirected graph always
  // is, since s_i * s_j == s_j * s_i; the GCN backward relies on it to
  // propagate gradients with the forward kernel (gcn_encoder). A non-square
  // part (the features) is not checked and reads false.
  bool symmetric() const { return symmetric_; }
  // Row r's entries: columns csr_cols()[t] and values csr_vals()[t] for t in
  // [row_begin(r), row_end(r)).
  std::size_t row_begin(int r) const { return row_ptr_[static_cast<std::size_t>(r)]; }
  std::size_t row_end(int r) const { return row_ptr_[static_cast<std::size_t>(r) + 1]; }
  const int* csr_cols() const { return col_.data(); }
  const double* csr_vals() const { return val_.data(); }

  // The rows as a dense matrix, for consumers without a CSR path (the GAT
  // ablation encoder) and for tests.
  Matrix to_dense() const;

 private:
  // Appends the rows of m, keeping their entries != 0.0.
  void append_dense(const Matrix& m);
  // Whether the cols x cols block at rows [row0, row0 + cols) equals its
  // transpose: every stored (r, c, v) has a stored (c, r) equal to v, since
  // an entry absent on both sides is a zero on both.
  bool square_symmetric(std::size_t row0) const;

  int cols_ = 0;
  bool symmetric_ = true;
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<int> col_;
  std::vector<double> val_;
};

// Free-function kernels. All check shapes. The GEMM entry points (matmul,
// matmul_transposed, matmul_transposed_a, affine) run the row routines of
// the process-global kernel family (nnk::kernel_table; defined in
// kernels.cpp).
Matrix matmul(const Matrix& a, const Matrix& b);
// a (M x K) * b^T with b given row-major as N x K — the gradient kernel
// grad_x = grad * W^T (b^T is packed once per call, W being a weight matrix
// of at most 256 x 256).
Matrix matmul_transposed(const Matrix& a, const Matrix& b);
// a^T * b with a given row-major as K x M — the gradient kernel
// grad_W = x^T * grad without materializing the transpose.
Matrix matmul_transposed_a(const Matrix& a, const Matrix& b);
// act(x * w + bias) in one pass; bias is a 1 x N row (may be null) and act
// is applied elementwise as the output tile is written.
Matrix affine(const Matrix& x, const Matrix& w, const Matrix* bias, Epilogue act);
Matrix transpose(const Matrix& a);
Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);
Matrix scale(const Matrix& a, double s);
Matrix hadamard(const Matrix& a, const Matrix& b);
// Accumulates b into a (in place), shapes must match.
void accumulate(Matrix& a, const Matrix& b);

}  // namespace nptsn
