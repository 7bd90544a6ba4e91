#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/fast_rows.hpp"
#include "nn/lanes.hpp"
#include "util/thread_pool.hpp"

namespace nptsn {
namespace {

// Parallel-path task granularity: output rows per task, fixed so the work
// partition (and therefore every result bit) is thread-count independent.
constexpr int kRowsPerTask = 32;
// Below this many multiply-adds the fork/join overhead dominates; stay serial.
constexpr std::int64_t kParallelFlopsMin = 1 << 21;

std::atomic<int> g_kernel{static_cast<int>(NnKernel::kFast)};
std::atomic<int> g_threads{1};

// The shared pool for the parallel path. Guarded by a mutex; a caller that
// cannot take the lock (e.g. concurrent rollout workers both hitting a large
// GEMM) falls back to the serial path, which produces identical bits.
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // sized to g_threads, rebuilt on change

double apply_epilogue(double v, Epilogue act) {
  switch (act) {
    case Epilogue::kNone: return v;
    case Epilogue::kRelu: return v > 0.0 ? v : 0.0;
    case Epilogue::kTanh: return std::tanh(v);
  }
  return v;
}

// Runs task(0..chunks-1) on the shared pool; false = caller must run serially.
bool try_parallel(int chunks, const std::function<void(int)>& task) {
  if (chunks < 2) return false;
  std::unique_lock<std::mutex> lock(g_pool_mutex, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  const int threads = g_threads.load(std::memory_order_relaxed);
  if (threads <= 1) return false;
  if (!g_pool || g_pool->size() != threads) {
    g_pool = std::make_unique<ThreadPool>(threads);
  }
  g_pool->parallel_for(chunks, task);
  return true;
}

bool want_parallel(std::int64_t m, std::int64_t n, std::int64_t k) {
  if (g_threads.load(std::memory_order_relaxed) <= 1) return false;
  return 2 * m * n * k >= kParallelFlopsMin && m > kRowsPerTask;
}

namespace fast {

// The fast family's CSR walks. Its dense rows are compiled once per ISA
// level (fast_rows.cpp); these stay in this unit, built like the rest of it:
// they read the staged CSR through the inline accessors of CsrRows, which an
// ISA object must not instantiate, and their row sweeps are AXPYs the
// compiler vectorizes at any level.

// Rows [row0, row0 + rows) of out = finish(x b) for the CSR rows x. Per
// output element the chain is fma over the stored entries in ascending k
// from +0.0, then finish(acc, j): the dense rows' chain minus its zero
// terms. The row sweeps are kept to the minimum the chain allows: the first
// entry initializes the row (fma(a, b, +0.0) is what the zero-filled form
// computes) and the last carries finish with it, so a row of e entries costs
// e sweeps instead of e + 2; an empty row is finish(0.0, j).
template <typename Finish>
void csr_product_rows(const CsrRows& x, int row0, int rows, const double* pb, int cols_n,
                      double* po, const Finish& finish) {
  const int* cols = x.csr_cols();
  const double* vals = x.csr_vals();
  for (int i = 0; i < rows; ++i) {
    double* orow = po + static_cast<std::size_t>(i) * cols_n;
    std::size_t t = x.row_begin(row0 + i);
    const std::size_t t_end = x.row_end(row0 + i);
    if (t == t_end) {
      for (int j = 0; j < cols_n; ++j) orow[j] = finish(0.0, j);
      continue;
    }
    if (t_end - t == 1) {
      const double a = vals[t];
      const double* brow = pb + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = finish(fmadd(a, brow[j], 0.0), j);
      continue;
    }
    {
      const double a = vals[t];
      const double* brow = pb + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = fmadd(a, brow[j], 0.0);
    }
    for (++t; t + 1 < t_end; ++t) {
      const double a = vals[t];
      const double* brow = pb + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = fmadd(a, brow[j], orow[j]);
    }
    {
      const double a = vals[t];
      const double* brow = pb + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = finish(fmadd(a, brow[j], orow[j]), j);
    }
  }
}

// Rows [row0, row0 + rows) of out = act(x b + bias), with the activation a
// constant and the bias test hoisted out of the rows.
void affine_csr(const CsrRows& x, int row0, int rows, const double* pb, int cols_n,
                const double* pbias, Epilogue act, double* po) {
  with_epilogue(act, [&](auto act_constant) {
    constexpr Epilogue kAct = decltype(act_constant)::value;
    if (pbias) {
      csr_product_rows(x, row0, rows, pb, cols_n, po,
                       [pbias](double v, int j) { return epilogue<kAct>(v + pbias[j]); });
    } else {
      csr_product_rows(x, row0, rows, pb, cols_n, po,
                       [](double v, int) { return epilogue<kAct>(v); });
    }
  });
}

// A k-outer AXPY over the stored entries: one sweep of output row i per
// stored x(k, i), so every element continues its chain in `out` over
// ascending k, the dense matmul_tn_resume's chain minus its zero terms.
void matmul_tn_resume_csr(const CsrRows& x, int row0, int rows, const double* pb, int cols_n,
                          double* po) {
  const int* cols = x.csr_cols();
  const double* vals = x.csr_vals();
  for (int k = 0; k < rows; ++k) {
    const double* brow = pb + static_cast<std::size_t>(k) * cols_n;
    for (std::size_t t = x.row_begin(row0 + k); t < x.row_end(row0 + k); ++t) {
      const double aki = vals[t];
      double* orow = po + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = fmadd(aki, brow[j], orow[j]);
    }
  }
}

}  // namespace fast

// The reference family: the original mul-then-add loops, one per loop shape.
namespace reference {

// The i-k-j loop with zero-skip: streams through b and out rows, and skips
// the zero entries of the sparse A-hat and feature blocks. The bias and the
// activation follow the whole chain.
void affine_rows(const double* pa, int cols_k, nnk::Operand b, int cols_n,
                 const double* pbias, Epilogue act, double* po, int i_begin, int i_end) {
  for (int i = i_begin; i < i_end; ++i) {
    double* orow = po + static_cast<std::size_t>(i) * cols_n;
    const double* arow = pa + static_cast<std::size_t>(i) * cols_k;
    std::fill(orow, orow + cols_n, 0.0);
    for (int k = 0; k < cols_k; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.rows + static_cast<std::size_t>(k) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] += aik * brow[j];
    }
    if (pbias == nullptr && act == Epilogue::kNone) continue;
    for (int j = 0; j < cols_n; ++j) {
      orow[j] = apply_epilogue(pbias ? orow[j] + pbias[j] : orow[j], act);
    }
  }
}

// The dot loop over the rows of W: every term, zero or not, in ascending k.
void matmul_rows(const double* pa, int cols_k, nnk::Operand w, int cols_n, double* po,
                 int i_begin, int i_end) {
  for (int i = i_begin; i < i_end; ++i) {
    const double* arow = pa + static_cast<std::size_t>(i) * cols_k;
    for (int j = 0; j < cols_n; ++j) {
      const double* wrow = w.rows + static_cast<std::size_t>(j) * cols_k;
      double sum = 0.0;
      for (int k = 0; k < cols_k; ++k) sum += arow[k] * wrow[k];
      po[static_cast<std::size_t>(i) * cols_n + j] = sum;
    }
  }
}

// k outer: streams rows of a and b, accumulates rank-1 updates into out.
void matmul_tn_resume(const double* pa, int rows_k, int cols_m, nnk::Operand b, int cols_n,
                      double* po, int i_begin, int i_end) {
  for (int k = 0; k < rows_k; ++k) {
    const double* arow = pa + static_cast<std::size_t>(k) * cols_m;
    const double* brow = b.rows + static_cast<std::size_t>(k) * cols_n;
    for (int i = i_begin; i < i_end; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* orow = po + static_cast<std::size_t>(i) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] += aki * brow[j];
    }
  }
}

// affine_rows' loop over the stored entries of the rows. The entries it
// skips are the ones the zero-skipping dense loop skips (+0.0 and -0.0), so
// every element is that loop's chain, finished the same way.
void affine_csr(const CsrRows& x, int row0, int rows, const double* pb, int cols_n,
                const double* pbias, Epilogue act, double* po) {
  const int* cols = x.csr_cols();
  const double* vals = x.csr_vals();
  for (int i = 0; i < rows; ++i) {
    double* orow = po + static_cast<std::size_t>(i) * cols_n;
    std::fill(orow, orow + cols_n, 0.0);
    for (std::size_t t = x.row_begin(row0 + i); t < x.row_end(row0 + i); ++t) {
      const double xik = vals[t];
      const double* brow = pb + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] += xik * brow[j];
    }
    if (pbias == nullptr && act == Epilogue::kNone) continue;
    for (int j = 0; j < cols_n; ++j) {
      orow[j] = apply_epilogue(pbias ? orow[j] + pbias[j] : orow[j], act);
    }
  }
}

// matmul_tn_resume's loop over the stored entries of the rows.
void matmul_tn_resume_csr(const CsrRows& x, int row0, int rows, const double* pb, int cols_n,
                          double* po) {
  const int* cols = x.csr_cols();
  const double* vals = x.csr_vals();
  for (int k = 0; k < rows; ++k) {
    const double* brow = pb + static_cast<std::size_t>(k) * cols_n;
    for (std::size_t t = x.row_begin(row0 + k); t < x.row_end(row0 + k); ++t) {
      const double aki = vals[t];
      double* orow = po + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] += aki * brow[j];
    }
  }
}

void tanh(const double* x, std::size_t count, double* out) {
  for (std::size_t e = 0; e < count; ++e) out[e] = std::tanh(x[e]);
}

}  // namespace reference

// The fast tables this build holds, composed from the ISA objects' dense
// rows and this unit's CSR walks: the ones the host can run, best first.
// Picked once, at first use; the static's initialization is thread-safe.
const std::vector<nnk::KernelTable>& fast_tables() {
  static const std::vector<nnk::KernelTable> tables = [] {
    const auto compose = [](const nnk::detail::FastRows& rows) {
      return nnk::KernelTable{.name = rows.isa,
                              .panel_cols = rows.panel_cols,
                              .affine_rows = rows.affine_rows,
                              .matmul_rows = rows.matmul_rows,
                              .matmul_tn_resume = rows.matmul_tn_resume,
                              .affine_csr = fast::affine_csr,
                              .matmul_tn_resume_csr = fast::matmul_tn_resume_csr,
                              .tanh = rows.tanh};
    };
    std::vector<nnk::KernelTable> runnable;
#if defined(NPTSN_FAST_ROWS_X86_64_V4)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) {
      runnable.push_back(compose(nnk::detail::fast_rows_x86_64_v4()));
    }
#endif
#if defined(NPTSN_FAST_ROWS_X86_64_V3)
    runnable.push_back(compose(nnk::detail::fast_rows_x86_64_v3()));
#else
    runnable.push_back(compose(nnk::detail::fast_rows_portable()));
#endif
    return runnable;
  }();
  return tables;
}

// The lanes whose byte among the kLanes bytes at `dead` is zero. One word
// load, broadcast and masked per lane, where a byte-to-lane conversion would
// unpack the bytes one by one; the masks are built from the same memory
// layout as the word, so the lane order holds at either byte order.
inline vnm live_lanes(const std::uint8_t* dead) {
  static_assert(kLanes <= 8, "one 64-bit word holds a vector's gate bytes");
  std::int64_t word = 0;
  __builtin_memcpy(&word, dead, kLanes);
  vnm bytes;
  vnm lane;
  for (int l = 0; l < kLanes; ++l) {
    std::uint8_t pattern[8] = {};
    pattern[l] = 0xFF;
    std::int64_t mask = 0;
    __builtin_memcpy(&mask, pattern, sizeof(mask));
    bytes[l] = word;
    lane[l] = mask;
  }
  return (bytes & lane) == 0;
}

// Partitions rows [0, total) into kRowsPerTask chunks and runs `rows` over
// them, in parallel when the shape is large enough and the pool is free.
template <typename RowsFn>
void run_rows(int total, std::int64_t m, std::int64_t n, std::int64_t k,
              const RowsFn& rows) {
  if (total == 0) return;
  if (want_parallel(m, n, k)) {
    const int chunks = (total + kRowsPerTask - 1) / kRowsPerTask;
    const bool ran = try_parallel(chunks, [&](int c) {
      const int begin = c * kRowsPerTask;
      rows(begin, std::min(begin + kRowsPerTask, total));
    });
    if (ran) return;
  }
  rows(0, total);
}

}  // namespace

void set_nn_kernel(NnKernel kernel) {
  g_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

NnKernel nn_kernel() {
  return static_cast<NnKernel>(g_kernel.load(std::memory_order_relaxed));
}

void set_nn_kernel_threads(int threads) {
  NPTSN_EXPECT(threads >= 1, "nn kernel thread count must be positive");
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_threads.store(threads, std::memory_order_relaxed);
  if (g_pool && g_pool->size() != threads) g_pool.reset();
}

int nn_kernel_threads() { return g_threads.load(std::memory_order_relaxed); }

namespace nnk {

const KernelTable& kernel_table(NnKernel family) {
  static constexpr KernelTable reference = {
      .name = "reference",
      .panel_cols = 0,
      .affine_rows = reference::affine_rows,
      .matmul_rows = reference::matmul_rows,
      .matmul_tn_resume = reference::matmul_tn_resume,
      .affine_csr = reference::affine_csr,
      .matmul_tn_resume_csr = reference::matmul_tn_resume_csr,
      .tanh = reference::tanh};
  return family == NnKernel::kFast ? fast_tables().front() : reference;
}

const std::vector<KernelTable>& fast_kernel_tables() { return fast_tables(); }

double* PackedOperand::reserve(std::size_t count) {
  // At least one element, so that the panels pointer is never null.
  const std::size_t want = std::max<std::size_t>(count, 1);
  if (static_cast<std::size_t>(buffer_.size()) < want) {
    NPTSN_EXPECT(want <= static_cast<std::size_t>(std::numeric_limits<int>::max()),
                 "packed operand too large");
    buffer_ = Matrix::uninitialized(1, static_cast<int>(want));
  }
  return buffer_.data();
}

void PackedOperand::pack(const KernelTable& table, const double* b, int cols_k, int cols_n,
                         int rows) {
  operand_ = {b, nullptr, 0};
  const int width = table.panel_cols;
  if (width == 0) return;
  const int panels = (cols_n + width - 1) / width;
  // A call over fewer rows than a tile reads its whole panels in place.
  const int first = rows >= detail::kTileRows ? 0 : cols_n / width;
  operand_.first_panel = first;
  if (first == panels) return;
  double* dst = reserve(static_cast<std::size_t>(panels - first) * cols_k * width);
  operand_ = {b, dst, first};
  for (int p = first; p < panels; ++p) {
    const int j0 = p * width;
    const int cols = std::min(width, cols_n - j0);
    for (int k = 0; k < cols_k; ++k, dst += width) {
      std::copy_n(b + static_cast<std::size_t>(k) * cols_n + j0, cols, dst);
      std::fill(dst + cols, dst + width, 0.0);
    }
  }
}

void PackedOperand::pack_transposed(const KernelTable& table, const double* w, int cols_n,
                                    int cols_k) {
  operand_ = {w, nullptr, 0};
  const int width = table.panel_cols;
  if (width == 0) return;
  const int panels = (cols_n + width - 1) / width;
  double* dst = reserve(static_cast<std::size_t>(panels) * cols_k * width);
  operand_ = {w, dst, 0};
  // Panel element (k, c) is W(p width + c, k): W's row is read in order and
  // written down the panel's column.
  for (int p = 0; p < panels; ++p, dst += static_cast<std::size_t>(cols_k) * width) {
    for (int c = 0; c < width; ++c) {
      const int j = p * width + c;
      for (int k = 0; k < cols_k; ++k) {
        dst[static_cast<std::size_t>(k) * width + c] =
            j < cols_n ? w[static_cast<std::size_t>(j) * cols_k + k] : 0.0;
      }
    }
  }
}

void relu_dead_bytes(const double* h, std::size_t count, std::uint8_t* dead) {
  // Branch-free as written (a compare and a set per element), and GCC
  // vectorizes it.
  for (std::size_t e = 0; e < count; ++e) dead[e] = h[e] <= 0.0;
}

void mean_readout(const double* h, int rows, int cols, double inv, double* out) {
  std::fill(out, out + cols, 0.0);
  add_col_sums(h, rows, cols, out);
  for (int j = 0; j < cols; ++j) out[j] *= inv;
}

void mean_readout_csr(const CsrRows& x, int row0, int rows, double inv, double* out) {
  std::fill(out, out + x.cols(), 0.0);
  for (int i = row0; i < row0 + rows; ++i) {
    for (std::size_t t = x.row_begin(i); t < x.row_end(i); ++t) {
      out[x.csr_cols()[t]] += x.csr_vals()[t];
    }
  }
  for (int j = 0; j < x.cols(); ++j) out[j] *= inv;
}

void readout_gate(const double* grad, double inv, const std::uint8_t* dead, int rows,
                  int cols, double* delta) {
  for (int r = 0; r < rows; ++r) {
    const std::uint8_t* drow = dead + static_cast<std::size_t>(r) * cols;
    double* d = delta + static_cast<std::size_t>(r) * cols;
    int j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      storev(d + j, selectv(live_lanes(drow + j), 0.0 + loadv(grad + j) * inv));
    }
    for (; j < cols; ++j) d[j] = drow[j] ? 0.0 : 0.0 + grad[j] * inv;
  }
}

void add_col_sums(const double* m, int rows, int cols, double* sums) {
  int j = 0;
  for (; j + kLanes <= cols; j += kLanes) {
    vnd acc = loadv(sums + j);
    for (int r = 0; r < rows; ++r) acc += loadv(m + static_cast<std::size_t>(r) * cols + j);
    storev(sums + j, acc);
  }
  for (; j < cols; ++j) {
    double acc = sums[j];
    for (int r = 0; r < rows; ++r) acc += m[static_cast<std::size_t>(r) * cols + j];
    sums[j] = acc;
  }
}

void relu_gate(const double* h, const double* back, std::size_t count, double* delta) {
  std::size_t e = 0;
  for (; e + kLanes <= count; e += kLanes) {
    storev(delta + e, selectv(~(loadv(h + e) <= 0.0), 0.0 + loadv(back + e)));
  }
  for (; e < count; ++e) delta[e] = h[e] <= 0.0 ? 0.0 : 0.0 + back[e];
}

void for_each_graph_range(int count, std::int64_t flops,
                          const std::function<void(int, int)>& graphs) {
  if (count <= 0) return;
  // Graphs per pool task: enough that a task's scratch tiles are allocated
  // once for several graphs. Any split computes the same bits, because every
  // graph is computed by itself.
  constexpr int kGraphsPerTask = 4;
  if (g_threads.load(std::memory_order_relaxed) > 1 && flops >= kParallelFlopsMin) {
    const int chunks = (count + kGraphsPerTask - 1) / kGraphsPerTask;
    const bool ran = try_parallel(chunks, [&](int c) {
      graphs(c * kGraphsPerTask, std::min(count, (c + 1) * kGraphsPerTask));
    });
    if (ran) return;
  }
  graphs(0, count);
}

}  // namespace nnk

Matrix matmul(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.cols() == b.rows(), "matmul shape mismatch");
  return affine(a, b, nullptr, Epilogue::kNone);
}

Matrix affine(const Matrix& x, const Matrix& w, const Matrix* bias, Epilogue act) {
  NPTSN_EXPECT(x.cols() == w.rows(), "affine shape mismatch");
  NPTSN_EXPECT(bias == nullptr || (bias->rows() == 1 && bias->cols() == w.cols()),
               "affine bias shape mismatch");
  const nnk::KernelTable& kernels = nnk::kernel_table(nn_kernel());
  nnk::PackedOperand packed;
  packed.pack(kernels, w.data(), w.rows(), w.cols(), x.rows());
  Matrix out = Matrix::uninitialized(x.rows(), w.cols());
  run_rows(x.rows(), x.rows(), w.cols(), x.cols(), [&](int begin, int end) {
    kernels.affine_rows(x.data(), x.cols(), packed.operand(), w.cols(),
                        bias ? bias->data() : nullptr, act, out.data(), begin, end);
  });
  return out;
}

Matrix matmul_transposed(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.cols() == b.cols(), "matmul_transposed shape mismatch");
  const nnk::KernelTable& kernels = nnk::kernel_table(nn_kernel());
  nnk::PackedOperand packed;
  packed.pack_transposed(kernels, b.data(), b.rows(), b.cols());
  Matrix out = Matrix::uninitialized(a.rows(), b.rows());
  run_rows(a.rows(), a.rows(), b.rows(), a.cols(), [&](int begin, int end) {
    kernels.matmul_rows(a.data(), a.cols(), packed.operand(), b.rows(), out.data(), begin, end);
  });
  return out;
}

Matrix matmul_transposed_a(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.rows() == b.rows(), "matmul_transposed_a shape mismatch");
  const nnk::KernelTable& kernels = nnk::kernel_table(nn_kernel());
  nnk::PackedOperand packed;
  packed.pack(kernels, b.data(), b.rows(), b.cols(), a.cols());
  Matrix out(a.cols(), b.cols());  // every chain starts at +0.0
  run_rows(a.cols(), a.cols(), b.cols(), a.rows(), [&](int begin, int end) {
    kernels.matmul_tn_resume(a.data(), a.rows(), a.cols(), packed.operand(), b.cols(),
                             out.data(), begin, end);
  });
  return out;
}

}  // namespace nptsn
