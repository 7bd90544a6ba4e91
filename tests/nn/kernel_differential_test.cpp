// Differential tests between the two GEMM kernel families (DESIGN.md §11).
//
// The reference family is the bit-frozen ground truth: naive loops, pure
// mul+add. The fast family (register-blocked, cache-tiled, explicit FMA) must
// stay within 1e-12 of it on every shape — including the degenerate ones the
// tiled path is most likely to get wrong (1x1, single rows/columns, empty
// dimensions, sizes that are not multiples of the register tile) — and must
// be BIT-identical to itself run-to-run and across thread counts. The
// backward kernels are pinned harder: they must be bit-identical to the
// single-chain loops they replaced, so training stays byte-for-byte the same.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

// Restores the process-global kernel switches on scope exit so test order
// cannot leak a kernel selection into unrelated tests.
class KernelGuard {
 public:
  KernelGuard() : kernel_(nn_kernel()), threads_(nn_kernel_threads()) {}
  ~KernelGuard() {
    set_nn_kernel(kernel_);
    set_nn_kernel_threads(threads_);
  }

 private:
  NnKernel kernel_;
  int threads_;
};

Matrix random_matrix(int rows, int cols, double density, Rng& rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    if (rng.uniform() < density) m.data()[i] = rng.uniform(-2.0, 2.0);
  }
  return m;
}

void expect_within(const Matrix& fast, const Matrix& ref, double tol,
                   const char* what) {
  ASSERT_TRUE(fast.same_shape(ref)) << what;
  for (int i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], ref.data()[i], tol)
        << what << " at flat index " << i;
  }
}

void expect_identical(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (int i = 0; i < a.size(); ++i) {
    // Exact double equality on purpose: the determinism contract is bitwise.
    EXPECT_EQ(a.data()[i], b.data()[i]) << what << " at flat index " << i;
  }
}

// The fast family's multiply-add: one fused rounding where the kernel unit
// was compiled with FMA, mul-then-add otherwise. Probed through the library:
// 1 * -(1 + 2^-29) + (1 + 2^-30)^2 is 2^-60 fused and 0 unfused.
bool fast_family_fuses() {
  KernelGuard guard;
  set_nn_kernel(NnKernel::kFast);
  const double e = 1.0 + std::ldexp(1.0, -30);
  const Matrix a = Matrix::from({{1.0, e}});
  const Matrix b = Matrix::from({{-(1.0 + std::ldexp(1.0, -29))}, {e}});
  return matmul(a, b).at(0, 0) != 0.0;
}

double madd(bool fused, double a, double b, double acc) {
  return fused ? std::fma(a, b, acc) : a * b + acc;
}

// The scalar a * b^T loop the fast family used before it packed b^T onto the
// register micro-kernels: per element, one chain over ascending k from +0.0,
// zero terms included.
Matrix scalar_nt_oracle(const Matrix& a, const Matrix& b, bool fused) {
  Matrix out(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (int k = 0; k < a.cols(); ++k) acc = madd(fused, a.at(i, k), b.at(j, k), acc);
      out.at(i, j) = acc;
    }
  }
  return out;
}

// a^T * b as one chain per element over ascending k from +0.0.
Matrix single_chain_tn_oracle(const Matrix& a, const Matrix& b, bool fused) {
  Matrix out(a.cols(), b.cols());
  for (int i = 0; i < a.cols(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int k = 0; k < a.rows(); ++k) {
        acc = madd(fused, a.data()[static_cast<std::size_t>(k) * a.cols() + i],
                   b.data()[static_cast<std::size_t>(k) * b.cols() + j], acc);
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

// Random symmetric adjacency-like block: mostly zero, guaranteed diagonal.
Matrix random_symmetric_block(int n, Rng& rng) {
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    a.at(i, i) = rng.uniform(0.1, 1.0);
    for (int j = i + 1; j < n; ++j) {
      if (rng.uniform() < 0.15) a.at(i, j) = a.at(j, i) = rng.uniform(-1.0, 1.0);
    }
  }
  return a;
}

struct Shape {
  int m, k, n;
};

// Degenerate and non-tile-multiple shapes, then randomized rectangles.
std::vector<Shape> test_shapes(Rng& rng) {
  std::vector<Shape> shapes = {
      {1, 1, 1},              // single element
      {1, 1, 17},             // 1 x N row
      {1, 9, 1},              // inner-product only
      {7, 1, 5},              // rank-one update
      {0, 5, 4}, {5, 0, 4}, {5, 4, 0},  // empty dimensions
      {4, 8, 8},              // exact register tile
      {5, 7, 9},              // off-by-one past the tile everywhere
      {13, 17, 11},           // nothing divides the tile sizes
      {3, 33, 31},            // row remainder smaller than the microkernel
      {46, 86, 92},           // ORION encoder layer-1 shape
  };
  for (int i = 0; i < 24; ++i) {
    shapes.push_back({rng.uniform_int(1, 40), rng.uniform_int(1, 40),
                      rng.uniform_int(1, 40)});
  }
  return shapes;
}

constexpr double kTol = 1e-12;
constexpr double kDensities[] = {0.0, 0.15, 0.6, 1.0};

TEST(KernelDifferential, MatmulFamiliesAgreeOnAllShapes) {
  KernelGuard guard;
  Rng rng(20240806);
  for (const Shape& s : test_shapes(rng)) {
    for (const double density : kDensities) {
      const Matrix a = random_matrix(s.m, s.k, density, rng);
      const Matrix b = random_matrix(s.k, s.n, density, rng);
      set_nn_kernel(NnKernel::kReference);
      const Matrix ref = matmul(a, b);
      set_nn_kernel(NnKernel::kFast);
      const Matrix fast = matmul(a, b);
      expect_within(fast, ref, kTol, "matmul");
    }
  }
}

TEST(KernelDifferential, TransposedFamiliesAgreeOnAllShapes) {
  KernelGuard guard;
  const bool fused = fast_family_fuses();
  Rng rng(77001);
  for (const Shape& s : test_shapes(rng)) {
    for (const double density : kDensities) {
      // matmul_transposed: a (m x k) * b^T with b stored n x k.
      const Matrix a = random_matrix(s.m, s.k, density, rng);
      const Matrix bt = random_matrix(s.n, s.k, density, rng);
      // matmul_transposed_a: a^T * c with a stored k x m.
      const Matrix a_tn = random_matrix(s.k, s.m, density, rng);
      const Matrix c = random_matrix(s.k, s.n, density, rng);
      set_nn_kernel(NnKernel::kReference);
      const Matrix ref_nt = matmul_transposed(a, bt);
      const Matrix ref_tn = matmul_transposed_a(a_tn, c);
      set_nn_kernel(NnKernel::kFast);
      const Matrix fast_nt = matmul_transposed(a, bt);
      const Matrix fast_tn = matmul_transposed_a(a_tn, c);
      expect_within(fast_nt, ref_nt, kTol, "matmul_transposed");
      expect_within(fast_tn, ref_tn, kTol, "matmul_transposed_a");
      // The fast gradient kernels are also bit-identical to the single-chain
      // loops they replaced (the low densities stand in for ReLU-masked
      // deltas and sparse features).
      expect_identical(fast_nt, scalar_nt_oracle(a, bt, fused), "matmul_transposed chain");
      expect_identical(fast_tn, single_chain_tn_oracle(a_tn, c, fused),
                       "matmul_transposed_a chain");
    }
  }
  // Large shapes, where threads > 1 take the parallel path: delta * W^T at the
  // ORION layer shape (dense and ReLU-masked), and x^T * delta across the
  // k-chunk boundary and at the stacked ORION batch. M and N leave row and
  // column remainders in every tile shape.
  set_nn_kernel(NnKernel::kFast);
  for (const double density : {1.0, 0.5, 0.1}) {
    const Matrix delta = random_matrix(230, 92, density, rng);
    const Matrix w = random_matrix(92, 92, 1.0, rng);
    const Matrix oracle = scalar_nt_oracle(delta, w, fused);
    for (const int threads : {1, 3}) {
      set_nn_kernel_threads(threads);
      expect_identical(matmul_transposed(delta, w), oracle, "matmul_transposed 230x92x92");
    }
  }
  constexpr int kM = 102;
  constexpr int kN = 85;
  for (const int k : {nnk::kTnChunk - 1, nnk::kTnChunk, nnk::kTnChunk + 1, 11776}) {
    // Column-uniform nonzero patterns: clearly sparse, just under and just
    // over the 25% density that switches a k chunk to the sparse path, dense.
    for (const int percent : {5, 24, 26, 100}) {
      Matrix x(k, kM);
      int nnz = 0;
      for (int r = 0; r < k; ++r) {
        for (int c = 0; c < kM; ++c) {
          if ((7 * r + 13 * c) % 100 < percent) {
            x.at(r, c) = rng.uniform(-2.0, 2.0);
            ++nnz;
          }
        }
      }
      const double density = static_cast<double>(nnz) / x.size();
      if (percent == 24) {
        ASSERT_LT(density, 0.25);
      }
      if (percent == 26) {
        ASSERT_GT(density, 0.25);
      }
      const Matrix delta = random_matrix(k, kN, 0.7, rng);
      const Matrix oracle = single_chain_tn_oracle(x, delta, fused);
      for (const int threads : {1, 2, 3}) {
        set_nn_kernel_threads(threads);
        expect_identical(matmul_transposed_a(x, delta), oracle, "matmul_transposed_a chunks");
      }
    }
  }
}

TEST(KernelDifferential, AffineEpiloguesAgreeOnAllShapes) {
  KernelGuard guard;
  Rng rng(31337);
  const Epilogue acts[] = {Epilogue::kNone, Epilogue::kRelu, Epilogue::kTanh};
  for (const Shape& s : test_shapes(rng)) {
    const Matrix x = random_matrix(s.m, s.k, 0.4, rng);
    const Matrix w = random_matrix(s.k, s.n, 0.8, rng);
    const Matrix bias = random_matrix(1, s.n, 1.0, rng);
    for (const Epilogue act : acts) {
      for (const Matrix* pbias : {static_cast<const Matrix*>(nullptr), &bias}) {
        set_nn_kernel(NnKernel::kReference);
        const Matrix ref = affine(x, w, pbias, act);
        set_nn_kernel(NnKernel::kFast);
        expect_within(affine(x, w, pbias, act), ref, kTol, "affine");
      }
    }
    set_nn_kernel(NnKernel::kReference);
    const Matrix p = random_matrix(s.m, s.m, 0.3, rng);
    const Matrix z = random_matrix(s.m, s.n, 0.7, rng);
    const Matrix ref = matmul_epilogue(p, z, Epilogue::kRelu);
    set_nn_kernel(NnKernel::kFast);
    expect_within(matmul_epilogue(p, z, Epilogue::kRelu), ref, kTol,
                  "matmul_epilogue");
  }
}

TEST(KernelDifferential, BlockDiagonalFamiliesAgree) {
  KernelGuard guard;
  Rng rng(555);
  for (const int n : {1, 3, 16, 46}) {
    for (const int batch : {1, 2, 7}) {
      std::vector<Matrix> blocks;
      for (int g = 0; g < batch; ++g) blocks.push_back(random_symmetric_block(n, rng));
      const std::vector<Matrix> dense = blocks;
      const auto adj = std::make_shared<const BlockAdjacency>(std::move(blocks));
      ASSERT_TRUE(adj->symmetric());
      const int f = rng.uniform_int(1, 24);
      const int out = rng.uniform_int(1, 24);
      const Matrix h = random_matrix(batch * n, f, 0.5, rng);
      const Matrix upstream = random_matrix(batch * n, out, 0.9, rng);
      const Matrix w = random_matrix(f, out, 1.0, rng);
      const Matrix bias = random_matrix(1, out, 1.0, rng);

      set_nn_kernel(NnKernel::kReference);
      const Matrix ref_prop = block_diag_matmul(*adj, h, Epilogue::kRelu);
      const Matrix ref_gcn = block_diag_gcn(*adj, h, w, bias);
      set_nn_kernel(NnKernel::kFast);
      expect_within(block_diag_matmul(*adj, h, Epilogue::kRelu), ref_prop, kTol,
                    "block_diag_matmul");
      expect_within(block_diag_gcn(*adj, h, w, bias), ref_gcn, kTol,
                    "block_diag_gcn");

      // In each family the fused layer's backward must be the chain of a
      // per-block transposed product through A-hat, bit for bit.
      for (const NnKernel kernel : {NnKernel::kReference, NnKernel::kFast}) {
        set_nn_kernel(kernel);
        const Tensor th = Tensor::parameter(h);
        const Tensor tw = Tensor::parameter(w);
        const Tensor tb = Tensor::parameter(bias);
        const Tensor y = block_gcn_fused(adj, th, tw, tb);
        sum_all(hadamard(y, Tensor::constant(upstream))).backward();

        Matrix delta_z(batch * n, out);
        for (int g = 0; g < batch; ++g) {
          Matrix delta_g(n, out);
          for (int i = 0; i < n; ++i) {
            for (int j = 0; j < out; ++j) {
              const int r = g * n + i;
              delta_g.at(i, j) = y.value().at(r, j) > 0.0 ? y.grad().at(r, j) : 0.0;
            }
          }
          const Matrix back = matmul_transposed_a(dense[static_cast<std::size_t>(g)], delta_g);
          for (int i = 0; i < n; ++i) {
            for (int j = 0; j < out; ++j) delta_z.at(g * n + i, j) = back.at(i, j);
          }
        }
        Matrix db(1, out);
        for (int i = 0; i < delta_z.rows(); ++i) {
          for (int j = 0; j < out; ++j) db.at(0, j) += delta_z.at(i, j);
        }
        expect_identical(th.grad(), matmul_transposed(delta_z, w), "block_gcn_fused dh");
        expect_identical(tw.grad(), matmul_transposed_a(h, delta_z), "block_gcn_fused dw");
        expect_identical(tb.grad(), db, "block_gcn_fused dbias");
      }
    }
  }

  // A non-symmetric batch still stages and propagates, but the fused layer,
  // whose backward needs A-hat^T = A-hat, refuses it.
  std::vector<Matrix> blocks = {random_symmetric_block(5, rng),
                                random_symmetric_block(5, rng)};
  blocks[1].at(0, 3) = blocks[1].at(3, 0) + 0.5;
  const auto skewed = std::make_shared<const BlockAdjacency>(std::move(blocks));
  EXPECT_FALSE(skewed->symmetric());
  EXPECT_NO_THROW(block_diag_matmul(*skewed, random_matrix(10, 3, 1.0, rng), Epilogue::kNone));
  EXPECT_THROW(block_gcn_fused(skewed, Tensor::parameter(random_matrix(10, 3, 1.0, rng)),
                               Tensor::parameter(random_matrix(3, 4, 1.0, rng)),
                               Tensor::parameter(random_matrix(1, 4, 1.0, rng))),
               std::invalid_argument);
}

TEST(KernelDifferential, CsrIndexMatchesDenseBlocks) {
  Rng rng(99);
  std::vector<Matrix> blocks;
  for (int g = 0; g < 3; ++g) blocks.push_back(random_matrix(9, 9, 0.3, rng));
  const std::vector<Matrix> dense = blocks;  // keep a copy to diff against
  const BlockAdjacency adj(std::move(blocks));
  ASSERT_EQ(adj.count(), 3);
  ASSERT_EQ(adj.block_size(), 9);
  for (int g = 0; g < adj.count(); ++g) {
    Matrix rebuilt(9, 9);
    for (int r = 0; r < 9; ++r) {
      int prev_col = -1;
      for (std::size_t t = adj.row_begin(g, r); t < adj.row_end(g, r); ++t) {
        const int c = adj.csr_cols()[t];
        EXPECT_GT(c, prev_col) << "CSR columns must ascend within a row";
        prev_col = c;
        EXPECT_NE(adj.csr_vals()[t], 0.0);
        rebuilt.at(r, c) = adj.csr_vals()[t];
      }
    }
    expect_identical(rebuilt, dense[static_cast<std::size_t>(g)], "csr rebuild");
  }
}

TEST(KernelDifferential, FastKernelsAreBitIdenticalAcrossThreadCounts) {
  KernelGuard guard;
  Rng rng(4242);
  set_nn_kernel(NnKernel::kFast);
  // Big enough that the parallel path actually partitions rows.
  const Matrix a = random_matrix(97, 53, 0.5, rng);
  const Matrix b = random_matrix(53, 61, 0.5, rng);
  const Matrix bias = random_matrix(1, 61, 1.0, rng);
  set_nn_kernel_threads(1);
  const Matrix serial = affine(a, b, &bias, Epilogue::kTanh);
  const Matrix serial_mm = matmul(a, b);
  for (const int threads : {2, 3, 5, 8}) {
    set_nn_kernel_threads(threads);
    expect_identical(affine(a, b, &bias, Epilogue::kTanh), serial,
                     "affine across thread counts");
    expect_identical(matmul(a, b), serial_mm, "matmul across thread counts");
  }
}

TEST(KernelDifferential, FastKernelsAreBitIdenticalRunToRun) {
  KernelGuard guard;
  Rng rng(808);
  set_nn_kernel(NnKernel::kFast);
  const Matrix x = random_matrix(37, 29, 0.4, rng);
  const Matrix w = random_matrix(29, 31, 0.9, rng);
  const Matrix bias = random_matrix(1, 31, 1.0, rng);
  const Matrix first = affine(x, w, &bias, Epilogue::kRelu);
  for (int rep = 0; rep < 3; ++rep) {
    expect_identical(affine(x, w, &bias, Epilogue::kRelu), first, "run-to-run");
  }
}

}  // namespace
}  // namespace nptsn
