// Differential tests between the two GEMM kernel families (DESIGN.md §11).
//
// The reference family is the bit-frozen ground truth: naive loops, pure
// mul+add. The fast family (register tiles over packed panels, explicit FMA)
// must stay within 1e-12 of it on every shape — including the degenerate ones
// the tiled path is most likely to get wrong (1x1, single rows/columns, empty
// dimensions, sizes that are not multiples of the register tile) — and must
// be BIT-identical to itself run-to-run, across thread counts and across its
// per-ISA tables. The backward kernels are pinned harder: they must be
// bit-identical to the single-chain loops they replaced, so training stays
// byte-for-byte the same.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

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

// The reference table and every fast table the host runs.
std::vector<const nnk::KernelTable*> every_table() {
  std::vector<const nnk::KernelTable*> tables = {&nnk::kernel_table(NnKernel::kReference)};
  for (const nnk::KernelTable& table : nnk::fast_kernel_tables()) tables.push_back(&table);
  return tables;
}

// A table's multiply-add: one fused rounding where its unit was compiled
// with FMA, mul-then-add otherwise. Probed through its affine_rows:
// 1 * -(1 + 2^-29) + (1 + 2^-30)^2 is 2^-60 fused and 0 unfused.
bool table_fuses(const nnk::KernelTable& table) {
  const double e = 1.0 + std::ldexp(1.0, -30);
  const double a[] = {1.0, e};
  const double b[] = {-(1.0 + std::ldexp(1.0, -29)), e};
  nnk::PackedOperand packed;
  packed.pack(table, b, 2, 1, 1);
  double out = 1.0;
  table.affine_rows(a, 2, packed.operand(), 1, nullptr, Epilogue::kNone, &out, 0, 1);
  return out != 0.0;
}

bool fast_family_fuses() { return table_fuses(nnk::kernel_table(NnKernel::kFast)); }

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
    // Column-uniform nonzero patterns from clearly sparse to dense: every k
    // chunk runs the tiles over all of its terms, whatever its density.
    for (const int percent : {5, 24, 26, 100}) {
      Matrix x(k, kM);
      for (int r = 0; r < k; ++r) {
        for (int c = 0; c < kM; ++c) {
          if ((7 * r + 13 * c) % 100 < percent) x.at(r, c) = rng.uniform(-2.0, 2.0);
        }
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

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Byte for byte; with nan_as_nan, any NaN also matches any NaN (which NaN a
// sum keeps is the compiler's choice of operand order).
void expect_same_bytes(const Matrix& got, const Matrix& want, const std::string& what,
                       bool nan_as_nan = false) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  if (got.size() == 0) return;
  if (std::memcmp(got.data(), want.data(), sizeof(double) * got.size()) == 0) return;
  for (int e = 0; e < got.size(); ++e) {
    if (nan_as_nan && std::isnan(got.data()[e]) && std::isnan(want.data()[e])) continue;
    if (bits(got.data()[e]) != bits(want.data()[e])) {
      ADD_FAILURE() << what << ": first differing element " << e << " is " << got.data()[e]
                    << ", the reference loop's " << want.data()[e];
      return;
    }
  }
}

// act(x W + bias) as the fast tables compute it: per element one chain over
// ascending k from +0.0, then + bias, then the activation (std::tanh, whose
// bits the fast tanh returns).
Matrix affine_chain_oracle(const Matrix& x, const Matrix& w, const Matrix* bias, Epilogue act,
                           bool fused) {
  Matrix out = scalar_nt_oracle(x, transpose(w), fused);
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < out.cols(); ++j) {
      double v = out.at(i, j);
      if (bias) v += bias->at(0, j);
      if (act == Epilogue::kRelu) v = v > 0.0 ? v : 0.0;
      if (act == Epilogue::kTanh) v = std::tanh(v);
      out.at(i, j) = v;
    }
  }
  return out;
}

// The dense row routines of every fast table the host runs (x86-64-v3, and
// x86-64-v4 where the CPU has AVX-512), called through the tables and fed
// what PackedOperand packs for each, equal the single-chain oracles byte for
// byte, and so each other. Column counts leave every last-panel width at 4,
// 8 and 16 columns per panel; row counts below a tile (the in-place panels
// of a short call) and of every remainder mod 6 above it; x^T delta's k
// across the chunk boundary, at three densities, resumed over two runs; and
// the heads ads_plan runs. Each call is split in two row ranges, as the
// kernel pool splits one. Every input is also run with infinite terms: the
// left operand's entries at one k are zero and the right-hand row k holds
// +Inf and -Inf. Each element's chain keeps every term, zero ones included,
// so 0 * Inf makes NaN there at every density, as in the oracles.
TEST(KernelDifferential, EveryFastTableMatchesTheSingleChainOracles) {
  const std::vector<nnk::KernelTable>& tables = nnk::fast_kernel_tables();
  ASSERT_FALSE(tables.empty());
  EXPECT_STREQ(tables.front().name, nnk::kernel_table(NnKernel::kFast).name);
  Rng rng(2210);
  std::vector<Shape> shapes;
  for (const int n : {17, 20, 31, 45, 92}) {
    for (const int m : {1, 5, 6, 7, 8, 9, 10, 11, 12}) {
      for (const int k : {1, 37}) shapes.push_back({m, k, n});
    }
  }
  shapes.push_back({256, 256, 256});  // the ADS heads' hidden layer
  shapes.push_back({256, 57, 256});   // their first layer over the embedding
  shapes.push_back({256, 256, 20});   // the actor's logits
  const auto shape_name = [](const char* what, const Shape& s, double density) {
    return std::string(what) + " " + std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
           std::to_string(s.n) + " at density " + std::to_string(density);
  };
  // Runs rows [0, split) and [split, m) of one routine, as two pool tasks.
  const auto halves = [](int m, const auto& rows) {
    const int split = m / 2 + (m > 13 ? 1 : 0);
    rows(0, split);
    rows(split, m);
  };
  // +Inf, -Inf and a finite entry in turn over `count` entries `stride`
  // apart: a right-hand operand's row k.
  const auto put_infinities = [](double* row, int count, int stride) {
    const double inf = std::numeric_limits<double>::infinity();
    for (int j = 0; j < count; ++j) {
      if (j % 3 < 2) row[static_cast<std::size_t>(j) * stride] = j % 3 == 0 ? inf : -inf;
    }
  };
  const Epilogue acts[] = {Epilogue::kNone, Epilogue::kRelu, Epilogue::kTanh};
  for (const Shape& s : shapes) {
    for (const double density : {1.0, 0.1}) {
      Matrix x = random_matrix(s.m, s.k, density, rng);
      for (int e = 0; e < x.size(); ++e) x.data()[e] *= 1.5;  // every tanh branch
      Matrix w = random_matrix(s.k, s.n, 1.0, rng);
      const Matrix bias = random_matrix(1, s.n, 1.0, rng);
      Matrix w_nt = random_matrix(s.n, s.k, 1.0, rng);  // delta W^T's W
      const bool fused = table_fuses(tables.front());
      for (const bool infinite : {false, true}) {
        SCOPED_TRACE(infinite ? "infinite terms" : "finite terms");
        if (infinite) {
          // x's column k0 is zero; W's row k0 and W^T's (w_nt's column k0)
          // hold the infinities.
          const int k0 = s.k / 2;
          for (int i = 0; i < s.m; ++i) x.at(i, k0) = 0.0;
          put_infinities(w.data() + static_cast<std::size_t>(k0) * s.n, s.n, 1);
          put_infinities(w_nt.data() + k0, s.n, s.k);
        }
        std::vector<Matrix> first;  // the first table's results, in order
        for (std::size_t t = 0; t < tables.size(); ++t) {
          const nnk::KernelTable& table = tables[t];
          SCOPED_TRACE(table.name);
          ASSERT_EQ(table_fuses(table), fused);
          std::vector<Matrix> results;
          nnk::PackedOperand packed;
          packed.pack(table, w.data(), s.k, s.n, s.m);
          for (const Epilogue act : acts) {
            for (const Matrix* pbias : {static_cast<const Matrix*>(nullptr), &bias}) {
              Matrix out = Matrix::uninitialized(s.m, s.n);
              halves(s.m, [&](int begin, int end) {
                table.affine_rows(x.data(), s.k, packed.operand(), s.n,
                                  pbias ? pbias->data() : nullptr, act, out.data(), begin, end);
              });
              expect_same_bytes(out, affine_chain_oracle(x, w, pbias, act, fused),
                                shape_name("affine_rows", s, density), infinite);
              results.push_back(std::move(out));
            }
          }
          nnk::PackedOperand packed_t;
          packed_t.pack_transposed(table, w_nt.data(), s.n, s.k);
          Matrix nt = Matrix::uninitialized(s.m, s.n);
          halves(s.m, [&](int begin, int end) {
            table.matmul_rows(x.data(), s.k, packed_t.operand(), s.n, nt.data(), begin, end);
          });
          expect_same_bytes(nt, scalar_nt_oracle(x, w_nt, fused),
                            shape_name("matmul_rows", s, density), infinite);
          results.push_back(std::move(nt));
          if (t == 0) {
            first = std::move(results);
            continue;
          }
          for (std::size_t r = 0; r < results.size(); ++r) {
            expect_same_bytes(results[r], first[r], shape_name("tables differ", s, density),
                              infinite);
          }
        }
      }
    }
  }

  // x^T delta: out (m x n) += x^T delta over k rows, x being k x m.
  for (const int k : {5, nnk::kTnChunk - 1, nnk::kTnChunk + 1}) {
    for (const int m : {1, 4, 6, 11, 17}) {
      for (const int n : {17, 20, 31, 45, 92}) {
        for (const double density : {1.0, 0.3, 0.1}) {
          Matrix x = random_matrix(k, m, density, rng);
          Matrix delta = random_matrix(k, n, 0.8, rng);
          for (const bool infinite : {false, true}) {
            SCOPED_TRACE(infinite ? "infinite terms" : "finite terms");
            if (infinite) {
              // x's row k0 is zero and delta's row k0 holds the infinities.
              const int k0 = k / 2;
              for (int i = 0; i < m; ++i) x.at(k0, i) = 0.0;
              put_infinities(delta.data() + static_cast<std::size_t>(k0) * n, n, 1);
            }
            const Matrix want = single_chain_tn_oracle(x, delta, table_fuses(tables.front()));
            const Shape s{m, k, n};
            Matrix first;
            for (const nnk::KernelTable& table : tables) {
              SCOPED_TRACE(table.name);
              // One call, split in two row ranges.
              Matrix out(m, n);
              nnk::PackedOperand packed;
              packed.pack(table, delta.data(), k, n, m);
              halves(m, [&](int begin, int end) {
                table.matmul_tn_resume(x.data(), k, m, packed.operand(), n, out.data(), begin,
                                       end);
              });
              expect_same_bytes(out, want, shape_name("matmul_tn_resume", s, density), infinite);
              // Two runs over the k rows, the second resuming the first's sums.
              Matrix resumed(m, n);
              const int k1 = k / 2 + 1;
              for (const auto& [row0, rows] : {std::pair{0, k1}, std::pair{k1, k - k1}}) {
                packed.pack(table, delta.data() + static_cast<std::size_t>(row0) * n, rows, n, m);
                table.matmul_tn_resume(x.data() + static_cast<std::size_t>(row0) * m, rows, m,
                                       packed.operand(), n, resumed.data(), 0, m);
              }
              expect_same_bytes(resumed, want,
                                shape_name("matmul_tn_resume in two runs", s, density), infinite);
              if (first.empty()) {
                first = std::move(out);
              } else {
                expect_same_bytes(out, first, shape_name("tables differ", s, density), infinite);
              }
            }
          }
        }
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
    // A square sparse left operand without bias: the A-hat-shaped product.
    set_nn_kernel(NnKernel::kReference);
    const Matrix p = random_matrix(s.m, s.m, 0.3, rng);
    const Matrix z = random_matrix(s.m, s.n, 0.7, rng);
    const Matrix ref = affine(p, z, nullptr, Epilogue::kRelu);
    set_nn_kernel(NnKernel::kFast);
    expect_within(affine(p, z, nullptr, Epilogue::kRelu), ref, kTol, "affine sparse A");
  }
}

// Random features: rows of alternating graphs at 5% and 50% density (the
// second above the 25% at which the fast family's dense paths take over),
// with every seventh zero a -0.0, which staging drops like +0.0.
Matrix random_features(int rows, int cols, int n, Rng& rng) {
  Matrix x(rows, cols);
  int zeros = 0;
  for (int i = 0; i < rows; ++i) {
    const double density = (i / n) % 2 == 0 ? 0.05 : 0.5;
    for (int j = 0; j < cols; ++j) {
      if (rng.uniform() < density) {
        x.at(i, j) = rng.uniform(-2.0, 2.0);
      } else if (++zeros % 7 == 0) {
        x.at(i, j) = -0.0;
      }
    }
  }
  return x;
}

std::shared_ptr<const CsrRows> staged_rows(const Matrix& x) {
  return std::make_shared<const CsrRows>(x.cols(), std::vector<const Matrix*>{&x});
}

// Square blocks stacked into the (B n) x n CSR rows of a batch adjacency.
CsrRows stacked_blocks(const std::vector<Matrix>& blocks) {
  std::vector<const Matrix*> parts;
  for (const Matrix& block : blocks) parts.push_back(&block);
  return CsrRows(blocks.front().cols(), parts);
}

// A random batched-encoder problem: `batch` graphs of n nodes with symmetric
// adjacency blocks, sparse features, and one layer per entry of `widths`
// (layer l maps widths[l - 1], or the feature width, to widths[l]). When the
// batch has more than one graph its last graph has an empty adjacency, so
// every layer of it, the last included, is all <= 0. The encoder node reads
// the features staged as CSR rows; the unfused oracle reads them dense.
struct EncoderCase {
  int n = 0;
  int batch = 0;
  std::vector<Matrix> blocks;
  std::shared_ptr<const CsrRows> adj;
  Matrix features;
  std::shared_ptr<const CsrRows> staged;
  std::vector<Matrix> w;
  std::vector<Matrix> b;
  Matrix upstream;  // batch x output width
};

EncoderCase encoder_case(int n, int batch, int features, const std::vector<int>& widths,
                         Rng& rng) {
  EncoderCase c;
  c.n = n;
  c.batch = batch;
  for (int g = 0; g < batch; ++g) {
    const bool empty = g > 0 && g == batch - 1;
    c.blocks.push_back(empty ? Matrix(n, n) : random_symmetric_block(n, rng));
  }
  c.adj = std::make_shared<const CsrRows>(stacked_blocks(c.blocks));
  c.features = random_features(batch * n, features, n, rng);
  c.staged = staged_rows(c.features);
  int in = features;
  for (const int out : widths) {
    c.w.push_back(random_matrix(in, out, 1.0, rng));
    c.b.push_back(random_matrix(1, out, 1.0, rng));
    in = out;
  }
  c.upstream = random_matrix(batch, in, 0.9, rng);
  return c;
}

Matrix rows_of(const Matrix& m, int first, int count) {
  Matrix out(count, m.cols());
  for (int i = 0; i < count; ++i) {
    for (int j = 0; j < m.cols(); ++j) out.at(i, j) = m.at(first + i, j);
  }
  return out;
}

void put_rows(Matrix& m, int first, const Matrix& src) {
  for (int i = 0; i < src.rows(); ++i) {
    for (int j = 0; j < src.cols(); ++j) m.at(first + i, j) = src.at(i, j);
  }
}

// The unfused tape the encoder node replaces, built from the dispatchers of
// the active kernel family: affine, a per-graph A-hat product and ReLU per
// layer, per-graph means; then back through the same steps with the node's
// incoming gradient: broadcast, ReLU gates, a per-graph A-hat^T product
// (matmul_transposed_a), the bias column sums, and the matmul_transposed_a /
// matmul_transposed gradients. 0.0 + d is the adoption of d as an empty
// gradient, as the tape does it.
struct Unfused {
  Matrix out;
  std::vector<Matrix> dw;
  std::vector<Matrix> db;
};

Unfused unfused_encoder(const EncoderCase& c, const Matrix& grad) {
  const int n = c.n;
  const int depth = static_cast<int>(c.w.size());
  const double inv = 1.0 / n;
  std::vector<Matrix> h = {c.features};
  for (int l = 0; l < depth; ++l) {
    const Matrix z = affine(h.back(), c.w[static_cast<std::size_t>(l)],
                            &c.b[static_cast<std::size_t>(l)], Epilogue::kNone);
    Matrix y(z.rows(), z.cols());
    for (int g = 0; g < c.batch; ++g) {
      Matrix p = matmul(c.blocks[static_cast<std::size_t>(g)], rows_of(z, g * n, n));
      for (int e = 0; e < p.size(); ++e) p.data()[e] = p.data()[e] > 0.0 ? p.data()[e] : 0.0;
      put_rows(y, g * n, p);
    }
    h.push_back(y);
  }
  const Matrix& last = h.back();
  Unfused u;
  u.out = Matrix(c.batch, last.cols());
  for (int g = 0; g < c.batch; ++g) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < last.cols(); ++j) u.out.at(g, j) += last.at(g * n + i, j);
    }
    for (int j = 0; j < last.cols(); ++j) u.out.at(g, j) *= inv;
  }
  if (depth == 0) return u;

  Matrix delta(last.rows(), last.cols());
  for (int r = 0; r < last.rows(); ++r) {
    for (int j = 0; j < last.cols(); ++j) {
      delta.at(r, j) = last.at(r, j) <= 0.0 ? 0.0 : 0.0 + grad.at(r / n, j) * inv;
    }
  }
  u.dw.resize(static_cast<std::size_t>(depth));
  u.db.resize(static_cast<std::size_t>(depth));
  for (int l = depth - 1; l >= 0; --l) {
    Matrix dz(delta.rows(), delta.cols());
    for (int g = 0; g < c.batch; ++g) {
      put_rows(dz, g * n,
               matmul_transposed_a(c.blocks[static_cast<std::size_t>(g)], rows_of(delta, g * n, n)));
    }
    Matrix db(1, dz.cols());
    for (int r = 0; r < dz.rows(); ++r) {
      for (int j = 0; j < dz.cols(); ++j) db.at(0, j) += dz.at(r, j);
    }
    Matrix dw = matmul_transposed_a(h[static_cast<std::size_t>(l)], dz);
    for (int e = 0; e < dw.size(); ++e) dw.data()[e] = 0.0 + dw.data()[e];
    u.dw[static_cast<std::size_t>(l)] = dw;
    u.db[static_cast<std::size_t>(l)] = db;
    if (l == 0) break;
    const Matrix back = matmul_transposed(dz, c.w[static_cast<std::size_t>(l)]);
    const Matrix& below = h[static_cast<std::size_t>(l)];
    delta = Matrix(back.rows(), back.cols());
    for (int e = 0; e < back.size(); ++e) {
      delta.data()[e] = below.data()[e] <= 0.0 ? 0.0 : 0.0 + back.data()[e];
    }
  }
  return u;
}

// Runs the encoder node over c with every weight and bias trainable and
// loss = sum(out * upstream); returns the node (its value and incoming
// gradient) and the parameters holding their gradients.
struct EncoderRun {
  Tensor out;
  std::vector<GcnWeights> layers;
};

EncoderRun run_encoder(const EncoderCase& c) {
  EncoderRun run;
  for (std::size_t l = 0; l < c.w.size(); ++l) {
    run.layers.push_back({Tensor::parameter(c.w[l]), Tensor::parameter(c.b[l])});
  }
  run.out = gcn_encoder(c.adj, c.n, c.staged, run.layers);
  if (!c.w.empty()) sum_all(hadamard(run.out, Tensor::constant(c.upstream))).backward();
  return run;
}

TEST(KernelDifferential, GcnEncoderMatchesTheUnfusedChainInBothFamilies) {
  KernelGuard guard;
  Rng rng(555);
  for (const int depth : {0, 1, 2, 3}) {
    for (const int n : {1, 3, 16, 46}) {
      // 7 and 9 graphs of 16 or 46 nodes stream through more than one run.
      for (const int batch : {1, 2, 7, 9}) {
        std::vector<int> widths;
        for (int l = 0; l < depth; ++l) widths.push_back(rng.uniform_int(1, 24));
        const EncoderCase c = encoder_case(n, batch, rng.uniform_int(1, 24), widths, rng);
        Matrix outputs[2];
        for (const NnKernel kernel : {NnKernel::kReference, NnKernel::kFast}) {
          set_nn_kernel(kernel);
          const EncoderRun run = run_encoder(c);
          const Unfused u = unfused_encoder(c, run.out.grad());
          expect_identical(run.out.value(), u.out, "gcn_encoder output");
          for (int l = 0; l < depth; ++l) {
            const GcnWeights& layer = run.layers[static_cast<std::size_t>(l)];
            expect_identical(layer.weight.grad(), u.dw[static_cast<std::size_t>(l)],
                             "gcn_encoder dW");
            expect_identical(layer.bias.grad(), u.db[static_cast<std::size_t>(l)],
                             "gcn_encoder db");
          }
          outputs[kernel == NnKernel::kFast] = run.out.value();
        }
        expect_within(outputs[1], outputs[0], kTol, "gcn_encoder families");
      }
    }
  }

  // Without layers the node is the per-graph mean of the features and needs
  // no adjacency.
  const EncoderCase pooled = encoder_case(3, 2, 4, {}, rng);
  const Tensor mean = gcn_encoder(nullptr, 3, pooled.staged, {});
  expect_identical(mean.value(), unfused_encoder(pooled, Matrix()).out, "gcn_encoder pooling");

  // A non-symmetric batch still stages, but the encoder, whose backward needs
  // A-hat^T = A-hat, refuses it; so it does missing features.
  std::vector<Matrix> blocks = {random_symmetric_block(5, rng),
                                random_symmetric_block(5, rng)};
  blocks[1].at(0, 3) = blocks[1].at(3, 0) + 0.5;
  const auto skewed = std::make_shared<const CsrRows>(stacked_blocks(blocks));
  EXPECT_FALSE(skewed->symmetric());
  const std::vector<GcnWeights> layer = {
      {Tensor::parameter(random_matrix(3, 4, 1.0, rng)),
       Tensor::parameter(random_matrix(1, 4, 1.0, rng))}};
  const auto x = staged_rows(random_matrix(10, 3, 1.0, rng));
  EXPECT_THROW(gcn_encoder(skewed, 5, x, layer), std::invalid_argument);
  const EncoderCase ok = encoder_case(5, 2, 3, {4}, rng);
  EXPECT_NO_THROW(gcn_encoder(ok.adj, 5, x, layer));
  EXPECT_THROW(gcn_encoder(ok.adj, 5, nullptr, layer), std::invalid_argument);
}

TEST(KernelDifferential, CsrIndexMatchesDenseBlocks) {
  Rng rng(99);
  std::vector<Matrix> blocks;
  for (int g = 0; g < 3; ++g) blocks.push_back(random_matrix(9, 9, 0.3, rng));
  const CsrRows adj = stacked_blocks(blocks);
  ASSERT_EQ(adj.rows(), 27);
  ASSERT_EQ(adj.cols(), 9);
  for (int g = 0; g < 3; ++g) {
    Matrix rebuilt(9, 9);
    for (int r = 0; r < 9; ++r) {
      int prev_col = -1;
      for (std::size_t t = adj.row_begin(g * 9 + r); t < adj.row_end(g * 9 + r); ++t) {
        const int c = adj.csr_cols()[t];
        EXPECT_GT(c, prev_col) << "CSR columns must ascend within a row";
        prev_col = c;
        EXPECT_NE(adj.csr_vals()[t], 0.0);
        rebuilt.at(r, c) = adj.csr_vals()[t];
      }
    }
    expect_identical(rebuilt, blocks[static_cast<std::size_t>(g)], "csr rebuild");
  }
}

TEST(KernelDifferential, CsrRowsKeepEveryNonzeroInAscendingColumns) {
  Rng rng(98);
  const Matrix top = random_features(12, 9, 4, rng);
  const Matrix bottom = random_features(5, 9, 5, rng);
  const CsrRows rows(9, {&top, &bottom});
  ASSERT_EQ(rows.rows(), 17);
  ASSERT_EQ(rows.cols(), 9);
  Matrix rebuilt(17, 9);
  std::size_t stored = 0;
  for (int r = 0; r < rows.rows(); ++r) {
    int prev_col = -1;
    for (std::size_t t = rows.row_begin(r); t < rows.row_end(r); ++t) {
      const int c = rows.csr_cols()[t];
      EXPECT_GT(c, prev_col) << "CSR columns must ascend within a row";
      prev_col = c;
      EXPECT_NE(rows.csr_vals()[t], 0.0) << "a stored entry is never +0.0 or -0.0";
      rebuilt.at(r, c) = rows.csr_vals()[t];
      ++stored;
    }
  }
  EXPECT_EQ(stored, rows.row_end(rows.rows() - 1));
  // == on purpose: a dropped -0.0 reads back as +0.0, which every kernel
  // treats alike.
  for (int r = 0; r < 17; ++r) {
    const Matrix& src = r < 12 ? top : bottom;
    const int sr = r < 12 ? r : r - 12;
    for (int c = 0; c < 9; ++c) EXPECT_TRUE(rebuilt.at(r, c) == src.at(sr, c)) << r << "," << c;
  }
  const Matrix narrow(2, 8);
  EXPECT_THROW(CsrRows(9, {&top, &narrow}), std::invalid_argument);
}

// Symmetry is checked once per square part as it is built, a non-square
// part (the features) reads false unchecked, and a stack is symmetric when
// every part is. Malformed arrays are refused.
TEST(KernelDifferential, CsrRowsCheckSymmetryOncePerSquarePart) {
  Rng rng(97);
  const Matrix a = random_symmetric_block(6, rng);
  Matrix skew = random_symmetric_block(6, rng);
  skew.at(0, 5) = skew.at(5, 0) + 0.5;
  const Matrix wide = random_features(6, 9, 6, rng);
  const CsrRows sym(6, {&a});
  const CsrRows asym(6, {&skew});
  EXPECT_TRUE(sym.symmetric());
  EXPECT_FALSE(asym.symmetric());
  EXPECT_FALSE(CsrRows(9, {&wide}).symmetric());
  EXPECT_TRUE(CsrRows(6, {&a, &a}).symmetric());
  EXPECT_FALSE(CsrRows(6, {&a, &skew}).symmetric());
  EXPECT_TRUE(CsrRows({&sym, &sym}).symmetric());
  EXPECT_FALSE(CsrRows({&sym, &asym}).symmetric());

  // From arrays: a mirrored pair, an entry without its mirror, a mirror
  // holding another value, and rows that are not square.
  EXPECT_TRUE(CsrRows(2, {0, 2, 4}, {0, 1, 0, 1}, {1.0, 0.5, 0.5, 1.0}).symmetric());
  EXPECT_FALSE(CsrRows(2, {0, 2, 3}, {0, 1, 1}, {1.0, 0.5, 1.0}).symmetric());
  EXPECT_FALSE(CsrRows(2, {0, 2, 4}, {0, 1, 0, 1}, {1.0, 0.5, 0.25, 1.0}).symmetric());
  EXPECT_FALSE(CsrRows(3, {0, 1, 2}, {0, 1}, {1.0, 1.0}).symmetric());
  // Columns out of order or past the width, stored zeros, row pointers past
  // the arrays, and arrays that do not fit together.
  EXPECT_THROW(CsrRows(2, {0, 2}, {1, 0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(CsrRows(2, {0, 1}, {2}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CsrRows(2, {0, 1}, {0}, {-0.0}), std::invalid_argument);
  EXPECT_THROW(CsrRows(2, {0, 3, 2}, {0, 1}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(CsrRows(2, {0, 1}, {0, 1}, {1.0, 1.0}), std::invalid_argument);
}

// The first layer's products over CSR rows equal the same table's dense
// per-graph primitives bit for bit, in the reference family and in every
// fast table the host runs: rows with no entry, one entry, only -0.0 zeros,
// and graphs at 5% and 50% density, where the fast tiles run every term and
// the CSR walks only the stored ones, with the weight gradient resumed from
// nonzero partial sums.
TEST(KernelDifferential, CsrLayerPrimitivesEqualTheDenseRowsInBothFamilies) {
  Rng rng(2718);
  for (const int n : {1, 5, 16}) {
    for (const int f : {1, 7, 37}) {
      for (const int out : {1, 5, 33}) {
        constexpr int kBatch = 3;
        Matrix x = random_features(kBatch * n, f, n, rng);
        for (int j = 0; j < f; ++j) x.at(0, j) = j % 2 == 0 ? -0.0 : 0.0;
        if (n > 1) {
          for (int j = 0; j < f; ++j) x.at(1, j) = j == f / 2 ? 1.25 : 0.0;
        }
        const auto staged = staged_rows(x);
        std::vector<Matrix> blocks;
        for (int g = 0; g < kBatch; ++g) blocks.push_back(random_symmetric_block(n, rng));
        const CsrRows adj = stacked_blocks(blocks);
        const Matrix w = random_matrix(f, out, 1.0, rng);
        const Matrix bias = random_matrix(1, out, 1.0, rng);
        const Matrix delta = random_matrix(kBatch * n, out, 0.8, rng);
        const Matrix start = random_matrix(f, out, 1.0, rng);
        for (const nnk::KernelTable* table : every_table()) {
          const nnk::KernelTable& kernels = *table;
          nnk::PackedOperand packed_w;
          packed_w.pack(kernels, w.data(), f, out, n);
          for (int g = 0; g < kBatch; ++g) {
            // The encoder's layer: affine into z, then y = relu(A-hat_g z).
            Matrix z_dense(n, out), y_dense(n, out), z_csr(n, out), y_csr(n, out);
            kernels.affine_rows(x.data() + static_cast<std::size_t>(g) * n * f, f,
                                packed_w.operand(), out, bias.data(), Epilogue::kNone,
                                z_dense.data(), 0, n);
            kernels.affine_csr(*staged, g * n, n, w.data(), out, bias.data(), Epilogue::kNone,
                               z_csr.data());
            kernels.affine_csr(adj, g * n, n, z_dense.data(), out, nullptr, Epilogue::kRelu,
                               y_dense.data());
            kernels.affine_csr(adj, g * n, n, z_csr.data(), out, nullptr, Epilogue::kRelu,
                               y_csr.data());
            expect_identical(z_csr, z_dense, "affine_csr");
            expect_identical(y_csr, y_dense, "layer output over affine_csr");
          }
          // Per graph (one density each) and over the whole batch at once.
          for (const auto& [row0, rows] :
               {std::pair{0, n}, std::pair{n, n}, std::pair{0, kBatch * n}}) {
            Matrix dense = start;
            Matrix csr = start;
            const double* b = delta.data() + static_cast<std::size_t>(row0) * out;
            nnk::PackedOperand packed_b;
            packed_b.pack(kernels, b, rows, out, f);
            kernels.matmul_tn_resume(x.data() + static_cast<std::size_t>(row0) * f, rows, f,
                                     packed_b.operand(), out, dense.data(), 0, f);
            kernels.matmul_tn_resume_csr(*staged, row0, rows, b, out, csr.data());
            expect_identical(csr, dense, "matmul_tn_resume_csr");
          }
        }
      }
    }
  }
}

// The one CSR product of each family, affine_csr, equals the same table's
// affine_rows over the densified rows byte for byte, in the reference family
// and in every fast table the host runs, for every epilogue, with and
// without a bias. On A-hat-shaped rows: square blocks with self loops,
// symmetric, stacked B high, over each graph's rows, the whole stack and a
// range that starts mid-batch. On feature-shaped rows: B n x F at 5% and 50%
// density, with a row holding only zeros of both signs. b is finite, so the
// zero terms the fast tiles keep change nothing.
TEST(KernelDifferential, AffineCsrEqualsAffineRowsOverTheDensifiedRows) {
  Rng rng(1618);
  constexpr int kBatch = 3;
  const Epilogue acts[] = {Epilogue::kNone, Epilogue::kRelu, Epilogue::kTanh};
  for (const int n : {1, 5, 16}) {
    for (const int cols_n : {1, 5, 33}) {
      std::vector<Matrix> blocks;
      for (int g = 0; g < kBatch; ++g) blocks.push_back(random_symmetric_block(n, rng));
      const CsrRows a_hat = stacked_blocks(blocks);
      ASSERT_TRUE(a_hat.symmetric());
      Matrix x = random_features(kBatch * n, 2 * n + 3, n, rng);
      for (int j = 0; j < x.cols(); ++j) x.at(0, j) = j % 2 == 0 ? -0.0 : 0.0;
      const CsrRows features(x.cols(), {&x});
      std::vector<std::pair<int, int>> ranges = {{kBatch * n / 2, kBatch * n - kBatch * n / 2},
                                                 {0, kBatch * n}};
      for (int g = 0; g < kBatch; ++g) ranges.emplace_back(g * n, n);
      for (const CsrRows* rows : {&a_hat, &features}) {
        const Matrix dense = rows->to_dense();
        // Scaled so the pre-activations reach every branch of tanh.
        Matrix b = random_matrix(rows->cols(), cols_n, 1.0, rng);
        for (int e = 0; e < b.size(); ++e) b.data()[e] *= 3.0;
        const Matrix bias = random_matrix(1, cols_n, 1.0, rng);
        for (const nnk::KernelTable* table : every_table()) {
          for (const auto& [row0, count] : ranges) {
            std::string what = table->name;
            what += rows == &a_hat ? " A-hat rows " : " feature rows ";
            what += std::to_string(row0) + "+" + std::to_string(count);
            nnk::PackedOperand packed;
            packed.pack(*table, b.data(), b.rows(), cols_n, count);
            for (const Epilogue act : acts) {
              for (const double* pbias : {static_cast<const double*>(nullptr), bias.data()}) {
                Matrix want(count, cols_n);
                Matrix got(count, cols_n);
                table->affine_rows(dense.data() + static_cast<std::size_t>(row0) * dense.cols(),
                                   dense.cols(), packed.operand(), cols_n, pbias, act,
                                   want.data(), 0, count);
                table->affine_csr(*rows, row0, count, b.data(), cols_n, pbias, act, got.data());
                expect_same_bytes(got, want, what);
              }
            }
          }
        }
      }
    }
  }
}

// Bitwise, except that any NaN matches any NaN: which operand's payload a
// sum of two NaNs keeps is the compiler's choice of operand order.
void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const char* what, std::size_t count) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    EXPECT_EQ(bits(got[i]), bits(want[i]))
        << what << " at " << i << " of " << count << ": " << got[i] << " vs " << want[i];
  }
}

// The encoder node's elementwise passes equal the scalar expressions they
// replaced, bit for bit, on NaN, signed zeros, infinities and subnormals, at
// every length up to past two AVX-512 vectors (so every lane tail) and at a
// length where every pair of special values meets in a vector lane; the
// column sums also over ordinary values of mixed magnitudes, where the
// order of the additions shows.
TEST(KernelDifferential, GatePrimitivesEqualTheScalarExpressions) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double specials[] = {nan,  -0.0, 0.0,    inf,  -inf, tiny, -tiny, 1.5,
                             -2.5, 3e-310, -nan, 0.75, -1e300, 1e-320};
  constexpr std::size_t kSpecials = sizeof(specials) / sizeof(specials[0]);
  // Entry e pairs specials[e % K] with specials[(e % K + e / K + 1) % K]:
  // the first K * K entries hold every ordered pair once.
  const auto first = [&](std::size_t e) { return specials[e % kSpecials]; };
  const auto second = [&](std::size_t e) {
    return specials[(e % kSpecials + e / kSpecials + 1) % kSpecials];
  };
  const double inv = 1.0 / 3.0;
  Rng rng(1414);
  std::vector<std::size_t> lengths;
  for (std::size_t count = 0; count <= 19; ++count) lengths.push_back(count);
  lengths.push_back(kSpecials * kSpecials);
  for (const std::size_t count : lengths) {
    std::vector<double> h(count), back(count);
    std::vector<std::uint8_t> dead(count), dead_want(count);
    for (std::size_t e = 0; e < count; ++e) {
      h[e] = first(e);
      back[e] = second(e);
    }
    nnk::relu_dead_bytes(h.data(), count, dead.data());
    for (std::size_t e = 0; e < count; ++e) dead_want[e] = h[e] <= 0.0;
    EXPECT_EQ(dead, dead_want) << "relu_dead_bytes at length " << count;

    std::vector<double> gated(count), gated_want(count);
    nnk::relu_gate(h.data(), back.data(), count, gated.data());
    for (std::size_t e = 0; e < count; ++e) gated_want[e] = h[e] <= 0.0 ? 0.0 : 0.0 + back[e];
    expect_same_bits(gated, gated_want, "relu_gate", count);

    // One graph's readout gate: 3 rows x count columns, every gradient
    // entry meeting both a live and a dead byte.
    constexpr int kRows = 3;
    const int cols = static_cast<int>(count);
    std::vector<std::uint8_t> gate(kRows * count);
    for (std::size_t e = 0; e < gate.size(); ++e) gate[e] = (e / count + e % count) % 2;
    std::vector<double> delta(kRows * count), delta_want(kRows * count);
    nnk::readout_gate(back.data(), inv, gate.data(), kRows, cols, delta.data());
    for (int r = 0; r < kRows; ++r) {
      for (int j = 0; j < cols; ++j) {
        const std::size_t e = static_cast<std::size_t>(r) * cols + j;
        delta_want[e] = gate[e] ? 0.0 : 0.0 + back[j] * inv;
      }
    }
    expect_same_bits(delta, delta_want, "readout_gate", count);

    // Column sums and means over a block of special values and over one of
    // ordinary values spread across 60 binary orders of magnitude.
    std::vector<double> specials_block(kRows * count);
    for (std::size_t e = 0; e < specials_block.size(); ++e) {
      specials_block[e] = e < count ? h[e] : e < 2 * count ? back[e - count] : first(e + 3);
    }
    constexpr int kOrdinaryRows = 7;
    std::vector<double> ordinary_block(kOrdinaryRows * count);
    for (double& v : ordinary_block) {
      v = std::ldexp(rng.uniform(-1.0, 1.0), rng.uniform_int(-30, 30));
    }
    for (const auto& [block, rows] :
         {std::pair{&specials_block, kRows}, std::pair{&ordinary_block, kOrdinaryRows}}) {
      std::vector<double> sums(back), sums_want(back);
      std::vector<double> mean(count), mean_want(count, 0.0);
      nnk::add_col_sums(block->data(), rows, cols, sums.data());
      nnk::mean_readout(block->data(), rows, cols, inv, mean.data());
      for (int r = 0; r < rows; ++r) {
        for (int j = 0; j < cols; ++j) {
          sums_want[j] += (*block)[static_cast<std::size_t>(r) * cols + j];
          mean_want[j] += (*block)[static_cast<std::size_t>(r) * cols + j];
        }
      }
      for (double& v : mean_want) v *= inv;
      expect_same_bits(sums, sums_want, "add_col_sums", count);
      expect_same_bits(mean, mean_want, "mean_readout", count);

      // The pooled mean over CSR rows skips zeros, signed ones included.
      if (count > 0) {
        Matrix x(rows, cols);
        std::copy(block->begin(), block->end(), x.data());
        std::vector<double> pooled(count);
        nnk::mean_readout_csr(*staged_rows(x), 0, rows, inv, pooled.data());
        expect_same_bits(pooled, mean_want, "mean_readout_csr", count);
      }
    }
  }
}

// Copies of the reference family's loops as they stood before its routines
// moved into one table (nnk::kernel_table), for the non-finite case below.
// The test TU, like the kernel TU, is compiled with -ffp-contract=off, so
// these round as the library's loops do.
double oracle_epilogue(double v, Epilogue act) {
  switch (act) {
    case Epilogue::kNone: return v;
    case Epilogue::kRelu: return v > 0.0 ? v : 0.0;
    case Epilogue::kTanh: return std::tanh(v);
  }
  return v;
}

// matmul_reference: i-k-j, zero a(i, k) skipped.
Matrix oracle_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = a.at(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data() + static_cast<std::size_t>(k) * b.cols();
      double* orow = out.data() + static_cast<std::size_t>(i) * out.cols();
      for (int j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

// matmul_nt_reference: the dot loop, zero terms included (the reference
// matmul_rows over W).
Matrix oracle_matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double sum = 0.0;
      for (int k = 0; k < a.cols(); ++k) sum += a.at(i, k) * b.at(j, k);
      out.at(i, j) = sum;
    }
  }
  return out;
}

// matmul_tn_resume_reference: out (a.cols() x b.cols()) += a^T b, k outer,
// zero a(k, i) skipped.
void oracle_matmul_tn_resume(const Matrix& a, const Matrix& b, Matrix& out) {
  for (int k = 0; k < a.rows(); ++k) {
    const double* arow = a.data() + static_cast<std::size_t>(k) * a.cols();
    const double* brow = b.data() + static_cast<std::size_t>(k) * b.cols();
    for (int i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* orow = out.data() + static_cast<std::size_t>(i) * b.cols();
      for (int j = 0; j < b.cols(); ++j) orow[j] += aki * brow[j];
    }
  }
}

// affine_reference: matmul_reference, then + bias, then the epilogue.
Matrix oracle_affine(const Matrix& a, const Matrix& b, const Matrix* bias, Epilogue act) {
  Matrix out = oracle_matmul(a, b);
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < out.cols(); ++j) {
      double v = out.at(i, j);
      if (bias) v += bias->at(0, j);
      out.at(i, j) = oracle_epilogue(v, act);
    }
  }
  return out;
}

// The reference A-hat product as it was over dense blocks (out = A_g src by
// the zero-skipping i-k-j loop, which skips +0.0 and -0.0 entries alike),
// then the epilogue pass the reference layer applied to it.
Matrix oracle_propagate(const Matrix& block, const Matrix& src, Epilogue act) {
  const int n = block.rows();
  const int cols = src.cols();
  const double* pa = block.data();
  Matrix out(n, cols);
  for (int i = 0; i < n; ++i) {
    double* orow = out.data() + static_cast<std::size_t>(i) * cols;
    for (int k = 0; k < n; ++k) {
      const double aik = pa[static_cast<std::size_t>(i) * n + k];
      if (aik == 0.0) continue;
      const double* srow = src.data() + static_cast<std::size_t>(k) * cols;
      for (int j = 0; j < cols; ++j) orow[j] += aik * srow[j];
    }
  }
  for (int e = 0; e < out.size(); ++e) out.data()[e] = oracle_epilogue(out.data()[e], act);
  return out;
}

// The reference family is the ground truth for IEEE special values too.
// Every entry point and every reference table routine, on operands holding
// +/-0.0, +/-Inf and NaN next to zeros, equals (memcmp) the loop it replaced:
// zero-skipping i-k-j loops, where 0 * Inf never happens, and dot loops,
// where it is NaN. A dot loop that started skipping zeros would fail here.
TEST(KernelDifferential, ReferenceFamilyKeepsItsNonFiniteSemantics) {
  KernelGuard guard;
  set_nn_kernel(NnKernel::kReference);
  const nnk::KernelTable& reference = nnk::kernel_table(NnKernel::kReference);
  const double inf = std::numeric_limits<double>::infinity();
  // The hardware's NaN, the one 0 * Inf makes, so that every NaN of a result
  // has the same bits whichever operand of a sum the compiler puts first.
  volatile double zero = 0.0;
  const double nan = inf * zero;
  const double values[] = {0.0, -0.0, inf, -inf, nan, 0.0, 1.5, -0.0, -2.25, 0.0, 0.5};
  constexpr int kValues = sizeof(values) / sizeof(values[0]);
  Rng rng(4711);
  const auto special = [&](int rows, int cols) {
    Matrix m(rows, cols);
    for (int e = 0; e < m.size(); ++e) m.data()[e] = values[rng.uniform_int(0, kValues - 1)];
    return m;
  };
  const auto csr = [](const Matrix& m) {
    return CsrRows(m.cols(), std::vector<const Matrix*>{&m});
  };
  const Epilogue acts[] = {Epilogue::kNone, Epilogue::kRelu, Epilogue::kTanh};
  for (const Shape& s : std::vector<Shape>{{1, 1, 1}, {3, 5, 4}, {7, 6, 9}, {13, 11, 10}}) {
    const std::string shape =
        " at " + std::to_string(s.m) + "x" + std::to_string(s.k) + "x" + std::to_string(s.n);
    const Matrix a = special(s.m, s.k);
    const Matrix b = special(s.k, s.n);
    const Matrix bias = special(1, s.n);
    const Matrix b_nt = special(s.n, s.k);  // matmul_transposed's b, stored n x k
    const Matrix a_tn = special(s.k, s.m);  // matmul_transposed_a's a, stored k x m
    const Matrix start = special(s.m, s.n);  // partial sums a resume continues

    // The entry points.
    expect_same_bytes(matmul(a, b), oracle_matmul(a, b), "matmul" + shape);
    for (const Epilogue act : acts) {
      for (const Matrix* pbias : {static_cast<const Matrix*>(nullptr), &bias}) {
        expect_same_bytes(affine(a, b, pbias, act), oracle_affine(a, b, pbias, act),
                          "affine" + shape);
      }
    }
    expect_same_bytes(matmul_transposed(a, b_nt), oracle_matmul_nt(a, b_nt),
                      "matmul_transposed" + shape);
    Matrix tn(s.m, s.n);
    oracle_matmul_tn_resume(a_tn, b, tn);
    expect_same_bytes(matmul_transposed_a(a_tn, b), tn, "matmul_transposed_a" + shape);

    // The table's routines.
    for (const Epilogue act : acts) {
      Matrix out(s.m, s.n);
      reference.affine_rows(a.data(), s.k, {b.data()}, s.n, bias.data(), act, out.data(), 0,
                            s.m);
      expect_same_bytes(out, oracle_affine(a, b, &bias, act), "affine_rows" + shape);
    }
    Matrix rows(s.m, s.n);
    reference.matmul_rows(a.data(), s.k, {b_nt.data()}, s.n, rows.data(), 0, s.m);
    expect_same_bytes(rows, oracle_matmul_nt(a, b_nt), "matmul_rows" + shape);
    Matrix resumed = start;
    Matrix resumed_want = start;
    reference.matmul_tn_resume(a_tn.data(), s.k, s.m, {b.data()}, s.n, resumed.data(), 0, s.m);
    oracle_matmul_tn_resume(a_tn, b, resumed_want);
    expect_same_bytes(resumed, resumed_want, "matmul_tn_resume" + shape);
    // The CSR rows hold the entries != 0.0, NaN and the infinities included.
    for (const Epilogue act : acts) {
      for (const Matrix* pbias : {static_cast<const Matrix*>(nullptr), &bias}) {
        Matrix z(s.m, s.n);
        reference.affine_csr(csr(a), 0, s.m, b.data(), s.n, pbias ? pbias->data() : nullptr, act,
                             z.data());
        expect_same_bytes(z, oracle_affine(a, b, pbias, act), "affine_csr" + shape);
      }
    }
    Matrix resumed_csr = start;
    reference.matmul_tn_resume_csr(csr(a_tn), 0, s.k, b.data(), s.n, resumed_csr.data());
    expect_same_bytes(resumed_csr, resumed_want, "matmul_tn_resume_csr" + shape);
    // The A-hat products walk the CSR of the stacked blocks, which drops
    // their -0.0 and +0.0 entries and keeps NaN and the infinities.
    const std::vector<Matrix> blocks = {special(s.m, s.m), special(s.m, s.m)};
    const CsrRows adj = stacked_blocks(blocks);
    const Matrix src = special(s.m, s.n);
    for (int g = 0; g < 2; ++g) {
      for (const Epilogue act : acts) {
        Matrix out(s.m, s.n);
        reference.affine_csr(adj, g * s.m, s.m, src.data(), s.n, nullptr, act, out.data());
        expect_same_bytes(out, oracle_propagate(blocks[static_cast<std::size_t>(g)], src, act),
                          "affine_csr over A-hat" + shape);
      }
    }
  }
}

// The C library the process runs against, for the tanh test's messages.
std::string libc_name() {
#if defined(__GLIBC__)
  return std::string("glibc ") + gnu_get_libc_version();
#else
  return "a C library other than glibc";
#endif
}

// Streams inputs through a fast table's tanh and std::tanh in blocks and
// counts the outputs whose bytes differ, reporting the first few.
class TanhComparison {
 public:
  explicit TanhComparison(const nnk::KernelTable& table) : table_(table) {}

  void add(double x) {
    block_.push_back(x);
    if (block_.size() == kBlock) flush();
  }

  // Flushes the last block; returns the number of inputs compared.
  std::size_t finish() {
    flush();
    return compared_;
  }

  std::size_t mismatches() const { return mismatches_; }

 private:
  static constexpr std::size_t kBlock = 1 << 16;

  void flush() {
    std::vector<double> fast(block_.size());
    table_.tanh(block_.data(), block_.size(), fast.data());
    for (std::size_t e = 0; e < block_.size(); ++e) {
      const double libm = std::tanh(block_[e]);
      if (std::memcmp(&fast[e], &libm, sizeof(double)) == 0) continue;
      if (++mismatches_ <= 8) {
        ADD_FAILURE() << table_.name << " tanh(" << std::hexfloat << block_[e] << ") = " << fast[e]
                      << ", std::tanh = " << libm << std::defaultfloat << " under " << libc_name()
                      << ": the fast family ports glibc 2.36's fdlibm tanh over its FMA expm1 "
                         "(DESIGN.md section 11) and must return libm's bits";
      }
    }
    compared_ += block_.size();
    block_.clear();
  }

  const nnk::KernelTable& table_;
  std::vector<double> block_;
  std::size_t compared_ = 0;
  std::size_t mismatches_ = 0;
};

// x and -x for x and the `steps` doubles on either side of it.
void add_around(TanhComparison& cmp, double x, int steps) {
  double below = x;
  double above = x;
  for (int s = 0; s <= steps; ++s) {
    for (const double v : {below, above}) {
      cmp.add(v);
      cmp.add(-v);
    }
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, std::numeric_limits<double>::infinity());
  }
}

double from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

// Every fast table's tanh is a port of glibc's and must equal std::tanh byte
// for byte: over 2^24 random inputs (bit patterns with exponents -60 to 5,
// uniform values on [-25, 25] and the N(0, 0.35) mix the ADS heads see),
// around every branch edge of tanh and of the expm1 it runs (both the
// mathematical cut and fdlibm's high-word cut), and on the special values.
// A libm that is not glibc's fdlibm tanh fails here, by name.
TEST(KernelDifferential, FastTanhMatchesLibmBitForBit) {
  for (const nnk::KernelTable& table : nnk::fast_kernel_tables()) {
    SCOPED_TRACE(table.name);
    TanhComparison cmp(table);
    Rng rng(20261019);
    constexpr int kRandom = 1 << 22;
    for (int i = 0; i < 2 * kRandom; ++i) {
      const std::uint64_t exponent = static_cast<std::uint64_t>(rng.uniform_int(-60, 5) + 1023);
      const std::uint64_t word = rng.next_u64();
      cmp.add(from_bits((word & 0x800fffffffffffffull) | exponent << 52));
    }
    for (int i = 0; i < kRandom; ++i) cmp.add(rng.uniform(-25.0, 25.0));
    for (int i = 0; i < kRandom; ++i) cmp.add(0.35 * rng.normal());

    const double ln2 = std::log(2.0);
    // |x| where tanh switches to x (2^-55), to expm1(2|x|) (1) and to +-1 (22);
    // where expm1(-2|x|) reduces by k = -1 (|u| = ln2 / 2) and by k <= -2
    // (1.5 ln2); where expm1(2|x|) rounds k to 20 (19.5 ln2) and to 57
    // (56.5 ln2), and where fdlibm stops filtering (56 ln2).
    const double edges[] = {std::ldexp(1.0, -55), 0.25 * ln2,  0.75 * ln2, 1.0,
                            9.75 * ln2,           28.25 * ln2, 28.0 * ln2, 22.0};
    for (const double edge : edges) {
      add_around(cmp, edge, 4096);
      // fdlibm compares the high 32 bits of |u| = 2|x| (the same mantissa
      // bits as |x|) with a constant: the first |x| of the edge's high word and
      // of the next one.
      std::uint64_t b;
      std::memcpy(&b, &edge, sizeof(b));
      add_around(cmp, from_bits(b & ~0xffffffffull), 4096);
      add_around(cmp, from_bits((b | 0xffffffffull) + 1), 4096);
      // And relative steps of 2^-s on either side.
      for (int s = 1; s <= 52; ++s) {
        for (const double f : {1.0 - std::ldexp(1.0, -s), 1.0 + std::ldexp(1.0, -s)}) {
          cmp.add(edge * f);
          cmp.add(-edge * f);
        }
      }
    }
    const double inf = std::numeric_limits<double>::infinity();
    const double specials[] = {0.0,
                               -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::min(),
                               from_bits(0x000fffffffffffffull),
                               std::numeric_limits<double>::max(),
                               inf,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::signaling_NaN()};
    for (const double v : specials) {
      cmp.add(v);
      cmp.add(-v);
    }
    const std::size_t compared = cmp.finish();
    EXPECT_GE(compared, std::size_t{1} << 24);
    EXPECT_EQ(cmp.mismatches(), 0u) << "of " << compared << " inputs under " << libc_name();
  }
}

// The fast family applies that tanh in every loop shape: register tiles over
// 1 to 6 rows, the zero-padded last panel and the CSR product. Each
// equals std::tanh of the same shape's kNone output, so each batched row
// also equals its batch of one. The bias row holds entries that hit the
// ported range's ends: +-30 and 1e-20 over all-zero rows of x.
TEST(KernelDifferential, FastTanhEpilogueEqualsTanhOfTheAffineInEveryLoopShape) {
  KernelGuard guard;
  set_nn_kernel(NnKernel::kFast);
  Rng rng(2026);
  const auto tanh_of = [](Matrix m) {
    for (int e = 0; e < m.size(); ++e) m.data()[e] = std::tanh(m.data()[e]);
    return m;
  };
  std::vector<Shape> shapes = test_shapes(rng);
  shapes.push_back({1, 57, 256});   // the ADS actor's first layer, batch of one
  shapes.push_back({6, 256, 256});  // its second layer over a short batch
  for (const Shape& s : shapes) {
    const std::string shape =
        " at " + std::to_string(s.m) + "x" + std::to_string(s.k) + "x" + std::to_string(s.n);
    Matrix bias = random_matrix(1, s.n, 1.0, rng);
    const double ends[] = {30.0, -30.0, 1e-20, 0.0};
    for (int j = 0; j < s.n && j < 4; ++j) bias.at(0, j) = ends[j];
    for (const double density : {0.1, 1.0}) {
      Matrix x = random_matrix(s.m, s.k, density, rng);
      // Scaled so the pre-activations cover every branch of tanh.
      for (int e = 0; e < x.size(); ++e) x.data()[e] *= 3.0;
      const Matrix w = random_matrix(s.k, s.n, 1.0, rng);
      const Matrix* const biases[] = {nullptr, &bias};
      for (const Matrix* pbias : biases) {
        const Matrix th = affine(x, w, pbias, Epilogue::kTanh);
        expect_same_bytes(th, tanh_of(affine(x, w, pbias, Epilogue::kNone)), "tanh" + shape);
        for (int i = 0; i < s.m; ++i) {
          expect_same_bytes(affine(rows_of(x, i, 1), w, pbias, Epilogue::kTanh), rows_of(th, i, 1),
                            "tanh batch of one" + shape);
        }
      }
    }
    if (s.m == 0 || s.n == 0) continue;
    const CsrRows adj = stacked_blocks({random_symmetric_block(s.m, rng)});
    const Matrix src = random_matrix(s.m, s.n, 1.0, rng);
    Matrix linear(s.m, s.n);
    Matrix th(s.m, s.n);
    const nnk::KernelTable& fast = nnk::kernel_table(NnKernel::kFast);
    fast.affine_csr(adj, 0, s.m, src.data(), s.n, nullptr, Epilogue::kNone, linear.data());
    fast.affine_csr(adj, 0, s.m, src.data(), s.n, nullptr, Epilogue::kTanh, th.data());
    expect_same_bytes(th, tanh_of(linear), "affine_csr tanh" + shape);
  }
}

TEST(KernelDifferential, FastKernelsAreBitIdenticalAcrossThreadCounts) {
  KernelGuard guard;
  Rng rng(4242);
  set_nn_kernel(NnKernel::kFast);
  // Big enough that the parallel path actually partitions rows: every
  // product below has 2 m n k >= 2^21, the pool's threshold.
  const Matrix a = random_matrix(150, 90, 0.5, rng);
  const Matrix b = random_matrix(90, 80, 0.5, rng);
  const Matrix bias = random_matrix(1, 80, 1.0, rng);
  // The entry points split rows over the pool in both families.
  for (const NnKernel family : {NnKernel::kFast, NnKernel::kReference}) {
    set_nn_kernel(family);
    set_nn_kernel_threads(1);
    const Matrix serial = affine(a, b, &bias, Epilogue::kTanh);
    const Matrix serial_mm = matmul(a, b);
    const Matrix serial_nt = matmul_transposed(a, a);
    const Matrix serial_tn = matmul_transposed_a(a, a);
    for (const int threads : {2, 3, 5, 8}) {
      set_nn_kernel_threads(threads);
      expect_identical(affine(a, b, &bias, Epilogue::kTanh), serial,
                       "affine across thread counts");
      expect_identical(matmul(a, b), serial_mm, "matmul across thread counts");
      expect_identical(matmul_transposed(a, a), serial_nt,
                       "matmul_transposed across thread counts");
      expect_identical(matmul_transposed_a(a, a), serial_tn,
                       "matmul_transposed_a across thread counts");
    }
  }
  set_nn_kernel(NnKernel::kFast);
  // The encoder node at a size where its forward splits graphs over the pool.
  const EncoderCase c = encoder_case(46, 16, 30, {40, 40}, rng);
  set_nn_kernel_threads(1);
  const EncoderRun one = run_encoder(c);
  for (const int threads : {2, 3}) {
    set_nn_kernel_threads(threads);
    const EncoderRun many = run_encoder(c);
    expect_identical(many.out.value(), one.out.value(), "gcn_encoder across thread counts");
    for (std::size_t l = 0; l < c.w.size(); ++l) {
      expect_identical(many.layers[l].weight.grad(), one.layers[l].weight.grad(),
                       "gcn_encoder dW across thread counts");
      expect_identical(many.layers[l].bias.grad(), one.layers[l].bias.grad(),
                       "gcn_encoder db across thread counts");
    }
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
