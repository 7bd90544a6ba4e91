// Throughput kernels for the NN hot path (DESIGN.md §11).
//
// Two interchangeable kernel families sit behind the free functions of
// matrix.hpp:
//
//   kReference  the original naive loops — the ground truth every fast
//               kernel is differential-tested against, and the kernel the
//               bit-identity/checkpoint suites pin their goldens to.
//   kFast       register-blocked, cache-tiled GEMM with fused bias +
//               activation epilogues and an optional ThreadPool-parallel
//               path for large shapes.
//
// Determinism contract: every fast kernel accumulates each output element
// with a SINGLE accumulator over ascending k. Tiling only reorders which
// elements are computed when, never the reduction order within an element,
// and the parallel path partitions output rows into fixed-size chunks that
// are independent of the thread count. Fast results are therefore
// bit-identical run-to-run and across thread counts (tested in
// tests/nn/kernel_differential_test.cpp); fast-vs-reference may differ by FMA
// contraction only, bounded at 1e-12 relative in the differential suite.
#pragma once

#include <cstdint>
#include <functional>

#include "nn/matrix.hpp"

namespace nptsn::nnk {

// The Matrix kernels overwrite `out` (resizing it to the result shape); `out`
// must not alias an input. Shape checks live in the matrix.hpp dispatchers.

// --- reference family (naive loops, the retained ground truth) --------------
void matmul_reference(const Matrix& a, const Matrix& b, Matrix& out);
// out = a * b^T
void matmul_nt_reference(const Matrix& a, const Matrix& b, Matrix& out);
// out = a^T * b
void matmul_tn_reference(const Matrix& a, const Matrix& b, Matrix& out);
// out = act(a * b + bias); bias is a 1 x N row broadcast or nullptr.
void affine_reference(const Matrix& a, const Matrix& b, const Matrix* bias,
                      Epilogue act, Matrix& out);

// --- fast family (register-blocked, cache-tiled, optional parallel) ----------
// matmul_tn_fast (the weight gradient x^T * delta) accumulates over k in
// chunks of this many rows of both operands. One chunk (kTnChunk x (M + N)
// doubles: 184 KiB at the ORION GCN shapes, 512 KiB at the 256-wide MLP
// ones) stays in L2 while every output tile walks it, where an unchunked
// walk re-streams both K-row operands (8.7 MiB each at the stacked ORION
// shapes) once per tile; 128 was the fastest of 64/128/256/512 on the ORION
// shape on a Xeon with 2 MiB of L2 per core. Pure performance knob: each
// chunk after the first resumes the tile's accumulators from `out`, and a
// stored double is the exact accumulator, so every element is still one
// chain over ascending k.
inline constexpr int kTnChunk = 128;

void matmul_fast(const Matrix& a, const Matrix& b, Matrix& out);
void matmul_nt_fast(const Matrix& a, const Matrix& b, Matrix& out);
void matmul_tn_fast(const Matrix& a, const Matrix& b, Matrix& out);
void affine_fast(const Matrix& a, const Matrix& b, const Matrix* bias,
                 Epilogue act, Matrix& out);

// --- per-graph GCN primitives (the batched encoder node, gcn_encoder) -------
// Graph g of a stacked batch owns rows [g n, (g + 1) n) of every stacked
// matrix, n = adj.block_size(). The pointers address the first row of a row
// block, and every block is dense row-major at the width given. Each
// primitive computes every output element as the same chain its family's
// whole-batch kernel did (DESIGN.md §11), so streaming a batch through them
// graph by graph changes no bit.
//
// y = relu(A_g (x W + bias)) for graph g: x is n x w.rows(); y and the
// scratch tile z are n x w.cols(). The affine product lives only in z. The
// fast family walks the staged CSR, the reference family the dense block.
void gcn_layer_reference(const BlockAdjacency& adj, int g, const double* x,
                         const Matrix& w, const Matrix& bias, double* z, double* y);
void gcn_layer_fast(const BlockAdjacency& adj, int g, const double* x, const Matrix& w,
                    const Matrix& bias, double* z, double* y);
// out = A_g src, both n x cols. For the symmetric Eq. 4 blocks this is also
// the backward's A_g^T delta.
void propagate_reference(const BlockAdjacency& adj, int g, const double* src, int cols,
                         double* out);
void propagate_fast(const BlockAdjacency& adj, int g, const double* src, int cols,
                    double* out);
// out = a b for `rows` rows of a (rows x cols_k) and b (cols_k x cols_n):
// the backward's delta W^T, with b = W^T packed once per pass. Every element
// is one chain over ascending k from +0.0, the chain of matmul_transposed in
// its family; the reference family keeps matmul_nt_reference's loop, zero
// terms included.
void matmul_rows_reference(const double* a, int rows, int cols_k, const double* b,
                           int cols_n, double* out);
void matmul_rows_fast(const double* a, int rows, int cols_k, const double* b, int cols_n,
                      double* out);
// Continues every element's chain of out (cols_m x cols_n) += a^T b over
// `rows` more rows of a (rows x cols_m) and b (rows x cols_n), in ascending
// row order: the weight gradient x^T delta, resumed run by run. Resuming
// from a +0.0 out over all rows gives matmul_transposed_a's bits.
void matmul_tn_resume_reference(const double* a, int rows, int cols_m, const double* b,
                                int cols_n, double* out);
void matmul_tn_resume_fast(const double* a, int rows, int cols_m, const double* b,
                           int cols_n, double* out);
// The first layer's two products over the staged CSR features x instead of
// dense rows. gcn_layer_csr is gcn_layer with x = rows [g n, (g + 1) n) of
// x: every element of z is the chain the zero-skipping dense scan computes,
// ascending k from +0.0 with the bias added last (fmadd in the fast family,
// affine_rows_sparse's chain; mul-then-add in the reference family,
// gcn_layer_reference's). matmul_tn_resume_csr continues out (x.cols() x
// cols_n) += a^T b with a = rows [row0, row0 + rows) of x: per element
// matmul_tn_resume's chain minus its zero terms. For finite w and b both
// equal the dense products bit for bit, since fma(0, b, acc) == acc.
void gcn_layer_csr_reference(const BlockAdjacency& adj, int g, const CsrRows& x,
                             const Matrix& w, const Matrix& bias, double* z, double* y);
void gcn_layer_csr_fast(const BlockAdjacency& adj, int g, const CsrRows& x, const Matrix& w,
                        const Matrix& bias, double* z, double* y);
void matmul_tn_resume_csr_reference(const CsrRows& x, int row0, int rows, const double* b,
                                    int cols_n, double* out);
void matmul_tn_resume_csr_fast(const CsrRows& x, int row0, int rows, const double* b,
                               int cols_n, double* out);

// One family's primitives, picked once per encoder pass.
struct GcnKernels {
  decltype(&gcn_layer_fast) layer;
  decltype(&gcn_layer_csr_fast) layer_csr;
  decltype(&propagate_fast) propagate;
  decltype(&matmul_rows_fast) matmul_rows;
  decltype(&matmul_tn_resume_fast) matmul_tn_resume;
  decltype(&matmul_tn_resume_csr_fast) matmul_tn_resume_csr;
};
const GcnKernels& gcn_kernels(NnKernel family);

// --- the encoder node's elementwise passes (both families) ------------------
// They use no fmadd, and the TU's -ffp-contract=off keeps readout_gate's
// 0.0 + g * inv a separate multiply and add, as the scalar loop computed it,
// so one implementation serves both families. They run as lane masks
// on the kernel vectors: as scalar loops GCC 12 vectorizes neither the gated
// select nor the byte-gated readout, and every gate then costs a branch
// mispredict per unpredictable element. The gates keep 0.0 + d (which maps
// -0.0 to +0.0, as adopting d as an empty gradient does), and a lane is live
// when !(h <= 0.0), so a NaN output passes its gradient as the scalar
// `h <= 0.0 ? 0.0 : ...` does.

// dead[e] = h[e] <= 0.0 for e < count: the last layer's ReLU gate as bytes.
void relu_dead_bytes(const double* h, std::size_t count, std::uint8_t* dead);
// out[j] = (h(0, j) + ... + h(rows - 1, j), ascending from +0.0) * inv for
// the `rows` x `cols` block h: the mean readout of one graph.
void mean_readout(const double* h, int rows, int cols, double inv, double* out);
// The same over rows [row0, row0 + rows) of x, adding only the stored
// entries: gcn_layers = 0 pools the features. Exact, because the sum starts
// at +0.0 and can never reach -0.0, so a skipped zero changes nothing.
void mean_readout_csr(const CsrRows& x, int row0, int rows, double inv, double* out);
// delta(r, j) = dead(r, j) ? 0.0 : 0.0 + grad[j] * inv for r < rows: one
// graph's readout broadcast through the last layer's gate.
void readout_gate(const double* grad, double inv, const std::uint8_t* dead, int rows,
                  int cols, double* delta);
// sums[j] += m(r, j) over ascending r: a bias gradient's column sums.
void add_col_sums(const double* m, int rows, int cols, double* sums);
// delta[e] = h[e] <= 0.0 ? 0.0 : 0.0 + back[e] for e < count: the ReLU gate
// of the layer below, at its stored output h.
void relu_gate(const double* h, const double* back, std::size_t count, double* delta);

// Calls graphs(begin, end) over consecutive ranges covering [0, count): on
// the kernel pool when nn threads > 1 and `flops` is large enough to pay for
// it, otherwise once over the whole range. Each call must write only state
// that belongs to its own graphs; the result is then the same at every
// thread count.
void for_each_graph_range(int count, std::int64_t flops,
                          const std::function<void(int, int)>& graphs);

}  // namespace nptsn::nnk
