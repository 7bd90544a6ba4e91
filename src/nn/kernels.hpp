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
// tests/nn/kernels_test.cpp); fast-vs-reference may differ by FMA
// contraction only, bounded at 1e-12 relative in the differential suite.
#pragma once

#include "nn/matrix.hpp"

namespace nptsn::nnk {

// All kernels overwrite `out` (resizing it to the result shape); `out` must
// not alias an input. Shape checks live in the matrix.hpp dispatchers.

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

// --- block-diagonal batched GEMM (the GCN propagation step) -----------------
// h stacks one n x C block per graph; out row block g is act(blocks[g] * h_g).
// The GCN backward reuses it for blocks[g]^T * delta_g, which is the same
// product for the symmetric A-hat blocks (DESIGN.md §11). Operating on the
// stacked matrix in place is what these buy: the per-graph copy-out/copy-back
// and the per-call allocations of the naive formulation are pure overhead at
// GCN sizes. The adjacencies arrive as a staged BlockAdjacency: the fast
// kernels walk its CSR index (built once, reused across layers, heads, PPO
// iterations and the backward pass), the reference kernels read the retained
// dense blocks. Dispatcher: block_diag_matmul.
void block_affine_reference(const BlockAdjacency& adj, const Matrix& h,
                            Epilogue act, Matrix& out);
void block_affine_fast(const BlockAdjacency& adj, const Matrix& h,
                       Epilogue act, Matrix& out);
// Whole fused GCN layer, relu(blocks[g] * (h_g * w + bias)) per row block.
// The affine product for graph g lands in an n x out scratch tile that stays
// cache-resident until the propagation consumes it, so the full-size
// intermediate (B n) x out matrix of the two-op formulation never exists.
void block_gcn_reference(const BlockAdjacency& adj, const Matrix& h,
                         const Matrix& w, const Matrix& bias, Matrix& out);
void block_gcn_fast(const BlockAdjacency& adj, const Matrix& h,
                    const Matrix& w, const Matrix& bias, Matrix& out);

}  // namespace nptsn::nnk
