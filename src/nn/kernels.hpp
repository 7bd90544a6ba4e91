// Throughput kernels for the NN hot path (DESIGN.md §11).
//
// Each kernel family is one table of raw-pointer row routines
// (nnk::KernelTable):
//
//   kReference  the original naive loops — the ground truth every fast
//               routine is differential-tested against, and the family the
//               bit-identity/checkpoint suites pin their goldens to.
//   kFast       6-row x two-vector register tiles over packed column panels
//               of the right-hand operand, with fused bias + activation
//               epilogues, and CSR walks over staged CsrRows. Its dense rows
//               are compiled once per ISA level (fast_rows.cpp: x86-64-v3,
//               and x86-64-v4 where the compiler takes it); kernel_table
//               picks the best one the CPU runs, once.
//
// Everything above the rows is written once over the table of the active
// family: the GEMM entry points of matrix.hpp (matmul, affine,
// matmul_transposed, matmul_transposed_a), which pack their right-hand
// operand for the table (PackedOperand) and split their output rows over
// the kernel pool for large shapes, and the batched GCN encoder node
// (gcn_encoder), which composes each layer as affine rows into a tile, then
// the CSR product of A-hat with it, ReLU fused.
//
// Determinism contract: every routine accumulates each output element with a
// SINGLE accumulator over ascending k. Tiling only reorders which elements
// are computed when, never the reduction order within an element, and the
// pool split partitions output rows into fixed-size chunks that are
// independent of the thread count. Both families are therefore bit-identical
// run-to-run and across thread counts, and every fast table returns the same
// bits at every vector width (tested in tests/nn/kernel_differential_test.cpp);
// fast-vs-reference may differ by FMA contraction only, bounded at 1e-12
// relative in the differential suite. No routine picks its loop by the
// data's density: the fast family's dense rows run one fma chain over every
// k, zero terms included, and sparsity is read only where staging made it
// structural, by the CSR walks (affine_csr, matmul_tn_resume_csr);
// the reference family's i-k-j and k-outer loops skip zero a terms and its
// dot loop keeps them.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/matrix.hpp"

namespace nptsn::nnk {

// The fast matmul_tn_resume (the weight gradient x^T * delta) accumulates
// over k in chunks of this many rows of both operands. One chunk (kTnChunk x
// (M + N) doubles: 184 KiB at the ORION GCN shapes, 512 KiB at the 256-wide
// MLP ones) stays in L2 while every output tile walks it, where an unchunked
// walk re-streams both K-row operands (8.7 MiB each at the stacked ORION
// shapes) once per tile; 128 was the fastest of 64/128/256/512 on the ORION
// shape on a Xeon with 2 MiB of L2 per core. Pure performance knob: each
// chunk after the first resumes the tile's accumulators from `out`, and a
// stored double is the exact accumulator, so every element is still one
// chain over ascending k. The encoder's backward sizes its runs of graphs by
// it too.
inline constexpr int kTnChunk = 128;

// The right-hand operand b (cols_k x cols_n) of a dense row routine, as the
// routine's table reads it:
//   rows     b row-major, row k at rows + k * cols_n (for matmul_rows: W,
//            which is b^T, row j at rows + j * cols_k). The reference family
//            reads only this.
//   panels   for a fast table (panel_cols > 0), b as k-major column panels:
//            panel p holds columns [p w, (p + 1) w), w = panel_cols, zero
//            past cols_n, with row k at panels + ((p - first_panel) cols_k
//            + k) w. The fast tiles read panels from first_panel on from
//            here, and the ones before it in place from `rows`.
// PackedOperand makes it for a table; a fast table reads nothing else.
struct Operand {
  const double* rows = nullptr;
  const double* panels = nullptr;
  int first_panel = 0;
};

// One family's row routines. Every matrix operand but the CSR rows is dense
// row-major at the width given; the routines overwrite (or, for the *_resume
// ones, continue) `out`, which must not alias an input. Graph g of a stacked
// batch of n-node graphs owns rows [g n, (g + 1) n) of every stacked matrix,
// the CSR adjacency and features included.
struct KernelTable {
  // "reference", or the ISA level the fast table was compiled for.
  const char* name;
  // Columns per panel of the dense routines' operands; 0 = no panels.
  int panel_cols;
  // Rows [i_begin, i_end) of out = act(a b + bias): a has cols_k columns, b
  // is cols_k x cols_n, bias a row of cols_n or nullptr. Per element: one
  // chain over ascending k from +0.0, then + bias, then act. The fast tiles
  // keep the zero a(i, k) terms and the reference loop skips them, which for
  // finite b is the same chain.
  void (*affine_rows)(const double* a, int cols_k, Operand b, int cols_n, const double* bias,
                      Epilogue act, double* out, int i_begin, int i_end);
  // Rows [i_begin, i_end) of out = a W^T, W being cols_n x cols_k: the
  // gradient delta W^T. Per element one chain over ascending k from +0.0,
  // zero terms included (the reference family's dot loop makes 0 * Inf NaN
  // there; the fast family's tiles read W^T's panels).
  void (*matmul_rows)(const double* a, int cols_k, Operand w, int cols_n, double* out,
                      int i_begin, int i_end);
  // Rows [i_begin, i_end) of out (cols_m x cols_n) += a^T b over rows_k rows
  // of a (rows_k x cols_m) and b (rows_k x cols_n): the weight gradient
  // x^T delta. Every element continues the chain stored in out over
  // ascending rows (the fast tiles keep the zero a(k, i) terms, the reference
  // loop skips them), so resuming run by run from a +0.0 out gives the bits
  // of one call over all rows.
  void (*matmul_tn_resume)(const double* a, int rows_k, int cols_m, Operand b, int cols_n,
                           double* out, int i_begin, int i_end);
  // out = act(x b + bias) over rows [row0, row0 + rows) of the CSR rows x:
  // b is x.cols() x cols_n, bias a row of cols_n or nullptr. Per element the
  // chain affine_rows computes on the dense rows, minus its zero terms, then
  // + bias, then act. The encoder makes three calls: the first layer's
  // x W + b over the features (bias, kNone), and over graph g's rows of the
  // stacked A-hat the forward's relu(A_g z) (kRelu) and the backward's
  // A_g^T delta = A_g delta (kNone; the Eq. 4 blocks are symmetric).
  void (*affine_csr)(const CsrRows& x, int row0, int rows, const double* b, int cols_n,
                     const double* bias, Epilogue act, double* out);
  // out (x.cols() x cols_n) += a^T b with a = rows [row0, row0 + rows) of x:
  // the first layer's weight gradient, matmul_tn_resume's chain per element
  // minus its zero terms.
  void (*matmul_tn_resume_csr)(const CsrRows& x, int row0, int rows, const double* b,
                               int cols_n, double* out);
  // out[e] = tanh(x[e]) for e < count, as the family's kTanh epilogue
  // computes it: std::tanh in the reference family. The fast tables built
  // with FMA run a vector port of glibc's tanh (fdlibm's over the FMA build
  // of its expm1) that returns std::tanh's bits on glibc and stays one
  // function of the value on any libm; without FMA they call std::tanh.
  void (*tanh)(const double* x, std::size_t count, double* out);
};
// For finite operands the CSR routines equal their dense forms bit for bit:
// a skipped zero term is a no-op, since fma(0, b, acc) == 0 * b + acc == acc
// and an accumulator starting at +0.0 never becomes -0.0. A non-finite b
// entry met by a zero term makes the fast dense chain NaN and leaves the
// CSR chain as it was.

// The family's table. kFast is the best fast table the host can run, picked
// once, at first use: the x86-64-v4 (AVX-512) build of the fast rows where
// the CPU has it, else the x86-64-v3 (AVX2) one (the portable one in a
// -DNPTSN_KERNEL_SIMD=OFF build). Every fast table returns the same bits.
const KernelTable& kernel_table(NnKernel family);
// Every fast table of this build that the host can run, the one kFast
// dispatches to first. For tests and benchmarks: the GEMM entry points and
// the encoder node always use kernel_table(nn_kernel()).
const std::vector<KernelTable>& fast_kernel_tables();

// A right-hand operand packed for one table, before a call splits its rows
// over the kernel pool, so that every pool task reads one copy. For a fast
// table the panels are copied once per call; the buffer is kept for the
// next pack.
class PackedOperand {
 public:
  PackedOperand() = default;
  // The operand points into the buffer, which a move keeps and a copy would
  // not.
  PackedOperand(const PackedOperand&) = delete;
  PackedOperand& operator=(const PackedOperand&) = delete;
  PackedOperand(PackedOperand&&) = default;
  PackedOperand& operator=(PackedOperand&&) = default;

  // b (cols_k x cols_n, row-major) for `table`'s affine_rows or
  // matmul_tn_resume over `rows` output rows: every panel when the call has
  // a whole register tile of rows, else only the last, zero-padded one (a
  // short call, such as a rollout's batch of one, reads the others in place).
  void pack(const KernelTable& table, const double* b, int cols_k, int cols_n, int rows);
  // W^T for `table`'s matmul_rows, W being cols_n x cols_k row-major: a fast
  // table's panels are packed straight from W.
  void pack_transposed(const KernelTable& table, const double* w, int cols_n, int cols_k);
  const Operand& operand() const { return operand_; }

 private:
  double* reserve(std::size_t count);

  Matrix buffer_;
  Operand operand_;
};

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
