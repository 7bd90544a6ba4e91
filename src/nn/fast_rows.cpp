// The fast family's dense rows (DESIGN.md §11): x W + b, delta W^T and the
// resumable x^T delta on register tiles over packed column panels, and the
// vector tanh. Every output element is one fma chain over every k, zero
// terms included: sparsity is read only where staging made it structural,
// in kernels.cpp's CSR walks.
//
// src/nn/CMakeLists.txt compiles this file once per ISA level
// (-march=x86-64-v3, plus -march=x86-64-v4 where the compiler takes it; once
// for the default target in a -DNPTSN_KERNEL_SIMD=OFF build), naming each
// object's table getter NPTSN_FAST_ROWS and its level NPTSN_FAST_ROWS_ISA.
// That getter is the object's only external symbol: everything else here
// has internal linkage and no C++ library template is instantiated, so the
// linker can never bind another object to code an older CPU cannot run.
#include <cstddef>

#include "nn/fast_rows.hpp"
#include "nn/lanes.hpp"

namespace nptsn {
namespace {

using nnk::Operand;

// A tile is kMr output rows by one panel: two vectors of columns, so that
// the tile's 2 kMr accumulators, the panel row's two vectors and the
// broadcast a element fill 15 of the 16 vector registers of AVX2 (AVX-512
// has 32).
constexpr int kMr = nnk::detail::kTileRows;
constexpr int kPanel = 2 * kLanes;

inline int min_int(int a, int b) { return a < b ? a : b; }

// Panel p of an operand: the `cols_k` rows of its kPanel columns, row k at
// data + k * stride.
struct PanelView {
  const double* data;
  std::size_t stride;
};

inline PanelView panel(const Operand& b, int cols_k, int cols_n, int p) {
  if (p >= b.first_panel) {
    return {b.panels + static_cast<std::size_t>(p - b.first_panel) * cols_k * kPanel, kPanel};
  }
  return {b.rows + static_cast<std::size_t>(p) * kPanel, static_cast<std::size_t>(cols_n)};
}

// The `cols` <= kPanel doubles at p as two vectors, +0.0 past them, and the
// store back of their first `cols` lanes: the last panel's columns stop at
// the row's end, while its lanes run to the panel's.
struct Pair {
  vnd lo;
  vnd hi;
};

__attribute__((always_inline)) inline Pair load_cols(const double* p, int cols) {
  if (cols == kPanel) return {loadv(p), loadv(p + kLanes)};
  double buf[kPanel] = {};
  __builtin_memcpy(buf, p, sizeof(double) * static_cast<std::size_t>(cols));
  return {loadv(buf), loadv(buf + kLanes)};
}

__attribute__((always_inline)) inline void store_cols(double* p, int cols, vnd lo, vnd hi) {
  if (cols == kPanel) {
    storev(p, lo);
    storev(p + kLanes, hi);
    return;
  }
  double buf[kPanel];
  storev(buf, lo);
  storev(buf + kLanes, hi);
  __builtin_memcpy(p, buf, sizeof(double) * static_cast<std::size_t>(cols));
}

// One register tile: rows r < MR of out (row r at out + r ldo) over the
// `cols` columns of panel b, a(r, k) being a[r a_row + k a_k], for k <
// k_count. Each row's two vectors are named accumulators that live in
// registers across the k loop. They start at +0.0 or, when Resume, at the
// partial sums stored in out (a stored double is the exact accumulator);
// then acc + bias and the activation are stored. Branch-free over k: zero
// a terms are computed like any other.
template <int MR, bool Resume, Epilogue Act, bool Bias>
void tile(const double* a, std::size_t a_row, std::size_t a_k, int k_count, PanelView b,
          const double* bias, double* out, std::size_t ldo, int cols) {
  static_assert(MR >= 1 && MR <= kMr, "a tile has 1 to kMr rows");
  [[maybe_unused]] vnd c0a, c0b, c1a, c1b, c2a, c2b, c3a, c3b, c4a, c4b, c5a, c5b;
  if constexpr (Resume) {
    Pair v = load_cols(out, cols);
    c0a = v.lo;
    c0b = v.hi;
    if constexpr (MR > 1) {
      v = load_cols(out + ldo, cols);
      c1a = v.lo;
      c1b = v.hi;
    }
    if constexpr (MR > 2) {
      v = load_cols(out + 2 * ldo, cols);
      c2a = v.lo;
      c2b = v.hi;
    }
    if constexpr (MR > 3) {
      v = load_cols(out + 3 * ldo, cols);
      c3a = v.lo;
      c3b = v.hi;
    }
    if constexpr (MR > 4) {
      v = load_cols(out + 4 * ldo, cols);
      c4a = v.lo;
      c4b = v.hi;
    }
    if constexpr (MR > 5) {
      v = load_cols(out + 5 * ldo, cols);
      c5a = v.lo;
      c5b = v.hi;
    }
  } else {
    c0a = c0b = c1a = c1b = c2a = c2b = c3a = c3b = c4a = c4b = c5a = c5b = broadcastv(0.0);
  }
  const double* pb = b.data;
  const double* pa = a;
  for (int k = 0; k < k_count; ++k, pb += b.stride, pa += a_k) {
    const vnd b0 = loadv(pb);
    const vnd b1 = loadv(pb + kLanes);
    vnd x = broadcastv(pa[0]);
    c0a = fmaddv(x, b0, c0a);
    c0b = fmaddv(x, b1, c0b);
    if constexpr (MR > 1) {
      x = broadcastv(pa[a_row]);
      c1a = fmaddv(x, b0, c1a);
      c1b = fmaddv(x, b1, c1b);
    }
    if constexpr (MR > 2) {
      x = broadcastv(pa[2 * a_row]);
      c2a = fmaddv(x, b0, c2a);
      c2b = fmaddv(x, b1, c2b);
    }
    if constexpr (MR > 3) {
      x = broadcastv(pa[3 * a_row]);
      c3a = fmaddv(x, b0, c3a);
      c3b = fmaddv(x, b1, c3b);
    }
    if constexpr (MR > 4) {
      x = broadcastv(pa[4 * a_row]);
      c4a = fmaddv(x, b0, c4a);
      c4b = fmaddv(x, b1, c4b);
    }
    if constexpr (MR > 5) {
      x = broadcastv(pa[5 * a_row]);
      c5a = fmaddv(x, b0, c5a);
      c5b = fmaddv(x, b1, c5b);
    }
  }
  // acc + bias row by row through a buffer, then one activation loop, so
  // that the tanh epilogue is inlined twice rather than 2 MR times.
  double sums[MR * kPanel];
  Pair bias_v = {broadcastv(0.0), broadcastv(0.0)};
  if constexpr (Bias) bias_v = load_cols(bias, cols);
  const auto put = [&](int r, vnd lo, vnd hi) {
    storev(sums + r * kPanel, Bias ? lo + bias_v.lo : lo);
    storev(sums + r * kPanel + kLanes, Bias ? hi + bias_v.hi : hi);
  };
  put(0, c0a, c0b);
  if constexpr (MR > 1) put(1, c1a, c1b);
  if constexpr (MR > 2) put(2, c2a, c2b);
  if constexpr (MR > 3) put(3, c3a, c3b);
  if constexpr (MR > 4) put(4, c4a, c4b);
  if constexpr (MR > 5) put(5, c5a, c5b);
  for (int r = 0; r < MR; ++r) {
    store_cols(out + r * ldo, cols, epiloguev<Act>(loadv(sums + r * kPanel)),
               epiloguev<Act>(loadv(sums + r * kPanel + kLanes)));
  }
}

// Calls tile<MR, ...> for the run-time row count mr in [1, kMr].
template <bool Resume, Epilogue Act, bool Bias, typename... Args>
void tile_rows(int mr, Args... args) {
  switch (mr) {
    case 6: return tile<6, Resume, Act, Bias>(args...);
    case 5: return tile<5, Resume, Act, Bias>(args...);
    case 4: return tile<4, Resume, Act, Bias>(args...);
    case 3: return tile<3, Resume, Act, Bias>(args...);
    case 2: return tile<2, Resume, Act, Bias>(args...);
    case 1: return tile<1, Resume, Act, Bias>(args...);
    default: return;
  }
}
static_assert(kMr == 6, "tile_rows covers 1 to 6 rows");

// Rows [i_begin, i_end) of out = Act(a * b + bias), with a bias row iff Bias:
// kMr rows at a time, each block across every panel of b, so that the
// block's rows stay in L1 while the panels stream past.
template <Epilogue Act, bool Bias>
void dense_rows(const double* pa, int cols_k, const Operand& b, int cols_n, const double* pbias,
                double* po, int i_begin, int i_end) {
  const int panels = (cols_n + kPanel - 1) / kPanel;
  for (int i0 = i_begin; i0 < i_end; i0 += kMr) {
    const int mi = min_int(kMr, i_end - i0);
    const double* block = pa + static_cast<std::size_t>(i0) * cols_k;
    for (int p = 0; p < panels; ++p) {
      const int j0 = p * kPanel;
      tile_rows<false, Act, Bias>(mi, block, static_cast<std::size_t>(cols_k), std::size_t{1},
                                  cols_k, panel(b, cols_k, cols_n, p),
                                  Bias ? pbias + j0 : nullptr,
                                  po + static_cast<std::size_t>(i0) * cols_n + j0,
                                  static_cast<std::size_t>(cols_n), min_int(kPanel, cols_n - j0));
    }
  }
}

// Rows [i_begin, i_end) of out = act(a * b + bias): the table's affine rows.
void affine_rows(const double* pa, int cols_k, Operand b, int cols_n, const double* pbias,
                 Epilogue act, double* po, int i_begin, int i_end) {
  with_epilogue(act, [&](auto act_constant) {
    constexpr Epilogue kAct = decltype(act_constant)::value;
    if (pbias) {
      dense_rows<kAct, true>(pa, cols_k, b, cols_n, pbias, po, i_begin, i_end);
    } else {
      dense_rows<kAct, false>(pa, cols_k, b, cols_n, nullptr, po, i_begin, i_end);
    }
  });
}

// delta W^T on the tiles over W^T's panels.
void matmul_rows(const double* pa, int cols_k, Operand w, int cols_n, double* po, int i_begin,
                 int i_end) {
  dense_rows<Epilogue::kNone, false>(pa, cols_k, w, cols_n, nullptr, po, i_begin, i_end);
}

// Rows [i_begin, i_end) of out += a^T * b (a row-major K x M; out M x N),
// walked one k chunk (nnk::kTnChunk rows of a and b) at a time by the tiles,
// which read the chunk's rows of each panel of b, each element continuing
// the chain already in `out`.
void matmul_tn_resume(const double* pa, int rows_k, int cols_m, Operand b, int cols_n,
                      double* po, int i_begin, int i_end) {
  const int panels = (cols_n + kPanel - 1) / kPanel;
  for (int k0 = 0; k0 < rows_k; k0 += nnk::kTnChunk) {
    const int k1 = min_int(rows_k, k0 + nnk::kTnChunk);
    // Each panel's chunk rows stay in L1 while the row blocks walk them.
    const double* chunk = pa + static_cast<std::size_t>(k0) * cols_m;
    for (int p = 0; p < panels; ++p) {
      const int j0 = p * kPanel;
      PanelView v = panel(b, rows_k, cols_n, p);
      v.data += static_cast<std::size_t>(k0) * v.stride;
      for (int i0 = i_begin; i0 < i_end; i0 += kMr) {
        tile_rows<true, Epilogue::kNone, false>(
            min_int(kMr, i_end - i0), chunk + i0, std::size_t{1},
            static_cast<std::size_t>(cols_m), k1 - k0, v, nullptr,
            po + static_cast<std::size_t>(i0) * cols_n + j0, static_cast<std::size_t>(cols_n),
            min_int(kPanel, cols_n - j0));
      }
    }
  }
}

void tanh_rows(const double* x, std::size_t count, double* out) {
  std::size_t e = 0;
  for (; e + kLanes <= count; e += kLanes) storev(out + e, tanhv(loadv(x + e)));
  for (; e < count; ++e) out[e] = tanh1(x[e]);
}

}  // namespace

namespace nnk::detail {

const FastRows& NPTSN_FAST_ROWS() {
  static constexpr FastRows rows = {NPTSN_FAST_ROWS_ISA, kPanel,           affine_rows,
                                    matmul_rows,         matmul_tn_resume, tanh_rows};
  return rows;
}

}  // namespace nnk::detail
}  // namespace nptsn
