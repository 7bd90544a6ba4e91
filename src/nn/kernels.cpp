#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>

#include "util/thread_pool.hpp"

namespace nptsn {
namespace {

// Micro-tile geometry. kMr rows of the output are accumulated at once so
// every loaded B row is reused kMr times; kNr output columns stay in a local
// accumulator block the compiler keeps in vector registers. Both are small
// enough that the 4 x 32 block (1 KiB) lives on the stack.
constexpr int kMr = 4;
constexpr int kNr = 32;
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

// Vector lane type for the register micro-kernels, sized to the widest ISA
// this translation unit is compiled for (AVX-512 or AVX2 under
// NPTSN_KERNEL_SIMD, SSE2 otherwise). Every lane is an ordinary IEEE
// mul-then-add (the TU is built with -ffp-contract=off) and lanes are
// independent output COLUMNS — the per-element reduction stays one chain
// over ascending k — so results are bit-identical at every vector width.
// Without AVX the lane type must fit an SSE register: a 32-byte vector
// passed or returned by value there has no native register and changes the
// ABI (GCC's -Wpsabi).
// vnm is the matching lane mask: a comparison of two vnd yields all ones in
// the lanes where it holds and zero elsewhere.
#if defined(__AVX512F__)
typedef double vnd __attribute__((vector_size(64)));
typedef std::int64_t vnm __attribute__((vector_size(64)));
constexpr int kLanes = 8;
#elif defined(__AVX__)
typedef double vnd __attribute__((vector_size(32)));
typedef std::int64_t vnm __attribute__((vector_size(32)));
constexpr int kLanes = 4;
#else
typedef double vnd __attribute__((vector_size(16)));
typedef std::int64_t vnm __attribute__((vector_size(16)));
constexpr int kLanes = 2;
#endif

inline vnd loadv(const double* p) {
  vnd v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void storev(double* p, vnd v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline vnd broadcastv(double s) {
  vnd v;
  for (int l = 0; l < kLanes; ++l) v[l] = s;
  return v;
}

// v in the lanes of `keep`, +0.0 (all bits clear) in the others.
inline vnd selectv(vnm keep, vnd v) {
  return reinterpret_cast<vnd>(reinterpret_cast<vnm>(v) & keep);
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

// EVERY multiply-accumulate of the fast family goes through these two
// helpers, and nowhere else (the TU is built with -ffp-contract=off, so the
// compiler cannot contract — or fail to contract — anything on its own).
// That uniformity is the determinism story: whichever loop shape touches an
// output element (register micro-tile, edge tile, sparse row, any vector
// width, any thread count), its reduction is the identical chain of
// fma(a_k, b_k, acc) over ascending k, so every strategy produces the same
// bits. Where the hardware has FMA this roughly doubles dense GEMM
// throughput over separate mul+add; fast-vs-reference then differs by the
// contraction rounding only, inside the documented 1e-12 envelope (the
// reference family keeps the original mul-then-add bits as ground truth).
// Zero-skip stays legal too: fma(+/-0, b, acc) returns acc exactly for
// finite b, and an accumulator that starts at +0.0 can never become -0.0.
inline double fmadd(double a, double b, double acc) {
#if defined(__FMA__)
  return __builtin_fma(a, b, acc);
#else
  return a * b + acc;
#endif
}

inline vnd fmaddv(vnd a, vnd b, vnd acc) {
#if defined(__FMA__)
  vnd r;
  for (int l = 0; l < kLanes; ++l) r[l] = __builtin_fma(a[l], b[l], acc[l]);
  return r;
#else
  return a * b + acc;
#endif
}

#if defined(__FMA__)
// The fast family's tanh, lane by lane. glibc's tanh (2.36, x86-64) is
// fdlibm's s_tanh.c over s_expm1.c, and on a CPU with FMA libm runs the
// expm1 its build compiled with -mfma, where GCC contracted eleven
// multiply-adds. tanhv repeats exactly those operations: fdlibm's constants
// and branch cuts (tested on the high word, as fdlibm does), fmaddv where
// libm's build contracts, plain mul and add everywhere else. So on glibc it
// returns std::tanh's bits at about a third of the cost (the differential
// suite checks every branch edge); on any libm it is one function of the
// value, whichever loop shape calls it.
// tanh(x) needs expm1(u) at u = -2|x| for |x| < 1 and u = 2|x| below 22. Of
// expm1's argument reductions only k = 0, -1 and <= -2 (u < 0) and k from 3
// to 63 (u >= 2) occur; each lane computes the exits its k can reach and
// selects its own.
typedef std::uint64_t vnu __attribute__((vector_size(sizeof(vnd))));
typedef std::int32_t vni __attribute__((vector_size(sizeof(vnd) / 2)));

constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kInvLn2 = 0x1.71547652b82fep+0;
constexpr double kQ1 = -0x1.11111111110f4p-5;
constexpr double kQ2 = 0x1.a01a019fe5585p-10;
constexpr double kQ3 = -0x1.4ce199eaadbb7p-14;
constexpr double kQ4 = 0x1.0cfca86e65239p-18;
constexpr double kQ5 = -0x1.afdb76e09c32dp-23;
constexpr std::int64_t kAbsMask = 0x7fffffffffffffff;
constexpr std::int64_t kOneBits = 0x3ff0000000000000;

// Inlined into each epilogue: called out of line, it reloads its constants
// on every call and successive vectors' chains overlap less (10.4 against
// 8.7 ns per element in a loop).
__attribute__((always_inline)) inline vnd tanhv(vnd x) {
  const vnm abits = reinterpret_cast<vnm>(x) & kAbsMask;
  const vnu sign = reinterpret_cast<vnu>(x) & ~static_cast<std::uint64_t>(kAbsMask);
  // 2^-55 <= |x| < 22. The other lanes (zeros, subnormals, the tails where
  // tanh rounds to +-1 or x, inf, NaN) compute on 0.5 and take std::tanh.
  const vnm ported = (abits >= 0x3c80000000000000) & (abits < 0x4036000000000000);
  const vnd ax = ported ? reinterpret_cast<vnd>(abits) : broadcastv(0.5);
  const vnm big = abits >= kOneBits;  // |x| >= 1
  const vnd two_ax = ax + ax;
  const vnd u = big ? two_ax : -two_ax;

  // s_expm1.c: u = k ln2 + r - c, |r| <= ln2 / 2. Its k = +-1 branch's
  // hi = u -+ ln2_hi, lo = +-ln2_lo and k = 0's hi = u, lo = 0 are the
  // general lines' values at those k.
  const vnm au = reinterpret_cast<vnm>(two_ax);
  const vnm reduce = au >= 0x3fd62e4300000000;  // |u| > ln2 / 2
  const vnm one_step = au < 0x3ff0a2b200000000;  // |u| < 1.5 ln2: u < 0 here, so k = -1
  const vnd half = big ? broadcastv(0.5) : broadcastv(-0.5);
  const vni rounded = __builtin_convertvector(kInvLn2 * u + half, vni);  // (int), unfused
  const vnd k = reduce ? (one_step ? broadcastv(-1.0) : __builtin_convertvector(rounded, vnd))
                       : broadcastv(0.0);
  const vnd hi = fmaddv(-k, broadcastv(kLn2Hi), u);
  const vnd lo = k * kLn2Lo;
  const vnd r = hi - lo;
  const vnd c = (hi - r) - lo;

  // The rational approximation on the primary range.
  const vnd hfx = 0.5 * r;
  const vnd hxs = r * hfx;
  const vnd r1a = fmaddv(hxs, broadcastv(kQ1), broadcastv(1.0));
  const vnd h2 = hxs * hxs;
  const vnd r2 = fmaddv(hxs, broadcastv(kQ3), broadcastv(kQ2));
  const vnd h4 = h2 * h2;
  const vnd r3 = fmaddv(hxs, broadcastv(kQ5), broadcastv(kQ4));
  const vnd r1 = fmaddv(h4, r3, fmaddv(h2, r2, r1a));
  const vnd t = fmaddv(-r1, hfx, broadcastv(3.0));
  const vnd e = hxs * ((r1 - t) / fmaddv(-r, t, broadcastv(6.0)));

  // expm1's exits. k << 52 added to the bits scales by 2^k.
  const vnd ec = fmaddv(r, e - c, -c) - hxs;
  const vnu kbits = reinterpret_cast<vnu>(__builtin_convertvector(
                        __builtin_convertvector(k, vni), vnm))
                    << 52;
  const auto scaled = [&kbits](vnd y) {
    return reinterpret_cast<vnd>(reinterpret_cast<vnu>(y) + kbits);
  };
  const vnd k_zero = r - fmaddv(r, e, -hxs);
  const vnd k_minus_one = fmaddv(r - ec, broadcastv(0.5), broadcastv(-0.5));
  const vnd k_far = scaled(1.0 - (ec - r)) - 1.0;  // k <= -2 or k > 56
  vnd em1 = k == 0.0 ? k_zero : k == -1.0 ? k_minus_one : k_far;

  // s_tanh.c: -t / (t + 2) with t = expm1(-2|x|) for |x| < 1, signed as x.
  // Most activations are there, so the other lanes take a branch.
  const vnm rare = big | ~ported;
  std::int64_t any_rare = 0;
  for (int l = 0; l < kLanes; ++l) any_rare |= rare[l];
  if (any_rare == 0) {
    return reinterpret_cast<vnd>(reinterpret_cast<vnu>(-em1 / (em1 + 2.0)) ^ sign);
  }
  // |x| >= 1: k from 3 to 63 in expm1(2|x|), then 1 - 2 / (t + 2).
  const vnd two_mk = reinterpret_cast<vnd>(static_cast<std::uint64_t>(kOneBits) - kbits);
  const vnd k_low = scaled((1.0 - two_mk) - (ec - r));  // 0 < k < 20
  const vnd k_mid = scaled((r - (ec + two_mk)) + 1.0);  // 20 <= k <= 56
  em1 = (k > 0.0) & (k < 20.0) ? k_low : (k >= 20.0) & (k <= 56.0) ? k_mid : em1;
  const vnd q = (big ? broadcastv(2.0) : -em1) / (em1 + 2.0);
  vnd out = reinterpret_cast<vnd>(reinterpret_cast<vnu>(big ? 1.0 - q : q) ^ sign);
  for (int l = 0; l < kLanes; ++l) {
    if (!ported[l]) out[l] = std::tanh(x[l]);
  }
  return out;
}

// One element through the vector routine, so scalar loops round alike.
inline double tanh1(double v) { return tanhv(broadcastv(v))[0]; }
#else
// Without FMA in the instruction set the contracted operations would be
// library calls; the fast family then calls std::tanh like the reference.
inline vnd tanhv(vnd x) {
  for (int l = 0; l < kLanes; ++l) x[l] = std::tanh(x[l]);
  return x;
}

inline double tanh1(double v) { return std::tanh(v); }
#endif

namespace fast {

// The fast family's activation of one vector and of one element. kTanh runs
// tanhv in every loop shape, so a row's bits do not depend on which path
// (tile, sparse row, remainder) computed it.
template <Epilogue Act>
inline vnd epiloguev(vnd v) {
  if constexpr (Act == Epilogue::kRelu) return selectv(v > 0.0, v);
  if constexpr (Act == Epilogue::kTanh) return tanhv(v);
  return v;
}

template <Epilogue Act>
inline double epilogue(double v) {
  if constexpr (Act == Epilogue::kTanh) return tanh1(v);
  return apply_epilogue(v, Act);
}

// Register-resident column width of the full-tile micro-kernels: a kMr x
// kNrReg f64 accumulator block is 8 vector registers (ymm under AVX2, zmm
// under AVX-512), leaving room for the B-row loads and the broadcast A
// element.
constexpr int kNrReg = 2 * kLanes;

// Full-tile micro-kernel: an MR x 8 output block whose accumulators live in
// vector registers for the whole k loop (explicit vector locals defeat the
// compiler's urge to keep the tile in stack memory). Branchless on purpose:
// fma(0, b, acc) returns acc exactly, so including or skipping zero terms
// produces identical bits — which is what makes the sparse/dense strategy
// dispatch below legal in the first place (see fmadd above).
template <Epilogue Act, bool Bias, int MR>
void affine_microkernel(const double* pa, const double* pb, int cols_k, int cols_n,
                        int i0, int j0, const double* pbias, double* po) {
  vnd acc[MR][2];
  for (int r = 0; r < MR; ++r) acc[r][0] = acc[r][1] = broadcastv(0.0);
  for (int k = 0; k < cols_k; ++k) {
    const double* brow = pb + static_cast<std::size_t>(k) * cols_n + j0;
    const vnd b0 = loadv(brow);
    const vnd b1 = loadv(brow + kLanes);
    for (int r = 0; r < MR; ++r) {
      const vnd a = broadcastv(pa[static_cast<std::size_t>(i0 + r) * cols_k + k]);
      acc[r][0] = fmaddv(a, b0, acc[r][0]);
      acc[r][1] = fmaddv(a, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    double* orow = po + static_cast<std::size_t>(i0 + r) * cols_n + j0;
    if (Bias) {
      acc[r][0] += loadv(pbias + j0);
      acc[r][1] += loadv(pbias + j0 + kLanes);
    }
    storev(orow, epiloguev<Act>(acc[r][0]));
    storev(orow + kLanes, epiloguev<Act>(acc[r][1]));
  }
}

// Single-vector-wide variant for the column remainder: a full kLanes-wide
// tile that doesn't fill two vectors. Same chain per element as the two-wide
// kernel, so mixing the two along a row is bit-transparent.
template <Epilogue Act, bool Bias, int MR>
void affine_microkernel_v1(const double* pa, const double* pb, int cols_k, int cols_n,
                           int i0, int j0, const double* pbias, double* po) {
  vnd acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = broadcastv(0.0);
  for (int k = 0; k < cols_k; ++k) {
    const vnd b0 = loadv(pb + static_cast<std::size_t>(k) * cols_n + j0);
    for (int r = 0; r < MR; ++r) {
      const vnd a = broadcastv(pa[static_cast<std::size_t>(i0 + r) * cols_k + k]);
      acc[r] = fmaddv(a, b0, acc[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    if (Bias) acc[r] += loadv(pbias + j0);
    storev(po + static_cast<std::size_t>(i0 + r) * cols_n + j0, epiloguev<Act>(acc[r]));
  }
}

// Sparse-block path: one AXPY over the full output row per nonzero A
// element, like the reference kernel. For the GCN inputs (A-hat, the
// observation feature blocks) most rows carry a handful of nonzeros, and the
// tiled path would re-scan the whole A block once per column tile just to
// find them. Bit-identical to the tiled path: per output element the sum is
// still one accumulator over ascending k, and dropped zero terms are no-ops
// (see affine_microkernel).
// The row sweeps are kept to the minimum the chain allows: the FIRST nonzero
// initializes the row directly (fmadd(a, b, +0.0) is the exact expression
// the zero-filled version would compute) and the LAST nonzero carries the
// bias/activation epilogue with it, so a row with nnz nonzeros costs nnz
// sweeps instead of nnz + 2. For A-hat rows (a handful of neighbors) and
// observation feature rows (mostly one or two nonzeros) that is the
// difference between being store-bound and being nnz-bound.
template <Epilogue Act, bool Bias>
void affine_rows_sparse(const double* pa, const double* pb, int cols_k, int cols_n,
                        const double* pbias, double* po, int i_begin, int i_end) {
  for (int i = i_begin; i < i_end; ++i) {
    double* orow = po + static_cast<std::size_t>(i) * cols_n;
    const double* arow = pa + static_cast<std::size_t>(i) * cols_k;
    int k_first = 0;
    while (k_first < cols_k && arow[k_first] == 0.0) ++k_first;
    if (k_first == cols_k) {
      // Empty row. 0.0 + pbias[j] (not bare pbias[j]): keeps the bits of the
      // accumulate-into-zeros formulation even for a -0.0 bias entry.
      for (int j = 0; j < cols_n; ++j) {
        orow[j] = epilogue<Act>(Bias ? 0.0 + pbias[j] : 0.0);
      }
      continue;
    }
    int k_last = cols_k - 1;
    while (arow[k_last] == 0.0) --k_last;
    if (k_first == k_last) {
      const double aik = arow[k_first];
      const double* brow = pb + static_cast<std::size_t>(k_first) * cols_n;
      for (int j = 0; j < cols_n; ++j) {
        const double acc = fmadd(aik, brow[j], 0.0);
        orow[j] = epilogue<Act>(Bias ? acc + pbias[j] : acc);
      }
      continue;
    }
    {
      const double aik = arow[k_first];
      const double* brow = pb + static_cast<std::size_t>(k_first) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = fmadd(aik, brow[j], 0.0);
    }
    for (int k = k_first + 1; k < k_last; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = pb + static_cast<std::size_t>(k) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = fmadd(aik, brow[j], orow[j]);
    }
    {
      const double aik = arow[k_last];
      const double* brow = pb + static_cast<std::size_t>(k_last) * cols_n;
      for (int j = 0; j < cols_n; ++j) {
        const double acc = fmadd(aik, brow[j], orow[j]);
        orow[j] = epilogue<Act>(Bias ? acc + pbias[j] : acc);
      }
    }
  }
}

// Density threshold (nonzeros / elements) below which a row block takes the
// sparse path. Pure performance knob: both paths produce identical bits.
constexpr double kSparseDensityMax = 0.25;

// Rows [i_begin, i_end) of out = Act(a * b + bias), with a bias row iff
// Bias. The accumulation order of every output element is a single chain
// over ascending k.
template <Epilogue Act, bool Bias>
void affine_rows_act(const double* pa, int cols_k, const double* pb, int cols_n,
                     const double* pbias, double* po, int i_begin, int i_end) {
  for (int i0 = i_begin; i0 < i_end; i0 += kMr) {
    const int mi = std::min(kMr, i_end - i0);
    // One cheap scan decides the strategy for this row block.
    int nnz = 0;
    const double* block = pa + static_cast<std::size_t>(i0) * cols_k;
    for (int e = 0; e < mi * cols_k; ++e) nnz += block[e] != 0.0;
    if (nnz < kSparseDensityMax * mi * cols_k) {
      affine_rows_sparse<Act, Bias>(pa, pb, cols_k, cols_n, pbias, po, i0, i0 + mi);
      continue;
    }
    // Register tiles for every row count — the MR template covers partial row
    // blocks too, so only the sub-vector column remainder falls through to
    // the general path below.
    int j0 = 0;
    switch (mi) {
      case 4:
        for (; j0 + kNrReg <= cols_n; j0 += kNrReg)
          affine_microkernel<Act, Bias, 4>(pa, pb, cols_k, cols_n, i0, j0, pbias, po);
        for (; j0 + kLanes <= cols_n; j0 += kLanes)
          affine_microkernel_v1<Act, Bias, 4>(pa, pb, cols_k, cols_n, i0, j0, pbias, po);
        break;
      case 3:
        for (; j0 + kNrReg <= cols_n; j0 += kNrReg)
          affine_microkernel<Act, Bias, 3>(pa, pb, cols_k, cols_n, i0, j0, pbias, po);
        for (; j0 + kLanes <= cols_n; j0 += kLanes)
          affine_microkernel_v1<Act, Bias, 3>(pa, pb, cols_k, cols_n, i0, j0, pbias, po);
        break;
      case 2:
        for (; j0 + kNrReg <= cols_n; j0 += kNrReg)
          affine_microkernel<Act, Bias, 2>(pa, pb, cols_k, cols_n, i0, j0, pbias, po);
        for (; j0 + kLanes <= cols_n; j0 += kLanes)
          affine_microkernel_v1<Act, Bias, 2>(pa, pb, cols_k, cols_n, i0, j0, pbias, po);
        break;
      case 1:
        for (; j0 + kNrReg <= cols_n; j0 += kNrReg)
          affine_microkernel<Act, Bias, 1>(pa, pb, cols_k, cols_n, i0, j0, pbias, po);
        for (; j0 + kLanes <= cols_n; j0 += kLanes)
          affine_microkernel_v1<Act, Bias, 1>(pa, pb, cols_k, cols_n, i0, j0, pbias, po);
        break;
      default:
        break;
    }
    // Sub-vector column remainder: general bounds.
    for (; j0 < cols_n; j0 += kNr) {
      const int nj = std::min(kNr, cols_n - j0);
      double acc[kMr][kNr];
      for (int r = 0; r < mi; ++r) {
        for (int j = 0; j < nj; ++j) acc[r][j] = 0.0;
      }
      for (int k = 0; k < cols_k; ++k) {
        const double* brow = pb + static_cast<std::size_t>(k) * cols_n + j0;
        for (int r = 0; r < mi; ++r) {
          const double ark = pa[static_cast<std::size_t>(i0 + r) * cols_k + k];
          double* accr = acc[r];
          for (int j = 0; j < nj; ++j) accr[j] = fmadd(ark, brow[j], accr[j]);
        }
      }
      for (int r = 0; r < mi; ++r) {
        double* orow = po + static_cast<std::size_t>(i0 + r) * cols_n + j0;
        for (int j = 0; j < nj; ++j) {
          orow[j] = epilogue<Act>(Bias ? acc[r][j] + pbias[j0 + j] : acc[r][j]);
        }
      }
    }
  }
}

// Calls f(std::integral_constant<Epilogue, act>{}), so that the row loops
// take the activation as a constant and carry no per-element switch.
// affine_rows fixes the bias's presence the same way. Behind the table's
// function pointer both are run-time values: left to a per-element test,
// the CSR propagation took twice as long and the dense tiles a third longer.
template <typename F>
void with_epilogue(Epilogue act, const F& f) {
  switch (act) {
    case Epilogue::kNone: return f(std::integral_constant<Epilogue, Epilogue::kNone>{});
    case Epilogue::kRelu: return f(std::integral_constant<Epilogue, Epilogue::kRelu>{});
    case Epilogue::kTanh: return f(std::integral_constant<Epilogue, Epilogue::kTanh>{});
  }
}

// Rows [i_begin, i_end) of out = act(a * b + bias): the table's affine rows.
void affine_rows(const double* pa, int cols_k, const double* pb, int cols_n,
                 const double* pbias, Epilogue act, double* po, int i_begin, int i_end) {
  with_epilogue(act, [&](auto act_constant) {
    constexpr Epilogue kAct = decltype(act_constant)::value;
    if (pbias) {
      affine_rows_act<kAct, true>(pa, cols_k, pb, cols_n, pbias, po, i_begin, i_end);
    } else {
      affine_rows_act<kAct, false>(pa, cols_k, pb, cols_n, nullptr, po, i_begin, i_end);
    }
  });
}

// Full-tile micro-kernel for out += a^T * b over k in [k0, k1); same
// registerization and bit-preservation argument as affine_microkernel. The
// accumulators start from the partial sums already in `out`: a stored double
// is the exact accumulator, so the chain resumes where the last call left it.
template <int MR>
void tn_microkernel(const double* pa, const double* pb, int k0, int k1, int cols_m,
                    int cols_n, int i0, int j0, double* po) {
  vnd acc[MR][2];
  for (int r = 0; r < MR; ++r) {
    const double* orow = po + static_cast<std::size_t>(i0 + r) * cols_n + j0;
    acc[r][0] = loadv(orow);
    acc[r][1] = loadv(orow + kLanes);
  }
  for (int k = k0; k < k1; ++k) {
    const double* arow = pa + static_cast<std::size_t>(k) * cols_m + i0;
    const double* brow = pb + static_cast<std::size_t>(k) * cols_n + j0;
    const vnd b0 = loadv(brow);
    const vnd b1 = loadv(brow + kLanes);
    for (int r = 0; r < MR; ++r) {
      const vnd a = broadcastv(arow[r]);
      acc[r][0] = fmaddv(a, b0, acc[r][0]);
      acc[r][1] = fmaddv(a, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    double* orow = po + static_cast<std::size_t>(i0 + r) * cols_n + j0;
    storev(orow, acc[r][0]);
    storev(orow + kLanes, acc[r][1]);
  }
}

// Single-vector-wide column-remainder variant (see affine_microkernel_v1).
template <int MR>
void tn_microkernel_v1(const double* pa, const double* pb, int k0, int k1, int cols_m,
                       int cols_n, int i0, int j0, double* po) {
  vnd acc[MR];
  for (int r = 0; r < MR; ++r) {
    acc[r] = loadv(po + static_cast<std::size_t>(i0 + r) * cols_n + j0);
  }
  for (int k = k0; k < k1; ++k) {
    const double* arow = pa + static_cast<std::size_t>(k) * cols_m + i0;
    const vnd b0 = loadv(pb + static_cast<std::size_t>(k) * cols_n + j0);
    for (int r = 0; r < MR; ++r) {
      acc[r] = fmaddv(broadcastv(arow[r]), b0, acc[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    storev(po + static_cast<std::size_t>(i0 + r) * cols_n + j0, acc[r]);
  }
}

// One MR-row block of out += a^T * b over k in [k0, k1): register tiles, then
// the sub-vector column remainder with general bounds.
template <int MR>
void tn_row_block(const double* pa, const double* pb, int k0, int k1, int cols_m,
                  int cols_n, int i0, double* po) {
  int j0 = 0;
  for (; j0 + kNrReg <= cols_n; j0 += kNrReg)
    tn_microkernel<MR>(pa, pb, k0, k1, cols_m, cols_n, i0, j0, po);
  for (; j0 + kLanes <= cols_n; j0 += kLanes)
    tn_microkernel_v1<MR>(pa, pb, k0, k1, cols_m, cols_n, i0, j0, po);
  if (j0 == cols_n) return;
  const int nj = cols_n - j0;  // < kLanes
  double acc[MR][kLanes];
  for (int r = 0; r < MR; ++r) {
    const double* orow = po + static_cast<std::size_t>(i0 + r) * cols_n + j0;
    for (int j = 0; j < nj; ++j) acc[r][j] = orow[j];
  }
  for (int k = k0; k < k1; ++k) {
    const double* arow = pa + static_cast<std::size_t>(k) * cols_m + i0;
    const double* brow = pb + static_cast<std::size_t>(k) * cols_n + j0;
    for (int r = 0; r < MR; ++r) {
      const double ark = arow[r];
      if (ark == 0.0) continue;  // zero-skip; bit-preserving (see affine_rows)
      for (int j = 0; j < nj; ++j) acc[r][j] = fmadd(ark, brow[j], acc[r][j]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    double* orow = po + static_cast<std::size_t>(i0 + r) * cols_n + j0;
    for (int j = 0; j < nj; ++j) orow[j] = acc[r][j];
  }
}

// Sparse-a path for out += a^T * b over k in [k0, k1): k-outer AXPY, one
// sweep of output row i per nonzero a(k, i). The weight gradient of the first
// GCN layer multiplies by the stacked observation features, whose rows carry
// a handful of nonzeros, so the dense tiles would spend most of their FMAs on
// exact zeros. Continues the rows' chains from `out`: per element the same
// fma over ascending k, minus zero terms that are no-ops (see affine_rows).
void tn_rows_sparse(const double* pa, int k0, int k1, int cols_m, const double* pb,
                    int cols_n, double* po, int i_begin, int i_end) {
  for (int k = k0; k < k1; ++k) {
    const double* arow = pa + static_cast<std::size_t>(k) * cols_m;
    const double* brow = pb + static_cast<std::size_t>(k) * cols_n;
    for (int i = i_begin; i < i_end; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* orow = po + static_cast<std::size_t>(i) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = fmadd(aki, brow[j], orow[j]);
    }
  }
}

// Rows [i_begin, i_end) of out += a^T * b (a row-major K x M; out M x N),
// walked one k chunk (nnk::kTnChunk rows of a and b) at a time, each element
// continuing the chain already in `out`. A chunk whose columns [i_begin,
// i_end) of a are below the affine_rows density threshold takes the sparse
// path, any other the register tiles; counting reads the chunk into cache
// for whichever path follows. The paths may alternate from chunk to chunk
// because both continue the same per-element chain.
void matmul_tn_resume(const double* pa, int rows_k, int cols_m, const double* pb,
                      int cols_n, double* po, int i_begin, int i_end) {
  for (int k0 = 0; k0 < rows_k; k0 += nnk::kTnChunk) {
    const int k1 = std::min(rows_k, k0 + nnk::kTnChunk);
    int nnz = 0;
    for (int k = k0; k < k1; ++k) {
      const double* arow = pa + static_cast<std::size_t>(k) * cols_m;
      for (int i = i_begin; i < i_end; ++i) nnz += arow[i] != 0.0;
    }
    if (nnz < kSparseDensityMax * (k1 - k0) * (i_end - i_begin)) {
      tn_rows_sparse(pa, k0, k1, cols_m, pb, cols_n, po, i_begin, i_end);
      continue;
    }
    int i0 = i_begin;
    for (; i0 + kMr <= i_end; i0 += kMr)
      tn_row_block<kMr>(pa, pb, k0, k1, cols_m, cols_n, i0, po);
    switch (i_end - i0) {
      case 3: tn_row_block<3>(pa, pb, k0, k1, cols_m, cols_n, i0, po); break;
      case 2: tn_row_block<2>(pa, pb, k0, k1, cols_m, cols_n, i0, po); break;
      case 1: tn_row_block<1>(pa, pb, k0, k1, cols_m, cols_n, i0, po); break;
      default: break;
    }
  }
}

// Rows [0, rows) of out = finish(M src) for a sparse M whose row i holds the
// entries t in [begin(i), begin(i + 1)): columns cols[t], values vals[t].
// Per output element the chain is the single accumulator over ascending k
// the dense-scan sparse path walks (the index just skips the rescans), with
// the first and last nonzero carrying the init and finish(acc, j) sweeps
// (see affine_rows_sparse); an empty row is finish(0.0, j).
template <typename Begin, typename Finish>
void csr_product_rows(int rows, const Begin& begin, const int* cols, const double* vals,
                      const double* psrc, int cols_n, double* po, const Finish& finish) {
  for (int i = 0; i < rows; ++i) {
    double* orow = po + static_cast<std::size_t>(i) * cols_n;
    std::size_t t = begin(i);
    const std::size_t t_end = begin(i + 1);
    if (t == t_end) {
      for (int j = 0; j < cols_n; ++j) orow[j] = finish(0.0, j);
      continue;
    }
    if (t_end - t == 1) {
      const double a = vals[t];
      const double* brow = psrc + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = finish(fmadd(a, brow[j], 0.0), j);
      continue;
    }
    {
      const double a = vals[t];
      const double* brow = psrc + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = fmadd(a, brow[j], 0.0);
    }
    for (++t; t + 1 < t_end; ++t) {
      const double a = vals[t];
      const double* brow = psrc + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = fmadd(a, brow[j], orow[j]);
    }
    {
      const double a = vals[t];
      const double* brow = psrc + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] = finish(fmadd(a, brow[j], orow[j]), j);
    }
  }
}

// Graph g's rows of out = act(A_g src), through the staged CSR index (no
// bias: adjacency products never carry one).
void propagate(const BlockAdjacency& adj, int g, const double* psrc, int cols_n,
               Epilogue act, double* po) {
  with_epilogue(act, [&](auto act_constant) {
    csr_product_rows(
        adj.block_size(), [&](int i) { return adj.row_begin(g, i); }, adj.csr_cols(),
        adj.csr_vals(), psrc, cols_n, po,
        [](double v, int) { return epilogue<decltype(act_constant)::value>(v); });
  });
}

void affine_csr(const CsrRows& x, int row0, int rows, const double* pw, int cols_n,
                const double* pbias, double* po) {
  csr_product_rows(
      rows, [&](int i) { return x.row_begin(row0 + i); }, x.csr_cols(), x.csr_vals(), pw,
      cols_n, po, [pbias](double v, int j) { return v + pbias[j]; });
}

// tn_rows_sparse's k-outer AXPY over the stored entries: one sweep of output
// row i per stored x(k, i).
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

// delta W^T on the affine_rows micro-kernels: register tiles for dense
// rows, the zero-skipping sparse rows for a ReLU-masked delta.
void matmul_rows(const double* pa, int cols_k, const double* pbt, int cols_n, double* po,
                 int i_begin, int i_end) {
  affine_rows(pa, cols_k, pbt, cols_n, nullptr, Epilogue::kNone, po, i_begin, i_end);
}

}  // namespace fast

// The reference family: the original mul-then-add loops, one per loop shape.
namespace reference {

// The i-k-j loop with zero-skip: streams through b and out rows, and skips
// the zero entries of the sparse A-hat and feature blocks. The bias and the
// activation follow the whole chain.
void affine_rows(const double* pa, int cols_k, const double* pb, int cols_n,
                 const double* pbias, Epilogue act, double* po, int i_begin, int i_end) {
  for (int i = i_begin; i < i_end; ++i) {
    double* orow = po + static_cast<std::size_t>(i) * cols_n;
    const double* arow = pa + static_cast<std::size_t>(i) * cols_k;
    std::fill(orow, orow + cols_n, 0.0);
    for (int k = 0; k < cols_k; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = pb + static_cast<std::size_t>(k) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] += aik * brow[j];
    }
    if (pbias == nullptr && act == Epilogue::kNone) continue;
    for (int j = 0; j < cols_n; ++j) {
      orow[j] = apply_epilogue(pbias ? orow[j] + pbias[j] : orow[j], act);
    }
  }
}

// The dot loop: every term, zero or not, in ascending k.
void matmul_rows(const double* pa, int cols_k, const double* pbt, int cols_n, double* po,
                 int i_begin, int i_end) {
  for (int i = i_begin; i < i_end; ++i) {
    const double* arow = pa + static_cast<std::size_t>(i) * cols_k;
    for (int j = 0; j < cols_n; ++j) {
      double sum = 0.0;
      for (int k = 0; k < cols_k; ++k) {
        sum += arow[k] * pbt[static_cast<std::size_t>(k) * cols_n + j];
      }
      po[static_cast<std::size_t>(i) * cols_n + j] = sum;
    }
  }
}

// k outer: streams rows of a and b, accumulates rank-1 updates into out.
void matmul_tn_resume(const double* pa, int rows_k, int cols_m, const double* pb, int cols_n,
                      double* po, int i_begin, int i_end) {
  for (int k = 0; k < rows_k; ++k) {
    const double* arow = pa + static_cast<std::size_t>(k) * cols_m;
    const double* brow = pb + static_cast<std::size_t>(k) * cols_n;
    for (int i = i_begin; i < i_end; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* orow = po + static_cast<std::size_t>(i) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] += aki * brow[j];
    }
  }
}

void propagate(const BlockAdjacency& adj, int g, const double* psrc, int cols_n,
               Epilogue act, double* po) {
  const int n = adj.block_size();
  affine_rows(adj.blocks()[static_cast<std::size_t>(g)].data(), n, psrc, cols_n, nullptr, act,
              po, 0, n);
}

// affine_rows' loop over the stored entries of the rows.
void affine_csr(const CsrRows& x, int row0, int rows, const double* pw, int cols_n,
                const double* pbias, double* po) {
  const int* cols = x.csr_cols();
  const double* vals = x.csr_vals();
  for (int i = 0; i < rows; ++i) {
    double* orow = po + static_cast<std::size_t>(i) * cols_n;
    std::fill(orow, orow + cols_n, 0.0);
    for (std::size_t t = x.row_begin(row0 + i); t < x.row_end(row0 + i); ++t) {
      const double xik = vals[t];
      const double* wrow = pw + static_cast<std::size_t>(cols[t]) * cols_n;
      for (int j = 0; j < cols_n; ++j) orow[j] += xik * wrow[j];
    }
    for (int j = 0; j < cols_n; ++j) orow[j] += pbias[j];
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

}  // namespace reference

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
      reference::affine_rows, reference::matmul_rows, reference::matmul_tn_resume,
      reference::propagate,   reference::affine_csr,  reference::matmul_tn_resume_csr};
  static constexpr KernelTable fast = {fast::affine_rows, fast::matmul_rows,
                                       fast::matmul_tn_resume, fast::propagate,
                                       fast::affine_csr, fast::matmul_tn_resume_csr};
  return family == NnKernel::kFast ? fast : reference;
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

void fast_tanh(const double* x, std::size_t count, double* out) {
  std::size_t e = 0;
  for (; e + kLanes <= count; e += kLanes) storev(out + e, tanhv(loadv(x + e)));
  for (; e < count; ++e) out[e] = tanh1(x[e]);
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
  Matrix out = Matrix::uninitialized(x.rows(), w.cols());
  run_rows(x.rows(), x.rows(), w.cols(), x.cols(), [&](int begin, int end) {
    kernels.affine_rows(x.data(), x.cols(), w.data(), w.cols(), bias ? bias->data() : nullptr,
                        act, out.data(), begin, end);
  });
  return out;
}

Matrix matmul_transposed(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.cols() == b.cols(), "matmul_transposed shape mismatch");
  // b^T packed once (b is a weight matrix, at most 256 x 256).
  const Matrix bt = transpose(b);
  const nnk::KernelTable& kernels = nnk::kernel_table(nn_kernel());
  Matrix out = Matrix::uninitialized(a.rows(), b.rows());
  run_rows(a.rows(), a.rows(), b.rows(), a.cols(), [&](int begin, int end) {
    kernels.matmul_rows(a.data(), a.cols(), bt.data(), b.rows(), out.data(), begin, end);
  });
  return out;
}

Matrix matmul_transposed_a(const Matrix& a, const Matrix& b) {
  NPTSN_EXPECT(a.rows() == b.rows(), "matmul_transposed_a shape mismatch");
  const nnk::KernelTable& kernels = nnk::kernel_table(nn_kernel());
  Matrix out(a.cols(), b.cols());  // every chain starts at +0.0
  run_rows(a.cols(), a.cols(), b.cols(), a.rows(), [&](int begin, int end) {
    kernels.matmul_tn_resume(a.data(), a.rows(), a.cols(), b.data(), b.cols(), out.data(),
                             begin, end);
  });
  return out;
}

}  // namespace nptsn
