// Vector lanes, the fused multiply-add and the tanh port of the NN kernels
// (DESIGN.md §11). Private to src/nn: kernels.cpp and fast_rows.cpp include
// it, and each compiles its own copy at its own ISA level (fast_rows.cpp
// once per level, src/nn/CMakeLists.txt). So everything here has internal
// linkage: an ISA object must define no symbol another object could bind to.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "nn/matrix.hpp"

namespace nptsn {
namespace {

// Vector lane type, sized to the widest ISA the including translation unit
// is compiled for (AVX-512 or AVX2 under NPTSN_KERNEL_SIMD, SSE2 otherwise).
// Every lane is an ordinary IEEE mul-then-add (the kernel units are built
// with -ffp-contract=off) and lanes are independent output COLUMNS — the
// per-element reduction stays one chain over ascending k — so results are
// bit-identical at every vector width. Without AVX the lane type must fit an
// SSE register: a 32-byte vector passed or returned by value there has no
// native register and changes the ABI (GCC's -Wpsabi).
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

// set1 and fmadd are intrinsics where the ISA has them: written as loops over
// the lanes, GCC 12 compiles the 8-lane forms into masked broadcast sequences
// and keeps the tiles' accumulators on the stack (a 256^3 x W ran at 6
// GFLOP/s at x86-64-v4).
inline vnd broadcastv(double s) {
#if defined(__AVX512F__)
  return _mm512_set1_pd(s);
#elif defined(__AVX__)
  return _mm256_set1_pd(s);
#elif defined(__SSE2__)
  return _mm_set1_pd(s);
#else
  vnd v;
  for (int l = 0; l < kLanes; ++l) v[l] = s;
  return v;
#endif
}

// v in the lanes of `keep`, +0.0 (all bits clear) in the others.
inline vnd selectv(vnm keep, vnd v) {
  return reinterpret_cast<vnd>(reinterpret_cast<vnm>(v) & keep);
}

// EVERY multiply-accumulate of the fast family goes through these two
// helpers, and nowhere else (the kernel units are built with
// -ffp-contract=off, so the compiler cannot contract — or fail to contract —
// anything on its own). That uniformity is the determinism story: whichever
// loop shape touches an output element (register tile, CSR walk, any
// vector width, any ISA table, any thread count), its reduction is the
// identical chain of fma(a_k, b_k, acc) over ascending k, so every strategy
// produces the same bits. Where the hardware has FMA this roughly doubles
// dense GEMM throughput over separate mul+add; fast-vs-reference then
// differs by the contraction rounding only, inside the documented 1e-12
// envelope (the reference family keeps the original mul-then-add bits as
// ground truth). The CSR walks' zero-skip stays legal too: fma(+/-0, b,
// acc) returns acc exactly for finite b, and an accumulator that starts at
// +0.0 can never become -0.0.
inline double fmadd(double a, double b, double acc) {
#if defined(__FMA__)
  return __builtin_fma(a, b, acc);
#else
  return a * b + acc;
#endif
}

inline vnd fmaddv(vnd a, vnd b, vnd acc) {
#if defined(__AVX512F__)
  return _mm512_fmadd_pd(a, b, acc);
#elif defined(__FMA__)
  return _mm256_fmadd_pd(a, b, acc);
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
// value, whichever loop shape or ISA table calls it.
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

// The fast family's activation of one vector and of one element. kTanh runs
// tanhv in every loop shape, so a row's bits do not depend on which path
// (tile or CSR walk) computed it.
template <Epilogue Act>
inline vnd epiloguev(vnd v) {
  if constexpr (Act == Epilogue::kRelu) return selectv(v > 0.0, v);
  if constexpr (Act == Epilogue::kTanh) return tanhv(v);
  return v;
}

template <Epilogue Act>
inline double epilogue(double v) {
  if constexpr (Act == Epilogue::kRelu) return v > 0.0 ? v : 0.0;
  if constexpr (Act == Epilogue::kTanh) return tanh1(v);
  return v;
}

// Calls f(std::integral_constant<Epilogue, act>{}), so that the row loops
// take the activation as a constant and carry no per-element switch. Behind
// a table's function pointer it is a run-time value: left to a per-element
// test, the CSR propagation took twice as long and the dense tiles a third
// longer.
template <typename F>
void with_epilogue(Epilogue act, const F& f) {
  switch (act) {
    case Epilogue::kNone: return f(std::integral_constant<Epilogue, Epilogue::kNone>{});
    case Epilogue::kRelu: return f(std::integral_constant<Epilogue, Epilogue::kRelu>{});
    case Epilogue::kTanh: return f(std::integral_constant<Epilogue, Epilogue::kTanh>{});
  }
}

}  // namespace
}  // namespace nptsn
