// Small-DFT cores used inside each radix-r butterfly.
//
// The hardcoded radix-2/4/8 cores mirror the structure a TCU register-file
// kernel would use on XMT (Section IV-A: radix 8 is the largest practical
// radix because a TCU's 32 floating-point registers hold 16 single-precision
// complex values). Radices 3 and 5, the odd factors of the smooth sizes,
// have fixed cores too, as FFTW's small odd codelets do. A generic O(r^2)
// core supports the primes from 7 up to kMaxRadix, so the library handles
// any smooth size.
//
// Every core is a template over the complex type: std::complex<T>
// runs one butterfly (the XMTC kernel, one thread per butterfly), and
// SplitComplex<T, L> runs L independent butterflies in vector lanes (the
// host Plan1D stages). Both instantiations execute the same source, so every
// lane rounds exactly as the scalar butterfly does.
#pragma once

#include <complex>
#include <cstddef>

#include "xfft/twiddle.hpp"
#include "xutil/check.hpp"

namespace xfft {

/// Maximum radix the generic core accepts (bounded local scratch).
inline constexpr unsigned kMaxRadix = 64;

/// Complex product (ac - bd, ad + bc), in the operation order of the
/// finite-operand fast path of std::complex operator*, so finite operands
/// give the same bits. Unlike operator*, non-finite operands skip the
/// C99 Annex G recovery (__mulsc3/__muldc3): a NaN or inf input yields
/// NaN/inf components rather than a recovered infinity. Without that
/// out-of-line branch the multiply stays inline and vectorizable.
template <typename T>
[[nodiscard]] inline std::complex<T> cmul(std::complex<T> x,
                                          std::complex<T> y) {
  const T a = x.real();
  const T b = x.imag();
  const T c = y.real();
  const T d = y.imag();
  return {a * c - b * d, a * d + b * c};
}

/// Butterflies one lane-batched step runs at once on a baseline build: one
/// 16-byte vector of real parts (4 for float, 2 for double). Plan1D runs
/// twice as many on a host that reports AVX2 (lane_width<T>()).
template <typename T>
inline constexpr std::size_t kLanes = 16 / sizeof(T);

/// L complex values in split form, one per lane: lane l of `re` and `im`
/// is the real and imaginary part of the value of butterfly l. Its +, -
/// and cmul are the std::complex operations applied lane by lane, so each
/// lane rounds exactly as the scalar code does. The dft cores below are
/// written once for both std::complex<T> and SplitComplex<T, L>.
template <typename T, std::size_t L>
struct SplitComplex {
  using value_type = T;
  // 16-byte aligned at any width, and real()/imag() return references.
  // The 32-byte (AVX2) lanes are instantiated in a baseline translation
  // unit, plan1d.cpp: there GCC flags every 32-byte aligned by-value
  // parameter and every vector returned by value as passed differently
  // with and without AVX (-Wpsabi).
  using V [[gnu::vector_size(L * sizeof(T)), gnu::aligned(16)]] = T;

  V re;
  V im;

  [[nodiscard]] const V& real() const { return re; }
  [[nodiscard]] const V& imag() const { return im; }

  friend SplitComplex operator+(SplitComplex x, SplitComplex y) {
    return {x.re + y.re, x.im + y.im};
  }
  friend SplitComplex operator-(SplitComplex x, SplitComplex y) {
    return {x.re - y.re, x.im - y.im};
  }
};

/// Lane-wise cmul: the same four products and two sums, in the same order.
template <typename T, std::size_t L>
[[nodiscard]] inline SplitComplex<T, L> cmul(SplitComplex<T, L> x,
                                             SplitComplex<T, L> y) {
  return {x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re};
}

/// cmul by one constant for every lane (a scalar operand of a vector
/// operation is broadcast to all lanes, unchanged).
template <typename T, std::size_t L>
[[nodiscard]] inline SplitComplex<T, L> cmul(SplitComplex<T, L> x,
                                             std::complex<T> y) {
  const T c = y.real();
  const T d = y.imag();
  return {x.re * c - x.im * d, x.re * d + x.im * c};
}

/// x * -i (forward) or x * +i (inverse): a swap and a sign flip, exact.
template <typename C>
[[nodiscard]] inline C quarter_turn(C x, bool inverse) {
  return inverse ? C{-x.imag(), x.real()} : C{x.imag(), -x.real()};
}

/// x times the real s: (re*s, im*s), as std::complex<T> * T multiplies.
template <typename C>
[[nodiscard]] inline C rmul(C x, typename C::value_type s) {
  return C{x.real() * s, x.imag() * s};
}

/// In-place 2-point DFT (self-inverse up to scaling).
template <typename C>
inline void dft2(C* v) {
  const C a = v[0];
  v[0] = a + v[1];
  v[1] = a - v[1];
}

/// In-place 4-point DFT. Forward multiplies the odd cross term by -i,
/// inverse by +i; both cases are free of real multiplications.
template <typename C>
inline void dft4(C* v, bool inverse) {
  const C a = v[0] + v[2];
  const C b = v[0] - v[2];
  const C c = v[1] + v[3];
  const C d = quarter_turn(v[1] - v[3], inverse);
  v[0] = a + c;
  v[1] = b + d;
  v[2] = a - c;
  v[3] = b - d;
}

/// In-place 8-point DFT: two 4-point DFTs over even/odd lanes combined with
/// the 8th roots of unity (only w8^1 and w8^3 cost real multiplications).
template <typename C>
inline void dft8(C* v, bool inverse) {
  using T = typename C::value_type;
  C e[4] = {v[0], v[2], v[4], v[6]};
  C o[4] = {v[1], v[3], v[5], v[7]};
  dft4(e, inverse);
  dft4(o, inverse);

  const T c = static_cast<T>(0.70710678118654752440);  // 1/sqrt(2)
  // Forward twiddles w8^{-k}: 1, (c,-c), (0,-1), (-c,-c); inverse conjugates.
  const T s = inverse ? T(1) : T(-1);
  const std::complex<T> w1(c, s * c);
  const std::complex<T> w3(-c, s * c);
  o[1] = cmul(o[1], w1);
  o[2] = quarter_turn(o[2], inverse);
  o[3] = cmul(o[3], w3);

  for (int k = 0; k < 4; ++k) {
    v[k] = e[k] + o[k];
    v[k + 4] = e[k] - o[k];
  }
}

/// In-place 3-point DFT: with a = v1 + v2, m = v0 - a/2 and
/// s = sqrt(3)/2, outputs 1 and 2 are m - i*s*(v1 - v2) and
/// m + i*s*(v1 - v2) forward; inverse flips the sign of i (the quarter
/// turn carries it). 16 flops.
template <typename C>
inline void dft3(C* v, bool inverse) {
  using T = typename C::value_type;
  const T h = static_cast<T>(0.5);
  const T s = static_cast<T>(0.86602540378443864676);  // sin(2pi/3)
  const C a = v[1] + v[2];
  const C b = quarter_turn(rmul(v[1] - v[2], s), inverse);
  const C m = v[0] - rmul(a, h);
  v[0] = v[0] + a;
  v[1] = m + b;
  v[2] = m - b;
}

/// In-place 5-point DFT in the cos/sin-pair form: the symmetric sums
/// a_k = v_k + v_{5-k} meet the cosines c1, c2 and the differences
/// b_k = v_k - v_{5-k} the sines s1, s2; the quarter turn gives the sines
/// their factor -i (forward) or +i (inverse). 48 flops.
template <typename C>
inline void dft5(C* v, bool inverse) {
  using T = typename C::value_type;
  const T c1 = static_cast<T>(0.30901699437494742410);   // cos(2pi/5)
  const T c2 = static_cast<T>(-0.80901699437494742410);  // cos(4pi/5)
  const T s1 = static_cast<T>(0.95105651629515357212);   // sin(2pi/5)
  const T s2 = static_cast<T>(0.58778525229247312917);   // sin(4pi/5)
  const C a1 = v[1] + v[4];
  const C a2 = v[2] + v[3];
  const C b1 = v[1] - v[4];
  const C b2 = v[2] - v[3];
  const C m1 = v[0] + rmul(a1, c1) + rmul(a2, c2);
  const C m2 = v[0] + rmul(a1, c2) + rmul(a2, c1);
  const C n1 = quarter_turn(rmul(b1, s1) + rmul(b2, s2), inverse);
  const C n2 = quarter_turn(rmul(b1, s2) - rmul(b2, s1), inverse);
  v[0] = v[0] + a1 + a2;
  v[1] = m1 + n1;
  v[2] = m2 + n2;
  v[3] = m2 - n2;
  v[4] = m1 - n1;
}

/// In-place r-point DFT via the master twiddle table of a length-n plan
/// (n divisible by r). O(r^2); used for the radices without a fixed core,
/// the primes from 7 up.
/// Output i sums v[t] * w_r^{-i*t}; the root index i*t mod r is stepped by
/// i and wrapped at r instead of divided. Like the fixed cores it is a
/// template over the complex type, so lanes round as the scalar core does.
template <typename C>
inline void dft_generic(C* v, unsigned r,
                        const TwiddleTable<typename C::value_type>& master,
                        std::size_t n) {
  XU_DCHECK(r >= 2 && r <= kMaxRadix);
  XU_DCHECK(n % r == 0);
  const std::size_t stride = n / r;
  C y[kMaxRadix];
  for (unsigned i = 0; i < r; ++i) {
    C acc = v[0];
    unsigned root = i;  // i*t mod r at t = 1
    for (unsigned t = 1; t < r; ++t) {
      acc = acc + cmul(v[t], master[root * stride]);
      root += i;
      if (root >= r) root -= r;
    }
    y[i] = acc;
  }
  for (unsigned i = 0; i < r; ++i) v[i] = y[i];
}

/// Dispatches to the fastest available core for radix r.
/// `master` must be the plan's full-size table (its direction determines
/// forward/inverse for the generic path; `inverse` must agree with it).
template <typename C>
inline void small_dft(C* v, unsigned r, bool inverse,
                      const TwiddleTable<typename C::value_type>& master,
                      std::size_t n) {
  switch (r) {
    case 2:
      dft2(v);
      break;
    case 3:
      dft3(v, inverse);
      break;
    case 4:
      dft4(v, inverse);
      break;
    case 5:
      dft5(v, inverse);
      break;
    case 8:
      dft8(v, inverse);
      break;
    default:
      dft_generic(v, r, master, n);
      break;
  }
}

/// Actual floating-point operations performed by one r-point core
/// (real adds + real multiplies), per the accounting in DESIGN.md §5.
[[nodiscard]] constexpr std::uint64_t small_dft_flops(unsigned r) {
  switch (r) {
    case 2:
      return 4;  // 2 complex additions
    case 3:
      return 16;  // 6 complex additions + 2 complex-by-real multiplies
    case 4:
      return 16;  // 8 complex additions
    case 5:
      return 48;  // 16 complex additions + 8 complex-by-real multiplies
    case 8:
      return 60;  // 2x dft4 + 8 cadds + 2 nontrivial w8 multiplies
    default:
      return 6ULL * r * r + 2ULL * r * (r - 1);
  }
}

}  // namespace xfft
