// Core types and FLOP-accounting conventions for the FFT library.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <string>

#include "xutil/aligned.hpp"
#include "xutil/check.hpp"

namespace xfft {

/// Single-precision complex, the element type the paper's XMT FFT uses.
using Cf = std::complex<float>;
/// Double-precision complex, used by the oracle DFT and accuracy tests.
using Cd = std::complex<double>;

/// Transform direction. Forward uses e^{-2*pi*i*kn/N}; inverse conjugates the
/// twiddles and (optionally) scales by 1/N.
enum class Direction { kForward, kInverse };

/// Whether an inverse transform divides by N (so forward+inverse round-trips
/// to the input) or leaves the raw unscaled sums.
enum class Scaling { kNone, kUnitary1OverN };

/// The paper (Section VI) reports FLOPS using "the standard rule of
/// 5 N log2 N floating-point operations for an FFT of N elements".
[[nodiscard]] constexpr double standard_fft_flops(std::uint64_t n_points) {
  double lg = 0.0;
  for (std::uint64_t v = n_points; v > 1; v >>= 1) lg += 1.0;
  return 5.0 * static_cast<double>(n_points) * lg;
}

/// Aligned buffer of single-precision complex samples.
using BufferF = xutil::AlignedVector<Cf>;
/// Aligned buffer of double-precision complex samples.
using BufferD = xutil::AlignedVector<Cd>;

/// Dimensions of a (up to 3-D) transform; x is the fastest-varying axis.
struct Dims3 {
  std::size_t nx = 1;
  std::size_t ny = 1;
  std::size_t nz = 1;

  /// Element count. Throws xutil::Error when it does not fit in size_t: a
  /// wrapped count would size every buffer and loop for the wrong shape.
  [[nodiscard]] std::size_t total() const {
    std::size_t xy = 0;
    std::size_t n = 0;
    if (__builtin_mul_overflow(nx, ny, &xy) ||
        __builtin_mul_overflow(xy, nz, &n)) {
      throw xutil::Error("dimensions " + std::to_string(nx) + "x" +
                         std::to_string(ny) + "x" + std::to_string(nz) +
                         " overflow the element count");
    }
    return n;
  }
  [[nodiscard]] int rank() const {
    return 1 + (ny > 1 || nz > 1 ? 1 : 0) + (nz > 1 ? 1 : 0);
  }
  friend bool operator==(const Dims3&, const Dims3&) = default;
};

}  // namespace xfft
