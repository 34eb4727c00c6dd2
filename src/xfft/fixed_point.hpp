// Fixed-point (Q15) FFT.
//
// The prior XMT FFT study the paper cites ([18], Saybasili et al.) "was
// limited to fixed-point arithmetic"; this module reproduces that substrate:
// Q15 complex samples, saturating arithmetic, per-stage 1/2 scaling to
// prevent overflow (so the forward transform computes X[k]/N), and twiddles
// rounded to Q15. The SQNR of the result against the double-precision
// oracle is the quality metric tests pin.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "xfft/types.hpp"

namespace xfft {

/// Q15 value: 16-bit signed, 15 fractional bits, range [-1, 1).
struct Q15 {
  std::int16_t raw = 0;

  [[nodiscard]] static Q15 from_double(double v);
  [[nodiscard]] double to_double() const {
    return static_cast<double>(raw) / 32768.0;
  }
  friend bool operator==(Q15, Q15) = default;
};

/// Saturating Q15 addition/subtraction.
[[nodiscard]] Q15 q15_add(Q15 a, Q15 b);
[[nodiscard]] Q15 q15_sub(Q15 a, Q15 b);
/// Rounded Q15 multiplication ((a*b + 2^14) >> 15, saturated).
[[nodiscard]] Q15 q15_mul(Q15 a, Q15 b);
/// Arithmetic halving with round-to-nearest (the per-stage scaling).
[[nodiscard]] Q15 q15_half(Q15 a);

/// Complex Q15 sample.
struct CQ15 {
  Q15 re;
  Q15 im;
  friend bool operator==(CQ15, CQ15) = default;
};

/// Full complex multiply, rounded per component.
[[nodiscard]] CQ15 cq15_mul(CQ15 a, CQ15 b);

/// Converts float samples (|x| <= 1) to Q15 and back.
[[nodiscard]] std::vector<CQ15> to_q15(std::span<const Cf> x);
[[nodiscard]] std::vector<Cf> from_q15(std::span<const CQ15> x);

/// In-place radix-2 DIF fixed-point FFT, natural order in and out.
/// Every stage halves both butterfly outputs, so the result is X[k] / N —
/// guaranteed overflow-free for any input with |re|,|im| < 1.
/// n must be a power of two.
void fft_q15(std::span<CQ15> data, Direction dir);

/// Signal-to-quantization-noise ratio in dB of `got` (scaled by `scale`)
/// against the double-precision reference `want`.
[[nodiscard]] double sqnr_db(std::span<const CQ15> got, double scale,
                             std::span<const Cd> want);

}  // namespace xfft
