#include "xfft/fixed_point.hpp"

#include <cmath>
#include <numbers>

#include "xutil/check.hpp"
#include "xutil/units.hpp"

namespace xfft {

namespace {

std::int16_t saturate(std::int32_t v) {
  if (v > 32767) return 32767;
  if (v < -32768) return -32768;
  return static_cast<std::int16_t>(v);
}

/// q15_half's rounding applied to the exact 32-bit sum or difference of two
/// Q15 values, so a butterfly scales before it saturates. Only the
/// difference 32767 - (-32768) has a half (32767.5) that still clips.
std::int16_t half_of(std::int32_t sum) {
  return saturate((sum + (sum >= 0 ? 1 : -1)) / 2);
}

/// (a + b) / 2 and (a - b) / 2, each formed from the exact 32-bit sum.
CQ15 half_sum(CQ15 a, CQ15 b) {
  return {Q15{half_of(std::int32_t{a.re.raw} + b.re.raw)},
          Q15{half_of(std::int32_t{a.im.raw} + b.im.raw)}};
}

CQ15 half_diff(CQ15 a, CQ15 b) {
  return {Q15{half_of(std::int32_t{a.re.raw} - b.re.raw)},
          Q15{half_of(std::int32_t{a.im.raw} - b.im.raw)}};
}

}  // namespace

Q15 Q15::from_double(double v) {
  const double scaled = std::round(v * 32768.0);
  if (scaled > 32767.0) return Q15{32767};
  if (scaled < -32768.0) return Q15{-32768};
  return Q15{static_cast<std::int16_t>(scaled)};
}

Q15 q15_add(Q15 a, Q15 b) {
  return Q15{saturate(static_cast<std::int32_t>(a.raw) + b.raw)};
}

Q15 q15_sub(Q15 a, Q15 b) {
  return Q15{saturate(static_cast<std::int32_t>(a.raw) - b.raw)};
}

Q15 q15_mul(Q15 a, Q15 b) {
  const std::int32_t p = static_cast<std::int32_t>(a.raw) * b.raw;
  return Q15{saturate((p + (1 << 14)) >> 15)};
}

Q15 q15_half(Q15 a) {
  // Round-to-nearest halving; keeps the DC path unbiased.
  return Q15{static_cast<std::int16_t>((a.raw + (a.raw >= 0 ? 1 : -1)) / 2)};
}

CQ15 cq15_mul(CQ15 a, CQ15 b) {
  // (ar + i ai)(br + i bi); intermediate 32-bit products, rounded once per
  // component to minimize noise.
  const std::int32_t rr = static_cast<std::int32_t>(a.re.raw) * b.re.raw -
                          static_cast<std::int32_t>(a.im.raw) * b.im.raw;
  const std::int32_t ii = static_cast<std::int32_t>(a.re.raw) * b.im.raw +
                          static_cast<std::int32_t>(a.im.raw) * b.re.raw;
  return {Q15{saturate((rr + (1 << 14)) >> 15)},
          Q15{saturate((ii + (1 << 14)) >> 15)}};
}

std::vector<CQ15> to_q15(std::span<const Cf> x) {
  std::vector<CQ15> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = {Q15::from_double(x[i].real()), Q15::from_double(x[i].imag())};
  }
  return out;
}

std::vector<Cf> from_q15(std::span<const CQ15> x) {
  std::vector<Cf> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = Cf(static_cast<float>(x[i].re.to_double()),
                static_cast<float>(x[i].im.to_double()));
  }
  return out;
}

void fft_q15(std::span<CQ15> data, Direction dir) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  XU_CHECK_MSG(xutil::is_pow2(n), "size must be a power of two, got " << n);

  // Q15 twiddle table for this size.
  const double sign = dir == Direction::kForward ? -1.0 : 1.0;
  std::vector<CQ15> tw(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double a =
        sign * 2.0 * std::numbers::pi * static_cast<double>(k) /
        static_cast<double>(n);
    tw[k] = {Q15::from_double(std::cos(a)), Q15::from_double(std::sin(a))};
  }

  // Radix-2 DIF with per-stage halving: y0 = (a+b)/2; y1 = ((a-b)/2) * w.
  std::size_t block = n;
  while (block >= 2) {
    const std::size_t sub = block / 2;
    const std::size_t tw_stride = n / block;
    for (std::size_t base = 0; base < n; base += block) {
      for (std::size_t j = 0; j < sub; ++j) {
        const CQ15 a = data[base + j];
        const CQ15 b = data[base + j + sub];
        data[base + j] = half_sum(a, b);
        data[base + j + sub] = cq15_mul(half_diff(a, b), tw[j * tw_stride]);
      }
    }
    block = sub;
  }

  // Bit-reversal reorder to natural frequency order.
  const unsigned bits = xutil::log2_exact(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (unsigned b = 0; b < bits; ++b) r = (r << 1) | ((i >> b) & 1u);
    if (r > i) std::swap(data[i], data[r]);
  }
}

double sqnr_db(std::span<const CQ15> got, double scale,
               std::span<const Cd> want) {
  XU_CHECK(got.size() == want.size());
  double sig = 0.0;
  double noise = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    sig += std::norm(want[i]);
    const Cd g{got[i].re.to_double() * scale, got[i].im.to_double() * scale};
    noise += std::norm(g - want[i]);
  }
  if (noise == 0.0) return 300.0;  // exact
  return 10.0 * std::log10(sig / noise);
}

}  // namespace xfft
