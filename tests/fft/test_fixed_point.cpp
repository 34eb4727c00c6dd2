// Tests for the Q15 fixed-point FFT (the arithmetic regime of the prior
// XMT FFT work [18] the paper contrasts itself against).
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "xfft/dft_reference.hpp"
#include "xfft/fixed_point.hpp"
#include "xutil/check.hpp"
#include "xutil/rng.hpp"

namespace {

using xfft::CQ15;
using xfft::Direction;
using xfft::Q15;

TEST(Q15, ConversionRoundTrip) {
  for (const double v : {0.0, 0.5, -0.5, 0.999, -1.0, 0.123456}) {
    EXPECT_NEAR(Q15::from_double(v).to_double(), v, 1.0 / 32768.0);
  }
  // Saturation at the rails.
  EXPECT_EQ(Q15::from_double(1.5).raw, 32767);
  EXPECT_EQ(Q15::from_double(-2.0).raw, -32768);
}

TEST(Q15, SaturatingArithmetic) {
  const Q15 big = Q15::from_double(0.9);
  EXPECT_EQ(xfft::q15_add(big, big).raw, 32767);          // clamps
  EXPECT_EQ(xfft::q15_sub(Q15::from_double(-0.9), big).raw, -32768);
  // Multiplication of fractions never overflows.
  EXPECT_NEAR(xfft::q15_mul(Q15::from_double(0.5), Q15::from_double(0.5))
                  .to_double(),
              0.25, 1e-4);
  EXPECT_NEAR(xfft::q15_mul(Q15::from_double(-0.5), Q15::from_double(0.5))
                  .to_double(),
              -0.25, 1e-4);
}

TEST(Q15, HalvingRoundsAwayFromZero) {
  EXPECT_EQ(xfft::q15_half(Q15{3}).raw, 2);
  EXPECT_EQ(xfft::q15_half(Q15{-3}).raw, -2);
  EXPECT_EQ(xfft::q15_half(Q15{4}).raw, 2);
  EXPECT_EQ(xfft::q15_half(Q15{0}).raw, 0);
}

TEST(Q15, ComplexMultiplyMatchesFloat) {
  const CQ15 a{Q15::from_double(0.3), Q15::from_double(-0.4)};
  const CQ15 b{Q15::from_double(0.7), Q15::from_double(0.2)};
  const auto got = xfft::cq15_mul(a, b);
  // (0.3 - 0.4i)(0.7 + 0.2i) = 0.29 - 0.22i
  EXPECT_NEAR(got.re.to_double(), 0.29, 1e-3);
  EXPECT_NEAR(got.im.to_double(), -0.22, 1e-3);
}

/// SQNR of fft_q15 on `input` against the double-precision oracle X[k]/n.
double q15_sqnr_db(const std::vector<xfft::Cf>& input) {
  const std::size_t n = input.size();
  auto q = xfft::to_q15(input);
  xfft::fft_q15(std::span<CQ15>(q), Direction::kForward);
  std::vector<xfft::Cd> want(n);
  std::vector<xfft::Cd> in_d(n);
  for (std::size_t i = 0; i < n; ++i) {
    in_d[i] = xfft::Cd{input[i].real(), input[i].imag()};
  }
  xfft::dft_reference(std::span<const xfft::Cd>(in_d), std::span<xfft::Cd>(want),
                      Direction::kForward);
  for (auto& w : want) w /= static_cast<double>(n);
  return xfft::sqnr_db(q, 1.0, want);
}

class FixedFftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FixedFftSizes, MatchesOracleWithHighSqnr) {
  const std::size_t n = GetParam();
  const auto input = xfft_test::random_signal(n, n + 1000);
  // Scale inputs into a safe Q15 range.
  std::vector<xfft::Cf> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = input[i] * 0.5F;

  const double sqnr = q15_sqnr_db(scaled);
  // Q15 with per-stage scaling loses ~0.5 bit per stage; 45 dB is a safe
  // floor for these sizes and would be wildly violated by any algorithmic
  // error (which produces SQNR near 0 dB).
  EXPECT_GT(sqnr, 45.0) << "n=" << n << " sqnr=" << sqnr;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FixedFftSizes,
                         ::testing::Values(4, 8, 16, 64, 256, 1024));

TEST(FixedFft, ButterflyHalvesBeforeItSaturates) {
  // micro_fixed_point's n = 256 signal: one stage-1 sum (-35485) leaves the
  // Q15 range. Halving the exact 32-bit sum keeps it; saturating first
  // clipped it and cost ~20 dB of SQNR.
  const std::size_t n = 256;
  xutil::Pcg32 rng(3328);
  std::vector<xfft::Cf> input(n);
  for (auto& x : input) {
    x = xfft::Cf(rng.next_signed_unit() * 0.5F, rng.next_signed_unit() * 0.5F);
  }
  EXPECT_GE(q15_sqnr_db(input), 50.0);
}

TEST(FixedFft, ImpulseGivesFlatSpectrum) {
  const std::size_t n = 64;
  std::vector<CQ15> x(n, CQ15{});
  x[0] = {Q15::from_double(0.9), Q15{0}};
  xfft::fft_q15(std::span<CQ15>(x), Direction::kForward);
  // X[k]/n = 0.9/64 for all k.
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].re.to_double(), 0.9 / 64.0, 2e-3) << "k=" << k;
    EXPECT_NEAR(x[k].im.to_double(), 0.0, 2e-3) << "k=" << k;
  }
}

TEST(FixedFft, ForwardInverseRoundTripWithinQuantization) {
  const std::size_t n = 256;
  const auto input = xfft_test::random_signal(n, 777);
  std::vector<xfft::Cf> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = input[i] * 0.4F;

  auto q = xfft::to_q15(scaled);
  xfft::fft_q15(std::span<CQ15>(q), Direction::kForward);   // X/n
  xfft::fft_q15(std::span<CQ15>(q), Direction::kInverse);   // x/n^... -> x/n
  // forward scales by 1/n, inverse (unnormalized sum, also /n) returns
  // exactly x/n^0 * (1/n) * n / n = x / n. So compare against scaled/n...
  // Actually: fwd gives X/n; inv of X is n*x, halved per stage -> x; so
  // the round trip returns x/n * ... — verify empirically against x/1:
  const auto back = xfft::from_q15(q);
  // Both passes halve every stage, so the round trip returns x/n. Verify
  // shape agreement with error measured relative to the (small) round-trip
  // amplitude — an algorithmic error would blow well past 10%.
  const double gain = 1.0 / static_cast<double>(n);
  double max_mag = 0.0;
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_mag = std::max(max_mag,
                       static_cast<double>(std::abs(scaled[i])) * gain);
    max_err = std::max(
        max_err,
        static_cast<double>(std::abs(
            back[i] - scaled[i] * static_cast<float>(gain))));
  }
  EXPECT_LT(max_err / max_mag, 0.10);
}

TEST(FixedFft, NeverOverflowsEvenAtFullScale) {
  // Adversarial full-scale square wave: per-stage halving must keep every
  // intermediate in range (saturation would distort the spectrum shape).
  const std::size_t n = 512;
  std::vector<CQ15> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = (i / 8) % 2 == 0 ? 0.999 : -0.999;
    x[i] = {Q15::from_double(v), Q15::from_double(-v)};
  }
  xfft::fft_q15(std::span<CQ15>(x), Direction::kForward);
  // DC of this waveform is 0; the fundamental lives at n/16.
  EXPECT_NEAR(x[0].re.to_double(), 0.0, 2e-2);
  EXPECT_GT(std::abs(x[n / 16].re.to_double()), 0.1);
}

TEST(FixedFft, RejectsNonPowerOfTwo) {
  std::vector<CQ15> x(12);
  EXPECT_THROW(xfft::fft_q15(std::span<CQ15>(x), Direction::kForward),
               xutil::Error);
}

}  // namespace
