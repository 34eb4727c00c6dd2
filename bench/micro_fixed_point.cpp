// Micro-benchmark: Q15 fixed-point FFT (the prior XMT work's arithmetic
// regime [18]) vs the single-precision float plan — SQNR and host
// throughput by size.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "xfft/dft_reference.hpp"
#include "xfft/fixed_point.hpp"
#include "xfft/plan1d.hpp"
#include "xutil/rng.hpp"
#include "xutil/string_util.hpp"
#include "xutil/table.hpp"

namespace {

std::vector<xfft::Cf> signal(std::size_t n) {
  xutil::Pcg32 rng(n * 13);
  std::vector<xfft::Cf> v(n);
  for (auto& x : v) {
    x = xfft::Cf(rng.next_signed_unit() * 0.5F,
                 rng.next_signed_unit() * 0.5F);
  }
  return v;
}

/// Milliseconds per call of `body`: best of three batches of `reps` calls.
template <typename F>
double best_ms(std::size_t reps, F&& body) {
  double best = 1e300;
  for (int batch = 0; batch < 3; ++batch) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0)
                                  .count() /
                              static_cast<double>(reps));
  }
  return best;
}

/// SQNR of the Q15 transform of `in` against the double-precision oracle,
/// which fft_q15's 1/N output scaling is applied to.
double q15_sqnr_db(const std::vector<xfft::Cf>& in) {
  const std::size_t n = in.size();
  auto q = xfft::to_q15(in);
  xfft::fft_q15(std::span<xfft::CQ15>(q), xfft::Direction::kForward);
  std::vector<xfft::Cd> ind(n);
  std::vector<xfft::Cd> want(n);
  for (std::size_t i = 0; i < n; ++i) {
    ind[i] = xfft::Cd{in[i].real(), in[i].imag()};
  }
  xfft::dft_reference(std::span<const xfft::Cd>(ind),
                      std::span<xfft::Cd>(want), xfft::Direction::kForward);
  for (auto& w : want) w /= static_cast<double>(n);
  return xfft::sqnr_db(q, 1.0, want);
}

}  // namespace

int main() {
  // The O(n^2) oracle bounds the SQNR column to the small sizes.
  constexpr std::size_t kMaxSqnrSize = 1 << 10;
  xutil::Table t("Q15 vs FLOAT FFT (forward, this CPU)");
  t.set_header({"n", "Q15 (ms)", "float Plan1D (ms)", "Q15 SQNR (dB)"});
  for (const std::size_t n : {1u << 6, 1u << 8, 1u << 10, 1u << 14, 1u << 16}) {
    const auto base = signal(n);
    const auto qbase = xfft::to_q15(base);
    const std::size_t reps = std::max<std::size_t>(4, (1u << 18) / n);

    auto q = qbase;
    const double q15_ms = best_ms(reps, [&] {
      q = qbase;
      xfft::fft_q15(std::span<xfft::CQ15>(q), xfft::Direction::kForward);
    });
    const xfft::Plan1D<float> plan(n, xfft::Direction::kForward);
    auto work = base;
    std::vector<xfft::Cf> scratch(plan.scratch_size());
    const double float_ms = best_ms(reps, [&] {
      work = base;
      plan.execute(std::span<xfft::Cf>(work), scratch);
    });
    t.add_row({std::to_string(n), xutil::format_fixed(q15_ms, 4),
               xutil::format_fixed(float_ms, 4),
               n <= kMaxSqnrSize ? xutil::format_fixed(q15_sqnr_db(base), 1)
                                 : "-"});
  }
  t.add_note("ms per transform, best of 3 batches, input copy included; "
             "SQNR against dft_reference (double, O(n^2)) up to n = " +
             std::to_string(kMaxSqnrSize));
  std::fputs(t.render().c_str(), stdout);
  return 0;
}
