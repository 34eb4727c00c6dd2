// Micro-benchmark: Q15 fixed-point FFT (the prior XMT work's arithmetic
// regime [18]) vs the single-precision float plan — SQNR and host
// throughput by size.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "xfft/dft_reference.hpp"
#include "xfft/fixed_point.hpp"
#include "xfft/plan1d.hpp"
#include "xutil/rng.hpp"

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

void BM_FixedPointFft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = xfft::to_q15(signal(n));
  auto work = base;
  for (auto _ : state) {
    work = base;
    xfft::fft_q15(std::span<xfft::CQ15>(work), xfft::Direction::kForward);
    benchmark::DoNotOptimize(work.data());
  }
}
BENCHMARK(BM_FixedPointFft)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_FloatFft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  xfft::Plan1D<float> plan(n, xfft::Direction::kForward);
  auto work = signal(n);
  std::vector<xfft::Cf> scratch(plan.scratch_size());
  for (auto _ : state) {
    plan.execute(std::span<xfft::Cf>(work), scratch);
    benchmark::DoNotOptimize(work.data());
  }
}
BENCHMARK(BM_FloatFft)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_Q15SqnrReport(benchmark::State& state) {
  // Not a speed benchmark: reports the SQNR of the Q15 transform as a
  // counter so the precision/size trade-off appears in the bench output.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto in = signal(n);
  double sqnr = 0.0;
  for (auto _ : state) {
    auto q = xfft::to_q15(in);
    xfft::fft_q15(std::span<xfft::CQ15>(q), xfft::Direction::kForward);
    std::vector<xfft::Cd> want(n);
    std::vector<xfft::Cd> ind(n);
    for (std::size_t i = 0; i < n; ++i) {
      ind[i] = xfft::Cd{in[i].real(), in[i].imag()};
    }
    xfft::dft_reference(std::span<const xfft::Cd>(ind),
                        std::span<xfft::Cd>(want), xfft::Direction::kForward);
    for (auto& w : want) w /= static_cast<double>(n);
    sqnr = xfft::sqnr_db(q, 1.0, want);
    benchmark::DoNotOptimize(sqnr);
  }
  state.counters["sqnr_db"] = sqnr;
}
BENCHMARK(BM_Q15SqnrReport)->Arg(1 << 6)->Arg(1 << 8)->Arg(1 << 10)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
