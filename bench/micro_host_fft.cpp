// Google-benchmark micro-benchmarks of the host FFT library: plans,
// engines, multi-dimensional transforms, and real-input transforms.
#include <benchmark/benchmark.h>

#include <vector>

#include "xfft/engines.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/plan1d.hpp"
#include "xfft/real.hpp"
#include "xutil/rng.hpp"

namespace {

std::vector<xfft::Cf> signal(std::size_t n) {
  xutil::Pcg32 rng(n);
  std::vector<xfft::Cf> v(n);
  for (auto& x : v) {
    x = xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
  }
  return v;
}

void BM_Plan1D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto radix = static_cast<unsigned>(state.range(1));
  xfft::Plan1D<float> plan(n, xfft::Direction::kForward,
                           xfft::PlanOptions{.max_radix = radix});
  auto data = signal(n);
  std::vector<xfft::Cf> scratch(n);
  for (auto _ : state) {
    plan.execute(std::span<xfft::Cf>(data), scratch);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["std_gflops"] = benchmark::Counter(
      xfft::standard_fft_flops(n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Plan1D)
    ->Args({1 << 10, 8})
    ->Args({1 << 14, 8})
    ->Args({1 << 17, 8})
    ->Args({1 << 17, 4})
    ->Args({1 << 17, 2});

void BM_EngineStockham(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto data = signal(n);
  for (auto _ : state) {
    xfft::fft_stockham(std::span<xfft::Cf>(data), xfft::Direction::kForward);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_EngineStockham)->Arg(1 << 14)->Arg(1 << 17);

void BM_EngineRecursiveDit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto data = signal(n);
  for (auto _ : state) {
    xfft::fft_radix2_dit_recursive(std::span<xfft::Cf>(data),
                                   xfft::Direction::kForward);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_EngineRecursiveDit)->Arg(1 << 14)->Arg(1 << 17);

void BM_EngineFourStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto data = signal(n);
  for (auto _ : state) {
    xfft::fft_four_step(std::span<xfft::Cf>(data), xfft::Direction::kForward,
                        4096);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_EngineFourStep)->Arg(1 << 14)->Arg(1 << 17);

void BM_Plan3D(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const bool fused = state.range(1) != 0;
  const xfft::Dims3 dims{side, side, side};
  xfft::PlanND<float> plan(
      dims, xfft::Direction::kForward,
      xfft::PlanND<float>::Options{
          .rotation = fused ? xfft::RotationMode::kFusedRotation
                            : xfft::RotationMode::kSeparate});
  auto data = signal(dims.total());
  for (auto _ : state) {
    plan.execute(std::span<xfft::Cf>(data));
    benchmark::DoNotOptimize(data.data());
  }
  state.counters["std_gflops"] = benchmark::Counter(
      xfft::standard_fft_flops(dims.total()) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Plan3D)->Args({32, 1})->Args({32, 0})->Args({64, 1})->Args({64, 0});

void BM_Rfft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> in(n);
  xutil::Pcg32 rng(n);
  for (auto& x : in) x = rng.next_signed_unit();
  std::vector<xfft::Cf> out(xfft::rfft_bins(n));
  for (auto _ : state) {
    xfft::rfft_forward(in, std::span<xfft::Cf>(out));
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Rfft)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
