#include "probes.hpp"

#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "stats.hpp"

namespace perfbench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

double probe_memcpy_gbps(std::size_t bytes, int reps) {
  const std::unique_ptr<char[]> src(new char[bytes]);
  const std::unique_ptr<char[]> dst(new char[bytes]);
  std::memset(src.get(), 1, bytes);  // fault every page in before timing
  std::memset(dst.get(), 2, bytes);
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::memcpy(dst.get(), src.get(), bytes);
    const double t = seconds_since(t0);
    rates.push_back(2.0 * static_cast<double>(bytes) / t / 1e9);
    src[static_cast<std::size_t>(r)] = dst[bytes - 1];  // the copy is read
  }
  return median(rates);
}

double probe_peak_gflops(int reps) {
  // 64 independent multiply-add chains: enough to cover FP latency, and
  // the compiler vectorizes the inner loop at the library's own flags.
  constexpr int kLanes = 64;
  constexpr long kIters = 4'000'000;
  volatile float seed = 0.999999f;
  const float m = seed;
  const float a = 1e-7f;
  std::vector<double> rates;
  float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    float acc[kLanes];
    for (int k = 0; k < kLanes; ++k) acc[k] = static_cast<float>(k);
    const auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < kIters; ++i) {
      for (int k = 0; k < kLanes; ++k) acc[k] = acc[k] * m + a;
    }
    const double t = seconds_since(t0);
    for (const float v : acc) sink += v;
    rates.push_back(2.0 * kLanes * static_cast<double>(kIters) / t / 1e9);
  }
  seed = sink;  // keeps the loops observable
  return median(rates);
}

}  // namespace perfbench
