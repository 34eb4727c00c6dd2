// End-to-end determinism across thread counts: the same FFT and the same
// fuzzing campaign must produce byte-identical results on a 1-, 2- and
// 8-thread global pool. This is the contract that lets --threads be a pure
// performance knob everywhere in the repository.
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xcheck/fuzzer.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/plan_cache.hpp"
#include "xpar/pool.hpp"
#include "xutil/rng.hpp"

namespace {

std::vector<xfft::Cf> random_signal(std::size_t n, std::uint64_t seed) {
  std::vector<xfft::Cf> data(n);
  xutil::Pcg32 rng(seed);
  for (auto& v : data) {
    v = xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
  }
  return data;
}

class GlobalPoolSweep : public ::testing::Test {
 protected:
  // Every test restores the default pool so suites sharing the process are
  // unaffected by the sweep.
  void TearDown() override { xpar::ThreadPool::set_global_threads(0); }
};

TEST_F(GlobalPoolSweep, FftNdBytesIdenticalAt1_2_8Threads) {
  const xfft::Dims3 dims{32, 16, 8};
  const auto input = random_signal(dims.total(), 7);
  for (const auto rotation :
       {xfft::RotationMode::kFusedRotation, xfft::RotationMode::kSeparate}) {
    const xfft::PlanND<float> plan(
        dims, xfft::Direction::kForward,
        {.max_radix = 8, .scaling = xfft::Scaling::kUnitary1OverN,
         .rotation = rotation});
    std::vector<std::vector<xfft::Cf>> outs;
    for (const unsigned threads : {1u, 2u, 8u}) {
      xpar::ThreadPool::set_global_threads(threads);
      auto data = input;
      plan.execute(std::span<xfft::Cf>(data));
      outs.push_back(std::move(data));
    }
    for (std::size_t i = 1; i < outs.size(); ++i) {
      ASSERT_EQ(outs[0].size(), outs[i].size());
      EXPECT_EQ(std::memcmp(outs[0].data(), outs[i].data(),
                            outs[0].size() * sizeof(xfft::Cf)),
                0);
    }
  }
}

TEST_F(GlobalPoolSweep, InverseFftBytesIdenticalAcrossThreadCounts) {
  const xfft::Dims3 dims{64, 8, 4};
  const auto input = random_signal(dims.total(), 21);
  const xfft::PlanND<float> plan(dims, xfft::Direction::kInverse);
  std::vector<std::vector<xfft::Cf>> outs;
  for (const unsigned threads : {1u, 8u}) {
    xpar::ThreadPool::set_global_threads(threads);
    auto data = input;
    plan.execute(std::span<xfft::Cf>(data));
    outs.push_back(std::move(data));
  }
  EXPECT_EQ(std::memcmp(outs[0].data(), outs[1].data(),
                        outs[0].size() * sizeof(xfft::Cf)),
            0);
}

TEST_F(GlobalPoolSweep, FuzzReportByteIdenticalAcrossThreadCounts) {
  xcheck::FuzzOptions opt;
  opt.seed = 3;
  opt.trials = 12;
  std::vector<std::string> reports;
  for (const unsigned threads : {1u, 2u, 8u}) {
    xpar::ThreadPool::set_global_threads(threads);
    reports.push_back(xcheck::run_fuzz(opt).report);
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

// PlanCache hands every caller the same Plan1D instance, so executing it
// from several threads at once must be safe: each output equals, byte for
// byte, the output of a plan private to the thread.
TEST(Plan1D, SharedCachedPlanIsSafeAcrossThreads) {
  constexpr std::size_t kN = 4096;
  constexpr int kThreads = 4;
  constexpr int kCalls = 300;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      const xfft::Plan1D<float> own(kN, xfft::Direction::kForward);
      for (int i = 0; i < kCalls; ++i) {
        auto shared = random_signal(kN, 1000 * static_cast<std::uint64_t>(t) +
                                            static_cast<std::uint64_t>(i));
        auto want = shared;
        xfft::fft_cached(std::span<xfft::Cf>(shared),
                         xfft::Direction::kForward);
        own.execute(std::span<xfft::Cf>(want));
        if (std::memcmp(shared.data(), want.data(),
                        kN * sizeof(xfft::Cf)) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "of " << kThreads * kCalls << " shared-plan transforms";
}

}  // namespace
