// Tests for the XMTC programming-model runtime and the FFT written in it.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "../fft/test_helpers.hpp"
#include "xfft/detail/narrow_lanes.hpp"
#include "xfft/fftnd.hpp"
#include "xmtc/fft_xmtc.hpp"
#include "xmtc/runtime.hpp"
#include "xutil/check.hpp"

namespace {

using xfft::Cf;
using xfft::Dims3;
using xfft::Direction;
using xfft_test::random_signal;
using xfft_test::relative_max_error;
using xfft_test::tol_f;

TEST(Runtime, SpawnRunsEveryIdOnce) {
  xmtc::Runtime rt;
  std::vector<int> hits(100, 0);
  rt.spawn(0, 99, [&](xmtc::Thread& t) { ++hits[t.id()]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(rt.threads_run(), 100u);
  EXPECT_EQ(rt.spawns(), 1u);
}

TEST(Runtime, SpawnRangeIsInclusiveAndMayBeEmpty) {
  xmtc::Runtime rt;
  int count = 0;
  rt.spawn(5, 5, [&](xmtc::Thread&) { ++count; });
  EXPECT_EQ(count, 1);
  rt.spawn(3, 2, [&](xmtc::Thread&) { ++count; });
  EXPECT_EQ(count, 1);  // empty range: broadcast, immediate join
  EXPECT_EQ(rt.spawns(), 2u);
}

TEST(Runtime, PrefixSumAllocatesDisjointSlots) {
  // The canonical XMT idiom: array compaction with ps.
  xmtc::Runtime rt;
  std::int64_t cursor = 0;
  std::vector<std::int64_t> out(50, -1);
  rt.spawn(0, 99, [&](xmtc::Thread& t) {
    if (t.id() % 2 == 0) {
      const std::int64_t slot = t.ps(cursor, 1);
      out[static_cast<std::size_t>(slot)] = t.id();
    }
  });
  EXPECT_EQ(cursor, 50);
  // Slots are disjoint and cover exactly the even ids.
  std::vector<std::int64_t> sorted = out;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sorted[i], static_cast<std::int64_t>(2 * i));
  }
  EXPECT_EQ(rt.ps_ops(), 50u);
}

TEST(Runtime, PsmOnMemoryWord) {
  xmtc::Runtime rt;
  std::int64_t word = 10;
  std::int64_t seen_sum = 0;
  rt.spawn(0, 9, [&](xmtc::Thread& t) { seen_sum += t.psm(word, 2); });
  EXPECT_EQ(word, 30);
  // Returned values are 10, 12, ..., 28 in some order.
  EXPECT_EQ(seen_sum, (10 + 28) * 10 / 2);
}

TEST(Runtime, SspawnExtendsTheCurrentSection) {
  xmtc::Runtime rt;
  std::vector<std::int64_t> ids;
  rt.spawn(0, 3, [&](xmtc::Thread& t) {
    ids.push_back(t.id());
    if (t.id() == 2) {
      t.sspawn([&](xmtc::Thread& nested) { ids.push_back(nested.id()); });
    }
  });
  // Nested thread gets ID 4 (next unused) and runs before the join.
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids.back(), 4);
  EXPECT_EQ(rt.threads_run(), 5u);
}

TEST(Runtime, SspawnMayNestRecursively) {
  xmtc::Runtime rt;
  int depth_hits = 0;
  rt.spawn(0, 0, [&](xmtc::Thread& t) {
    t.sspawn([&](xmtc::Thread& t1) {
      ++depth_hits;
      t1.sspawn([&](xmtc::Thread&) { ++depth_hits; });
    });
  });
  EXPECT_EQ(depth_hits, 2);
}

// ---------------------------------------------------------------------------
// The FFT written in XMTC.
// ---------------------------------------------------------------------------

class XmtcFft1D : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XmtcFft1D, MatchesPlanLibraryExactly) {
  const std::size_t n = GetParam();
  const auto input = random_signal(n, n + 77);

  for (const auto dir : {Direction::kForward, Direction::kInverse}) {
    auto a = input;
    xmtc::Runtime rt;
    xmtc::fft1d_xmtc(rt, std::span<Cf>(a), dir);

    // Same butterflies, same twiddles (the replicated table holds replicas
    // of the identical master roots): bit-for-bit agreement expected, with
    // one XMT thread per butterfly on one side and lane-batched butterflies
    // on the other, at the host's lane width and at the baseline width.
    for (const auto& plan :
         {xfft::Plan1D<float>(n, dir),
          xfft::detail::NarrowLanes::plan_1d<float>(n, dir)}) {
      auto b = input;
      plan.execute(std::span<Cf>(b));
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(Cf)), 0)
            << "lanes=" << plan.lanes() << " dir=" << static_cast<int>(dir)
            << " i=" << i << ": " << a[i] << " vs " << b[i];
      }
    }
  }
}

TEST_P(XmtcFft1D, InverseRoundTrips) {
  const std::size_t n = GetParam();
  const auto input = random_signal(n, n + 78);
  auto x = input;
  xmtc::Runtime rt;
  xmtc::fft1d_xmtc(rt, std::span<Cf>(x), Direction::kForward);
  xmtc::fft1d_xmtc(rt, std::span<Cf>(x), Direction::kInverse);
  EXPECT_LT((relative_max_error<Cf, Cf>(x, input)), tol_f(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, XmtcFft1D,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512,
                                           1024, 2048, 4096, 16384, 24, 60,
                                           768, 1000));

TEST(XmtcFftND, MatchesPlanNDOn3D) {
  const Dims3 dims{16, 8, 4};
  const auto input = random_signal(dims.total(), 5);

  auto a = input;
  xmtc::Runtime rt;
  xmtc::fftnd_xmtc(rt, std::span<Cf>(a), dims, Direction::kForward);

  auto b = input;
  xfft::PlanND<float> plan(dims, Direction::kForward);
  plan.execute(std::span<Cf>(b));

  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "i=" << i;
  }
}

TEST(XmtcFftND, RoundTrip3D) {
  const Dims3 dims{8, 8, 8};
  const auto input = random_signal(dims.total(), 6);
  auto x = input;
  xmtc::Runtime rt;
  xmtc::fftnd_xmtc(rt, std::span<Cf>(x), dims, Direction::kForward);
  xmtc::fftnd_xmtc(rt, std::span<Cf>(x), dims, Direction::kInverse);
  EXPECT_LT((relative_max_error<Cf, Cf>(x, input)), tol_f(dims.total()));
}

TEST(XmtcFftND, StatsReflectBreadthFirstStructure) {
  const Dims3 dims{64, 64, 64};
  std::vector<Cf> x(dims.total(), Cf{1.0F, 0.0F});
  xmtc::Runtime rt;
  const auto stats =
      xmtc::fftnd_xmtc(rt, std::span<Cf>(x), dims, Direction::kForward);
  // 64 = 8^2: two iterations per dimension (6 spawns) plus the final
  // copy-back pass.
  EXPECT_EQ(stats.spawns, 7u);
  // One decimation per dimension (between its two iterations).
  EXPECT_EQ(stats.table_decimations, 3u);
  // 6 iterations x (N/8 threads) + N copy threads.
  const std::uint64_t n = dims.total();
  EXPECT_EQ(stats.threads, 6 * (n / 8) + n);
  // 7 twiddles per butterfly.
  EXPECT_EQ(stats.twiddle_reads, 6 * (n / 8) * 7);
}

TEST(XmtcFftND, Rank2AgreesWithOracle) {
  const Dims3 dims{32, 16, 1};
  auto x = random_signal(dims.total(), 9);
  auto want = x;
  xfft::PlanND<float> plan(dims, Direction::kForward);
  plan.execute(std::span<Cf>(want));
  xmtc::Runtime rt;
  xmtc::fftnd_xmtc(rt, std::span<Cf>(x), dims, Direction::kForward);
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(dims.total()));
}

}  // namespace
