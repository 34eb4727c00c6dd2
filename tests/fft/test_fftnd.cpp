// Tests for multi-dimensional plans, axis rotation, and the fused-rotation
// path (the paper's Section IV algorithm).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>

#include "test_helpers.hpp"
#include "xfft/dft_reference.hpp"
#include "xfft/fftnd.hpp"
#include "xpar/pool.hpp"
#include "xutil/cancel.hpp"
#include "xutil/check.hpp"

namespace {

using xfft::Cd;
using xfft::Cf;
using xfft::Dims3;
using xfft::Direction;
using xfft::Plan1D;
using xfft::PlanND;
using xfft::RotationMode;
using xfft::Scaling;
using xfft_test::random_signal;
using xfft_test::relative_max_error;
using xfft_test::tol_f;

std::vector<Cf> oracle_3d(std::span<const Cf> in, Dims3 dims, Direction dir) {
  std::vector<Cd> tmp_in(in.size());
  std::vector<Cd> tmp_out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    tmp_in[i] = Cd{in[i].real(), in[i].imag()};
  }
  xfft::dft_reference_3d(tmp_in, std::span<Cd>(tmp_out), dims, dir);
  std::vector<Cf> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = Cf{static_cast<float>(tmp_out[i].real()),
                static_cast<float>(tmp_out[i].imag())};
  }
  return out;
}

TEST(RotateAxes, TransposesA2DArray) {
  // 3x2 array (nx=3, ny=2): rotation = transpose.
  const Dims3 dims{3, 2, 1};
  std::vector<Cf> src(6);
  for (std::size_t i = 0; i < 6; ++i) src[i] = Cf(static_cast<float>(i), 0.0F);
  std::vector<Cf> dst(6);
  xfft::rotate_axes(std::span<const Cf>(src), std::span<Cf>(dst), dims);
  // src[y][x]; dst[x][y] with y fastest: dst[x*2+y] = src[y*3+x].
  for (std::size_t y = 0; y < 2; ++y) {
    for (std::size_t x = 0; x < 3; ++x) {
      EXPECT_EQ(dst[x * 2 + y], src[y * 3 + x]);
    }
  }
}

TEST(RotateAxes, ThreeRotationsRestoreOriginalLayout) {
  const Dims3 d0{4, 3, 2};
  const auto original = random_signal(d0.total(), 21);
  std::vector<Cf> a(original.begin(), original.end());
  std::vector<Cf> b(a.size());
  Dims3 cur = d0;
  for (int pass = 0; pass < 3; ++pass) {
    xfft::rotate_axes(std::span<const Cf>(a), std::span<Cf>(b), cur);
    std::swap(a, b);
    cur = Dims3{cur.ny, cur.nz, cur.nx};
  }
  EXPECT_EQ(cur, d0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], original[i]) << "i=" << i;
  }
}

TEST(RotateAxes, SingleAxisIsIdentity) {
  const Dims3 dims{8, 1, 1};
  const auto src = random_signal(8, 3);
  std::vector<Cf> dst(8);
  xfft::rotate_axes(std::span<const Cf>(src), std::span<Cf>(dst), dims);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(dst[i], src[i]);
}

TEST(RotateAxes, MatchesNaiveTripleLoopOnOddDims) {
  // Row counts that are not a multiple of the tile width, plus unit axes.
  for (const Dims3 dims : {Dims3{5, 7, 3}, Dims3{9, 9, 9}, Dims3{17, 3, 11},
                           Dims3{16, 1, 9}, Dims3{1, 12, 6}}) {
    const auto src = random_signal(dims.total(), dims.total());
    std::vector<Cf> want(src.size());
    for (std::size_t i2 = 0; i2 < dims.nz; ++i2) {
      for (std::size_t i1 = 0; i1 < dims.ny; ++i1) {
        for (std::size_t i0 = 0; i0 < dims.nx; ++i0) {
          want[(i0 * dims.nz + i2) * dims.ny + i1] =
              src[(i2 * dims.ny + i1) * dims.nx + i0];
        }
      }
    }
    std::vector<Cf> got(src.size());
    xfft::rotate_axes(std::span<const Cf>(src), std::span<Cf>(got), dims);
    EXPECT_EQ(got, want) << dims.nx << "x" << dims.ny << "x" << dims.nz;
  }
}

struct NdCase {
  Dims3 dims;
  RotationMode mode;
};

/// Prints a case as e.g. "8x8x1_fused". CMake's gtest discovery names
/// each ctest entry after the printed parameter, so the names stay stable
/// (the default printer dumps the struct's bytes, padding included).
void PrintTo(const NdCase& c, std::ostream* os) {
  *os << c.dims.nx << 'x' << c.dims.ny << 'x' << c.dims.nz
      << (c.mode == RotationMode::kFusedRotation ? "_fused" : "_separate");
}

class PlanNDSweep : public ::testing::TestWithParam<NdCase> {};

TEST_P(PlanNDSweep, ForwardMatchesOracle) {
  const auto [dims, mode] = GetParam();
  auto x = random_signal(dims.total(), dims.total());
  const auto want = oracle_3d(x, dims, Direction::kForward);
  PlanND<float> plan(dims, Direction::kForward,
                     PlanND<float>::Options{.rotation = mode});
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(dims.total()));
}

TEST_P(PlanNDSweep, RoundTripIsIdentity) {
  const auto [dims, mode] = GetParam();
  const auto original = random_signal(dims.total(), dims.total() + 7);
  auto x = original;
  PlanND<float> fwd(dims, Direction::kForward,
                    PlanND<float>::Options{.rotation = mode});
  PlanND<float> inv(dims, Direction::kInverse,
                    PlanND<float>::Options{.rotation = mode});
  fwd.execute(std::span<Cf>(x));
  inv.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, original)), tol_f(dims.total()));
}

/// PlanND's fused forward transform replayed one row at a time through
/// Plan1D::execute_scatter_affine: frequency k of row r lands at
/// r + k*rows. A unit axis only relabels the layout, so its rotation is a
/// copy.
std::vector<Cf> per_row_fused_reference(std::vector<Cf> a, Dims3 dims) {
  std::vector<Cf> b(a.size());
  for (const std::size_t len : {dims.nx, dims.ny, dims.nz}) {
    if (len > 1) {
      const Plan1D<float> plan(len, Direction::kForward);
      const std::size_t rows = a.size() / len;
      for (std::size_t row = 0; row < rows; ++row) {
        plan.execute_scatter_affine(std::span<Cf>(a).subspan(row * len, len),
                                    std::span<Cf>(b), row, rows);
      }
    } else {
      b = a;
    }
    std::swap(a, b);
  }
  return a;
}

TEST_P(PlanNDSweep, BytesMatchPerRowReferenceAtPoolSizes1_2_4) {
  // Both modes reproduce the one-row-at-a-time fused transform byte for
  // byte whatever the pool size, so tiling never changes an answer (and
  // fused equals separate exactly).
  const auto [dims, mode] = GetParam();
  const auto input = random_signal(dims.total(), dims.total() + 3);
  const auto want = per_row_fused_reference(input, dims);
  const PlanND<float> plan(dims, Direction::kForward,
                           PlanND<float>::Options{.rotation = mode});
  for (const unsigned threads : {1u, 2u, 4u}) {
    xpar::ThreadPool::set_global_threads(threads);
    auto x = input;
    plan.execute(std::span<Cf>(x));
    EXPECT_EQ(std::memcmp(x.data(), want.data(), x.size() * sizeof(Cf)), 0)
        << threads << " threads";
  }
  xpar::ThreadPool::set_global_threads(0);
}

INSTANTIATE_TEST_SUITE_P(
    Separate, PlanNDSweep,
    ::testing::Values(NdCase{{8, 8, 1}, RotationMode::kSeparate},
                      NdCase{{16, 4, 1}, RotationMode::kSeparate},
                      NdCase{{4, 16, 1}, RotationMode::kSeparate},
                      NdCase{{8, 8, 8}, RotationMode::kSeparate},
                      NdCase{{16, 8, 4}, RotationMode::kSeparate},
                      NdCase{{4, 4, 32}, RotationMode::kSeparate},
                      NdCase{{32, 32, 1}, RotationMode::kSeparate},
                      NdCase{{16, 16, 16}, RotationMode::kSeparate}));

INSTANTIATE_TEST_SUITE_P(
    Fused, PlanNDSweep,
    ::testing::Values(NdCase{{8, 8, 1}, RotationMode::kFusedRotation},
                      NdCase{{16, 4, 1}, RotationMode::kFusedRotation},
                      NdCase{{4, 16, 1}, RotationMode::kFusedRotation},
                      NdCase{{8, 8, 8}, RotationMode::kFusedRotation},
                      NdCase{{16, 8, 4}, RotationMode::kFusedRotation},
                      NdCase{{4, 4, 32}, RotationMode::kFusedRotation},
                      NdCase{{32, 32, 1}, RotationMode::kFusedRotation},
                      NdCase{{16, 16, 16}, RotationMode::kFusedRotation}));

INSTANTIATE_TEST_SUITE_P(
    NonPowerOfTwo, PlanNDSweep,
    ::testing::Values(NdCase{{12, 6, 1}, RotationMode::kFusedRotation},
                      NdCase{{6, 10, 3}, RotationMode::kSeparate},
                      NdCase{{9, 9, 9}, RotationMode::kFusedRotation}));

// Row counts that are not a multiple of the rotation tile width (some
// passes have fewer rows than one tile), and unit axes.
INSTANTIATE_TEST_SUITE_P(
    TileEdges, PlanNDSweep,
    ::testing::Values(NdCase{{5, 7, 3}, RotationMode::kFusedRotation},
                      NdCase{{5, 7, 3}, RotationMode::kSeparate},
                      NdCase{{12, 6, 5}, RotationMode::kFusedRotation},
                      NdCase{{12, 6, 5}, RotationMode::kSeparate},
                      NdCase{{9, 9, 9}, RotationMode::kSeparate},
                      NdCase{{16, 1, 9}, RotationMode::kFusedRotation},
                      NdCase{{16, 1, 9}, RotationMode::kSeparate},
                      NdCase{{1, 12, 6}, RotationMode::kFusedRotation},
                      NdCase{{1, 12, 6}, RotationMode::kSeparate}));

TEST(PlanND, FusedAndSeparateAgreeExactly) {
  // Both paths perform the same arithmetic per row, so results should agree
  // to the last bit, not just within tolerance.
  const Dims3 dims{16, 8, 4};
  const auto input = random_signal(dims.total(), 5);
  auto a = input;
  auto b = input;
  PlanND<float> sep(dims, Direction::kForward,
                    PlanND<float>::Options{.rotation = RotationMode::kSeparate});
  PlanND<float> fus(
      dims, Direction::kForward,
      PlanND<float>::Options{.rotation = RotationMode::kFusedRotation});
  sep.execute(std::span<Cf>(a));
  fus.execute(std::span<Cf>(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "i=" << i;
  }
}

TEST(PlanND, RankOneBehavesLikePlan1D) {
  const Dims3 dims{64, 1, 1};
  auto x = random_signal(64, 17);
  const auto want = xfft_test::oracle(x, Direction::kForward);
  PlanND<float> plan(dims, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(64));
}

TEST(PlanND, SeparableProductTransformsCorrectly) {
  // A rank-1-separable input f(x,y) = g(x) h(y) has FFT G(kx) H(ky).
  const std::size_t nx = 16;
  const std::size_t ny = 8;
  const auto g = random_signal(nx, 31);
  const auto h = random_signal(ny, 32);
  std::vector<Cf> f(nx * ny);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) f[y * nx + x] = g[x] * h[y];
  }
  const auto fg = xfft_test::oracle(g, Direction::kForward);
  const auto fh = xfft_test::oracle(h, Direction::kForward);

  PlanND<float> plan(Dims3{nx, ny, 1}, Direction::kForward);
  plan.execute(std::span<Cf>(f));
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) {
      const Cf want = fg[x] * fh[y];
      EXPECT_NEAR(f[y * nx + x].real(), want.real(), 2e-3);
      EXPECT_NEAR(f[y * nx + x].imag(), want.imag(), 2e-3);
    }
  }
}

TEST(PlanND, ActualFlopsCountsAllAxes) {
  PlanND<float> plan(Dims3{64, 64, 64}, Direction::kForward);
  // 64^3 points, two radix-8 stages per dimension (6 total); per stage and
  // point the radix-8 kernel costs 102/8 flops.
  const double expected = 6.0 * 262144.0 * 102.0 / 8.0;
  EXPECT_NEAR(static_cast<double>(plan.actual_flops()), expected, 1.0);
}

TEST(PlanND, DoublePrecision3DMatchesOracle) {
  const Dims3 dims{8, 8, 8};
  auto x = xfft_test::random_signal_d(dims.total(), 61);
  std::vector<Cd> want(dims.total());
  xfft::dft_reference_3d(std::span<const Cd>(x), std::span<Cd>(want), dims,
                         Direction::kForward);
  PlanND<double> plan(dims, Direction::kForward);
  plan.execute(std::span<Cd>(x));
  EXPECT_LT((relative_max_error<Cd, Cd>(x, want)), 1e-11);
}

TEST(PlanND, DoublePrecisionRoundTrip) {
  const Dims3 dims{16, 8, 4};
  const auto original = xfft_test::random_signal_d(dims.total(), 62);
  auto x = original;
  PlanND<double> fwd(dims, Direction::kForward);
  PlanND<double> inv(dims, Direction::kInverse);
  fwd.execute(std::span<Cd>(x));
  inv.execute(std::span<Cd>(x));
  EXPECT_LT((relative_max_error<Cd, Cd>(x, original)), 1e-12);
}

TEST(PlanND, DeadlineExpiringMidPassReturnsEarly) {
  // The fused pass polls the token once per tile, so a deadline that
  // expires a few milliseconds into a transform ends it long before the
  // full transform time, on the pool and on the serial rung alike.
  const Dims3 dims{256, 64, 64};
  const auto input = random_signal(dims.total(), 8);
  const PlanND<float> plan(dims, Direction::kForward);
  using Clock = xutil::CancelToken::Clock;
  for (const bool serial : {false, true}) {
    auto x = input;
    xfft::ExecOptions exec;
    exec.serial = serial;
    const auto t0 = Clock::now();
    plan.execute(std::span<Cf>(x), exec);
    const auto full = Clock::now() - t0;

    xutil::CancelToken token;
    exec.cancel = &token;
    x = input;
    const auto t1 = Clock::now();
    token.set_deadline(t1 + full / 50);
    plan.execute(std::span<Cf>(x), exec);
    const auto cut = Clock::now() - t1;
    EXPECT_TRUE(token.expired());
    EXPECT_LT(cut, full / 2) << "serial=" << serial;
  }
}

TEST(PlanND, RejectsWrongBufferLength) {
  PlanND<float> plan(Dims3{8, 8, 1}, Direction::kForward);
  std::vector<Cf> wrong(63);
  EXPECT_THROW(plan.execute(std::span<Cf>(wrong)), xutil::Error);
}

}  // namespace
