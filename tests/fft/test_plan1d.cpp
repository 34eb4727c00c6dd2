// Unit and property tests for the 1-D mixed-radix DIF plan (xfft::Plan1D),
// checked against the O(N^2) double-precision oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "test_helpers.hpp"
#include "xfft/butterflies.hpp"
#include "xfft/detail/narrow_lanes.hpp"
#include "xfft/permute.hpp"
#include "xfft/plan1d.hpp"
#include "xutil/aligned.hpp"

namespace {

using xfft::Cf;
using xfft::Direction;
using xfft::Plan1D;
using xfft::PlanOptions;
using xfft::Scaling;
using xfft_test::oracle;
using xfft_test::random_signal;
using xfft_test::relative_max_error;
using xfft_test::tol_f;

TEST(ChooseRadices, PowersOfTwoPreferEight) {
  EXPECT_EQ(xfft::choose_radices(512), (std::vector<unsigned>{8, 8, 8}));
  EXPECT_EQ(xfft::choose_radices(64), (std::vector<unsigned>{8, 8}));
  EXPECT_EQ(xfft::choose_radices(16), (std::vector<unsigned>{8, 2}));
  EXPECT_EQ(xfft::choose_radices(32), (std::vector<unsigned>{8, 4}));
  EXPECT_EQ(xfft::choose_radices(2), (std::vector<unsigned>{2}));
  EXPECT_EQ(xfft::choose_radices(4), (std::vector<unsigned>{4}));
}

TEST(ChooseRadices, RespectsMaxRadix) {
  EXPECT_EQ(xfft::choose_radices(64, 2),
            (std::vector<unsigned>{2, 2, 2, 2, 2, 2}));
  EXPECT_EQ(xfft::choose_radices(64, 4), (std::vector<unsigned>{4, 4, 4}));
  EXPECT_EQ(xfft::choose_radices(128, 4), (std::vector<unsigned>{4, 4, 4, 2}));
}

TEST(ChooseRadices, SmoothCompositeSizes) {
  EXPECT_EQ(xfft::choose_radices(12), (std::vector<unsigned>{4, 3}));
  EXPECT_EQ(xfft::choose_radices(15), (std::vector<unsigned>{3, 5}));
  EXPECT_EQ(xfft::choose_radices(1), (std::vector<unsigned>{1}));
  const auto r360 = xfft::choose_radices(360);
  const std::size_t product = std::accumulate(
      r360.begin(), r360.end(), std::size_t{1},
      [](std::size_t a, unsigned b) { return a * b; });
  EXPECT_EQ(product, 360u);
}

TEST(ChooseRadices, RejectsLargePrimeFactors) {
  EXPECT_THROW(xfft::choose_radices(67), xutil::Error);
  EXPECT_THROW(xfft::choose_radices(2 * 127), xutil::Error);
}

TEST(SmallDft, Radix2MatchesOracle) {
  auto x = random_signal(2, 7);
  const auto want = oracle(x, Direction::kForward);
  xfft::dft2(x.data());
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), 1e-6);
}

TEST(SmallDft, Radix4MatchesOracleBothDirections) {
  for (const bool inverse : {false, true}) {
    auto x = random_signal(4, 11);
    const auto want =
        oracle(x, inverse ? Direction::kInverse : Direction::kForward);
    xfft::dft4(x.data(), inverse);
    EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), 1e-6) << "inverse="
                                                         << inverse;
  }
}

TEST(SmallDft, Radix8MatchesOracleBothDirections) {
  for (const bool inverse : {false, true}) {
    auto x = random_signal(8, 13);
    const auto want =
        oracle(x, inverse ? Direction::kInverse : Direction::kForward);
    xfft::dft8(x.data(), inverse);
    EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), 1e-6) << "inverse="
                                                         << inverse;
  }
}

TEST(SmallDft, GenericCoreMatchesOracleForOddRadix) {
  for (const unsigned r : {3u, 5u, 7u}) {
    auto x = random_signal(r, r);
    const auto want = oracle(x, Direction::kForward);
    const xfft::TwiddleTable<float> tw(r, Direction::kForward);
    xfft::dft_generic(x.data(), r, tw, r);
    EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), 1e-5) << "radix " << r;
  }
}

/// True when a and b have the same bits (EXPECT_EQ would let -0 == +0).
template <typename C>
bool same_bits(const C& a, const C& b) {
  return std::memcmp(&a, &b, sizeof(C)) == 0;
}

template <typename T>
void expect_cmul_matches_operator_star(std::uint64_t seed) {
  using C = std::complex<T>;
  xutil::Pcg32 rng(seed);
  // Random finite operands over a wide exponent range (products stay
  // finite), then every entry of a forward and an inverse twiddle table
  // against random values: the operand pairs the butterflies multiply.
  for (int i = 0; i < 20000; ++i) {
    const T sx = std::ldexp(T(1), static_cast<int>(rng.next_u32() % 121) - 60);
    const T sy = std::ldexp(T(1), static_cast<int>(rng.next_u32() % 121) - 60);
    const C x(sx * static_cast<T>(rng.next_signed_unit()),
              sx * static_cast<T>(rng.next_signed_unit()));
    const C y(sy * static_cast<T>(rng.next_signed_unit()),
              sy * static_cast<T>(rng.next_signed_unit()));
    ASSERT_TRUE(same_bits(xfft::cmul(x, y), x * y)) << x << " * " << y;
  }
  for (const auto dir : {Direction::kForward, Direction::kInverse}) {
    const xfft::TwiddleTable<T> tw(4096, dir);
    for (std::size_t k = 0; k < tw.size(); ++k) {
      const C x(static_cast<T>(rng.next_signed_unit()),
                static_cast<T>(rng.next_signed_unit()));
      ASSERT_TRUE(same_bits(xfft::cmul(x, tw[k]), x * tw[k])) << "k=" << k;
    }
  }
}

TEST(SmallDft, CmulMatchesOperatorStarBitForBitOnFiniteOperands) {
  expect_cmul_matches_operator_star<float>(3);
  expect_cmul_matches_operator_star<double>(4);
}

/// The fixed radix-r core (r = 3 or 5) against the double oracle, both
/// directions, on random inputs rounded to T. small_dft must dispatch
/// radix r to that core: the same bytes.
template <typename T>
void expect_fixed_core_matches_oracle(unsigned r, double tol) {
  using C = std::complex<T>;
  for (const auto dir : {Direction::kForward, Direction::kInverse}) {
    const bool inverse = dir == Direction::kInverse;
    const xfft::TwiddleTable<T> tw(r, dir);
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
      const auto xd = xfft_test::random_signal_d(r, 100 * r + seed);
      std::vector<C> x(xd.begin(), xd.end());
      const std::vector<xfft::Cd> exact(x.begin(), x.end());
      std::vector<xfft::Cd> want(r);
      xfft::dft_reference(std::span<const xfft::Cd>(exact),
                          std::span<xfft::Cd>(want), dir);
      auto dispatched = x;
      if (r == 3) {
        xfft::dft3(x.data(), inverse);
      } else {
        xfft::dft5(x.data(), inverse);
      }
      xfft::small_dft(dispatched.data(), r, inverse, tw, r);
      EXPECT_LT((relative_max_error<C, xfft::Cd>(x, want)), tol)
          << "T=" << sizeof(T) << "B radix " << r << " inverse=" << inverse
          << " seed=" << seed;
      for (unsigned k = 0; k < r; ++k) {
        ASSERT_TRUE(same_bits(x[k], dispatched[k]))
            << "small_dft radix " << r << " k=" << k;
      }
    }
  }
}

TEST(SmallDft, Radix3MatchesOracleBothDirections) {
  expect_fixed_core_matches_oracle<float>(3, 1e-6);
  expect_fixed_core_matches_oracle<double>(3, 1e-14);
}

TEST(SmallDft, Radix5MatchesOracleBothDirections) {
  expect_fixed_core_matches_oracle<float>(5, 1e-6);
  expect_fixed_core_matches_oracle<double>(5, 1e-14);
}

// ---------------------------------------------------------------------------
// Lane-batched stages: byte-identical to one scalar butterfly at a time.
// ---------------------------------------------------------------------------

/// Which multiplies by W[0] = (1, 0) the scalar stage loop performs: all
/// of them (Plan1D's contract), none in the last stage, or none at all.
/// The dropping variants show that a test input can tell the difference.
enum class Unity { kKeep, kDropLast, kDropAll };

/// Plan1D's transform written one butterfly at a time: per stage, small_dft
/// then cmul of outputs 1..r-1 by stage_twiddle, then the digit-reversal
/// reorder and the 1/n scaling. The lane-batched stages must reproduce it
/// byte for byte.
template <typename T>
std::vector<std::complex<T>> scalar_stage_fft(std::vector<std::complex<T>> x,
                                              Direction dir,
                                              unsigned max_radix,
                                              Unity unity = Unity::kKeep) {
  const std::size_t n = x.size();
  if (n == 1) return x;  // identity; the 1/n scale is a multiply by 1
  const xfft::TwiddleTable<T> tw(n, dir);
  const auto radices = xfft::choose_radices(n, max_radix);
  const bool inverse = dir == Direction::kInverse;
  std::complex<T> v[xfft::kMaxRadix];
  std::size_t block = n;
  for (std::size_t stage = 0; stage < radices.size(); ++stage) {
    const unsigned r = radices[stage];
    const std::size_t sub = block / r;
    const bool drop = unity == Unity::kDropAll ||
                      (unity == Unity::kDropLast && stage + 1 == radices.size());
    for (std::size_t base = 0; base < n; base += block) {
      for (std::size_t j = 0; j < sub; ++j) {
        for (unsigned t = 0; t < r; ++t) v[t] = x[base + j + t * sub];
        xfft::small_dft(v, r, inverse, tw, n);
        for (unsigned i = 1; i < r && !(drop && j == 0); ++i) {
          v[i] = xfft::cmul(v[i], tw.stage_twiddle(block, i, j));
        }
        for (unsigned t = 0; t < r; ++t) x[base + j + t * sub] = v[t];
      }
    }
    block = sub;
  }
  const auto perm = xfft::dif_output_permutation(radices, n);
  std::vector<std::complex<T>> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = x[perm[k]];
  if (inverse) {
    const T s = T(1) / static_cast<T>(n);
    for (auto& y : out) y *= s;
  }
  return out;
}

/// Components drawn from [-1, 1], with each one +0 or -0 with probability
/// `zero_frac`. Signed zeros make the bits depend on every add and
/// multiply, including the multiplies by W[0] = (1, 0): (-0) * 1 - (-0) * 0
/// is +0, and (x, -0) * (1, 0) is (x, +0) for x > 0.
template <typename T>
std::vector<std::complex<T>> signed_zero_signal(std::size_t n,
                                                std::uint64_t seed,
                                                double zero_frac) {
  xutil::Pcg32 rng(seed);
  auto part = [&] {
    const double u = 0.5 * (rng.next_signed_unit() + 1.0);
    const bool negative = rng.next_u32() % 2 == 1;
    const T value = static_cast<T>(rng.next_signed_unit());
    if (u < zero_frac) return negative ? T(-0.0) : T(0.0);
    return value;
  };
  std::vector<std::complex<T>> x(n);
  for (auto& c : x) {
    const T re = part();
    c = {re, part()};
  }
  return x;
}

/// The radix-r core (small_dft) on kLanes<T> inputs at once in SplitComplex
/// lanes, against each input alone as std::complex: every lane must hold
/// the scalar core's bytes. `inputs` holds the inputs one after another, r
/// values each.
template <typename T>
void expect_split_lanes_match_scalar_core(
    unsigned r, const std::vector<std::complex<T>>& inputs) {
  using C = std::complex<T>;
  constexpr std::size_t L = xfft::kLanes<T>;
  using S = xfft::SplitComplex<T, L>;
  const std::size_t count = inputs.size() / r;
  for (const auto dir : {Direction::kForward, Direction::kInverse}) {
    const bool inverse = dir == Direction::kInverse;
    const xfft::TwiddleTable<T> tw(r, dir);
    for (std::size_t g = 0; g < count; g += L) {
      S v[xfft::kMaxRadix] = {};
      for (std::size_t l = 0; l < L && g + l < count; ++l) {
        for (unsigned t = 0; t < r; ++t) {
          v[t].re[l] = inputs[(g + l) * r + t].real();
          v[t].im[l] = inputs[(g + l) * r + t].imag();
        }
      }
      xfft::small_dft(v, r, inverse, tw, r);
      for (std::size_t l = 0; l < L && g + l < count; ++l) {
        C want[xfft::kMaxRadix];
        std::copy_n(inputs.begin() + static_cast<std::ptrdiff_t>((g + l) * r),
                    r, want);
        xfft::small_dft(want, r, inverse, tw, r);
        for (unsigned k = 0; k < r; ++k) {
          const C got{v[k].re[l], v[k].im[l]};
          ASSERT_TRUE(same_bits(got, want[k]))
              << "T=" << sizeof(T) << "B radix " << r
              << " inverse=" << inverse << " input " << g + l << " k=" << k
              << ": " << got << " vs " << want[k];
        }
      }
    }
  }
}

/// Signed-zero inputs, then impulses: every position, three values, on a
/// +0 and a -0 background.
template <typename T>
void expect_split_lanes_match_scalar_core(unsigned r) {
  using C = std::complex<T>;
  for (const double zero_frac : {0.25, 0.5, 1.0}) {
    expect_split_lanes_match_scalar_core<T>(
        r, signed_zero_signal<T>(64 * r, r + 7, zero_frac));
  }
  std::vector<C> impulses;
  for (const T bg : {T(0.0), T(-0.0)}) {
    for (const C value : {C(T(-1), T(-0.0)), C(T(0.0), T(-1)),
                          C(T(0.75), T(-0.5))}) {
      for (unsigned p = 0; p < r; ++p) {
        for (unsigned t = 0; t < r; ++t) {
          impulses.push_back(t == p ? value : C(bg, bg));
        }
      }
    }
  }
  expect_split_lanes_match_scalar_core<T>(r, impulses);
}

TEST(SmallDft, Radix3And5SplitLanesMatchComplexByteForByte) {
  for (const unsigned r : {3u, 5u}) {
    expect_split_lanes_match_scalar_core<float>(r);
    expect_split_lanes_match_scalar_core<double>(r);
  }
}

/// The plan at the width this host runs (lane_width<T>()) and the plan at
/// the baseline 16-byte width. On a host without AVX2 both are baseline.
template <typename T>
std::vector<Plan1D<T>> plans_at_both_widths(std::size_t n, Direction dir,
                                            PlanOptions opt = {}) {
  std::vector<Plan1D<T>> plans;
  plans.emplace_back(n, dir, opt);
  plans.push_back(xfft::detail::NarrowLanes::plan_1d<T>(n, dir, opt));
  return plans;
}

template <typename T>
void expect_lanes_match_scalar_stages(std::size_t n) {
  for (const unsigned max_radix : {8u, 4u, 2u}) {
    for (const auto dir : {Direction::kForward, Direction::kInverse}) {
      PlanOptions opt;
      opt.max_radix = max_radix;
      const auto plans = plans_at_both_widths<T>(n, dir, opt);
      for (const double zero_frac : {0.25, 1.0}) {
        const auto input = signed_zero_signal<T>(n, n + max_radix, zero_frac);
        const auto want = scalar_stage_fft(input, dir, max_radix);
        for (const Plan1D<T>& plan : plans) {
          auto got = input;
          plan.execute(std::span<std::complex<T>>(got));
          for (std::size_t k = 0; k < n; ++k) {
            ASSERT_TRUE(same_bits(got[k], want[k]))
                << "T=" << sizeof(T) << "B lanes=" << plan.lanes()
                << " max_radix=" << max_radix
                << " dir=" << static_cast<int>(dir) << " zeros=" << zero_frac
                << " k=" << k << ": " << got[k] << " vs " << want[k];
          }
        }
      }
    }
  }
}

class Plan1DLanes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Plan1DLanes, MatchScalarStageLoopByteForByte) {
  expect_lanes_match_scalar_stages<float>(GetParam());
  expect_lanes_match_scalar_stages<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, Plan1DLanes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512,
                                           1024, 2048, 4096, 16384, 24, 60,
                                           768, 1000, 1, 15, 27, 30, 50, 61,
                                           125));

// ---------------------------------------------------------------------------
// Rows in lanes: execute_scatter_tile against the scalar stage loop.
// ---------------------------------------------------------------------------

/// A destination above the streaming threshold whatever L2 size the rule
/// reads (four times sysconf's report, or of its 2 MiB fallback), in
/// elements.
template <typename T>
std::size_t above_stream_threshold_elems() {
  long l2 = 0;
#if defined(_SC_LEVEL2_CACHE_SIZE)
  l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  const auto bytes = static_cast<std::size_t>(std::max(l2, 2L << 20));
  return 4 * bytes / sizeof(std::complex<T>) + xfft::kTileRows<T>;
}

/// Tiles of 1..kTileRows + 3 rows (beyond one line, a full tile then a
/// partial one) into three destinations: line-aligned runs and a
/// line-multiple stride in a small buffer (plain whole-line stores), an
/// offset of one element with a stride that is no line multiple (plain
/// stores), and line-aligned runs into a buffer above the streaming
/// threshold (full tiles are streamed). Every byte of the destination must equal the
/// scalar stage loop's rows placed at offset + b + k*stride, and the
/// sentinel elsewhere.
template <typename T>
void expect_tile_matches_scalar_stages(std::size_t n) {
  using C = std::complex<T>;
  constexpr std::size_t kRows = xfft::kTileRows<T>;
  const C sentinel{T(-7), T(7)};
  struct Dest {
    const char* name;
    std::size_t offset;
    std::size_t stride;
    std::size_t min_len;
  };
  for (const auto dir : {Direction::kForward, Direction::kInverse}) {
    const auto plans = plans_at_both_widths<T>(n, dir);
    for (std::size_t rows = 1; rows <= kRows + 3; ++rows) {
      const auto input = signed_zero_signal<T>(rows * n, n * 16 + rows, 0.25);
      std::vector<std::vector<C>> want_rows;
      for (std::size_t b = 0; b < rows; ++b) {
        want_rows.push_back(scalar_stage_fft(
            std::vector<C>(input.begin() + static_cast<std::ptrdiff_t>(b * n),
                           input.begin() +
                               static_cast<std::ptrdiff_t>((b + 1) * n)),
            dir, 8));
      }
      for (const Dest d : {Dest{"aligned", kRows, 2 * kRows, 0},
                           Dest{"unaligned", 1, rows + 3, 0},
                           Dest{"streamed", 0, 2 * kRows,
                                above_stream_threshold_elems<T>()}}) {
        const std::size_t len =
            std::max(d.offset + rows + (n - 1) * d.stride, d.min_len);
        xutil::AlignedVector<C> want(len, sentinel);
        for (std::size_t b = 0; b < rows; ++b) {
          for (std::size_t k = 0; k < n; ++k) {
            want[d.offset + b + k * d.stride] = want_rows[b][k];
          }
        }
        for (const Plan1D<T>& plan : plans) {
          xutil::AlignedVector<C> got(len, sentinel);
          xutil::AlignedVector<C> scratch(kRows * n);
          plan.execute_scatter_tile(input, std::span<C>(got), d.offset,
                                    d.stride, std::span<C>(scratch));
          ASSERT_EQ(std::memcmp(got.data(), want.data(), len * sizeof(C)), 0)
              << "T=" << sizeof(T) << "B lanes=" << plan.lanes() << " n=" << n
              << " rows=" << rows << " dir=" << static_cast<int>(dir)
              << " dest=" << d.name;
        }
      }
    }
  }
}

class Plan1DTile : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Plan1DTile, MatchesScalarStageLoopByteForByte) {
  expect_tile_matches_scalar_stages<float>(GetParam());
  expect_tile_matches_scalar_stages<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, Plan1DTile,
                         ::testing::Values(1, 2, 8, 64, 256, 12, 60, 768,
                                           1000));

TEST(Plan1D, ScatterTileRejectsShortScratch) {
  const std::size_t n = 64;
  const Plan1D<float> plan(n, Direction::kForward);
  const std::vector<Cf> tile(xfft::kTileRows<float> * n);
  std::vector<Cf> out(tile.size());
  std::vector<Cf> scratch(tile.size() - 1);
  EXPECT_THROW(plan.execute_scatter_tile(tile, std::span<Cf>(out), 0,
                                         xfft::kTileRows<float>,
                                         std::span<Cf>(scratch)),
               xutil::Error);
}

TEST(Plan1D, ExecuteRejectsShortScratch) {
  // The planes of ceil(r0 / L) lane groups of L = lanes() rows, n / r0
  // elements each: n at n = 64 (r0 = 8) at either width, but L/2 times n at
  // n = 2 (r0 = 2, one group with 2 of its L lanes used).
  for (const std::size_t n : {64u, 2u}) {
    for (const Plan1D<float>& plan :
         plans_at_both_widths<float>(n, Direction::kForward)) {
      const std::size_t lanes = plan.lanes();
      const std::size_t r0 = plan.radices()[0];
      EXPECT_EQ(plan.scratch_size(),
                (r0 + lanes - 1) / lanes * lanes * (n / r0))
          << "n=" << n << " lanes=" << lanes;
      if (n == 64) {
        EXPECT_EQ(plan.scratch_size(), n) << "lanes=" << lanes;
      }
      std::vector<Cf> data(n);
      std::vector<Cf> scratch(plan.scratch_size() - 1);
      EXPECT_THROW(plan.execute(std::span<Cf>(data), std::span<Cf>(scratch)),
                   xutil::Error)
          << "n=" << n << " lanes=" << lanes;
    }
  }
}

// ---------------------------------------------------------------------------
// Unity twiddles: the multiplies by W[0] = (1, 0) are kept.
// ---------------------------------------------------------------------------

/// Inputs on which dropping `unity`'s multiplies by W[0] changes output
/// bits. Such a multiply changes bits only on a -0 component, e.g.
/// (-0, -1) * (1, 0) = (+0, -1), and sums of random values almost never
/// give one at n > 16. Two families do: an impulse of (-1, -0) at 0 on a
/// +0 background (every stage's j = 0 butterfly carries a -0), and
/// signed zeros with a few +-1, repeated with period 2, 4 or 8, whose
/// exact cancellations leave -0 components in the last stage. Candidates are
/// checked against the scalar loop, so each returned input is shown to
/// catch the drop.
template <typename T>
std::vector<std::vector<std::complex<T>>> unity_probes(std::size_t n,
                                                       Direction dir,
                                                       Unity unity) {
  using C = std::complex<T>;
  std::vector<std::vector<C>> candidates;
  std::vector<C> impulse(n, C{T(0), T(0)});
  impulse[0] = C{T(-1), T(-0.0)};
  candidates.push_back(impulse);
  for (const std::size_t period : {2u, 4u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      xutil::Pcg32 rng(seed);
      std::vector<C> x(n);
      for (std::size_t m = 0; m < n; ++m) {
        if (m >= period) {
          x[m] = x[m - period];
          continue;
        }
        auto part = [&] {
          const bool one = rng.next_u32() % 8 == 0;
          const T sign = rng.next_u32() % 2 == 1 ? T(-1) : T(1);
          return one ? sign : sign * T(0);
        };
        const T re = part();
        x[m] = C{re, part()};
      }
      candidates.push_back(x);
    }
  }
  std::vector<std::vector<C>> probes;
  for (const auto& x : candidates) {
    const auto keep = scalar_stage_fft(x, dir, 8);
    const auto drop = scalar_stage_fft(x, dir, 8, unity);
    if (std::memcmp(keep.data(), drop.data(), n * sizeof(C)) != 0) {
      probes.push_back(x);
    }
  }
  return probes;
}

template <typename T>
void expect_unity_multiplies_kept(std::size_t n) {
  using C = std::complex<T>;
  for (const auto dir : {Direction::kForward, Direction::kInverse}) {
    const auto plans = plans_at_both_widths<T>(n, dir);
    for (const Unity unity : {Unity::kDropLast, Unity::kDropAll}) {
      const auto probes = unity_probes<T>(n, dir, unity);
      ASSERT_FALSE(probes.empty())
          << "no input shows a dropped W[0] multiply at n=" << n;
      for (const auto& x : probes) {
        const auto want = scalar_stage_fft(x, dir, 8);
        for (const Plan1D<T>& plan : plans) {
          auto got = x;
          plan.execute(std::span<C>(got));
          ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(C)), 0)
              << "execute T=" << sizeof(T) << "B lanes=" << plan.lanes()
              << " n=" << n;
          std::vector<C> scattered(n);
          plan.execute_scatter_affine(x, std::span<C>(scattered), 0, 1);
          ASSERT_EQ(
              std::memcmp(scattered.data(), want.data(), n * sizeof(C)), 0)
              << "execute_scatter_affine T=" << sizeof(T)
              << "B lanes=" << plan.lanes() << " n=" << n;
        }
      }
    }
  }
}

class Plan1DUnityTwiddle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Plan1DUnityTwiddle, KeepsEveryMultiplyByWZero) {
  expect_unity_multiplies_kept<float>(GetParam());
  expect_unity_multiplies_kept<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, Plan1DUnityTwiddle,
                         ::testing::Values(64, 128, 256, 512, 1024, 4096,
                                           16384));

// ---------------------------------------------------------------------------
// Lane widths: the host's width and the baseline width give the same bytes.
// ---------------------------------------------------------------------------

TEST(LaneWidth, ReportsTheWidthPlansRun) {
  const xfft::LaneWidth f = xfft::lane_width<float>();
  const xfft::LaneWidth d = xfft::lane_width<double>();
  const std::string isa = f.isa;
  ASSERT_TRUE(isa == "avx2" || isa == "baseline") << isa;
  EXPECT_EQ(std::string(d.isa), isa);
  // 32-byte vectors under AVX2, 16-byte ones otherwise.
  const std::size_t bytes = isa == "avx2" ? 32 : 16;
  EXPECT_EQ(f.lanes, bytes / sizeof(float));
  EXPECT_EQ(d.lanes, bytes / sizeof(double));
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  EXPECT_EQ(isa == "avx2", __builtin_cpu_supports("avx2") != 0);
#else
  EXPECT_EQ(isa, "baseline");
#endif
  EXPECT_EQ(Plan1D<float>(64, Direction::kForward).lanes(), f.lanes);
  EXPECT_EQ(Plan1D<double>(64, Direction::kForward).lanes(), d.lanes);
  EXPECT_EQ(xfft::detail::NarrowLanes::plan_1d<float>(64, Direction::kForward)
                .lanes(),
            xfft::kLanes<float>);
}

/// execute() and execute_scatter_tile() (a full tile plus three rows) at
/// the host's width and at the baseline width, byte for byte, on
/// signed-zero inputs, both directions.
template <typename T>
void expect_widths_agree(std::size_t n) {
  using C = std::complex<T>;
  const std::size_t rows = xfft::kTileRows<T> + 3;
  for (const auto dir : {Direction::kForward, Direction::kInverse}) {
    const auto plans = plans_at_both_widths<T>(n, dir);
    const auto input = signed_zero_signal<T>(rows * n, 3 * n + 1, 0.25);
    std::vector<std::vector<C>> rows_out;
    std::vector<std::vector<C>> tiles_out;
    for (const Plan1D<T>& plan : plans) {
      std::vector<C> row(input.begin(),
                         input.begin() + static_cast<std::ptrdiff_t>(n));
      xutil::AlignedVector<C> scratch(plan.scratch_size());
      plan.execute(std::span<C>(row), std::span<C>(scratch));
      rows_out.push_back(row);
      std::vector<C> tile(rows * n);
      plan.execute_scatter_tile(input, std::span<C>(tile), 0, rows);
      tiles_out.push_back(tile);
    }
    ASSERT_EQ(std::memcmp(rows_out[0].data(), rows_out[1].data(),
                          n * sizeof(C)),
              0)
        << "execute T=" << sizeof(T) << "B n=" << n
        << " dir=" << static_cast<int>(dir);
    ASSERT_EQ(std::memcmp(tiles_out[0].data(), tiles_out[1].data(),
                          rows * n * sizeof(C)),
              0)
        << "execute_scatter_tile T=" << sizeof(T) << "B n=" << n
        << " dir=" << static_cast<int>(dir);
  }
}

TEST(Plan1DWidths, SameBytesAtEverySizeUpTo64) {
  // Every first radix and every lane-group fill: 1..64 holds each prime
  // up to 61 and every power of two up to 64.
  for (std::size_t n = 1; n <= 64; ++n) {
    expect_widths_agree<float>(n);
    expect_widths_agree<double>(n);
  }
}

class Plan1DWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Plan1DWidths, SameBytesAtBothWidths) {
  expect_widths_agree<float>(GetParam());
  expect_widths_agree<double>(GetParam());
}

// Powers of two and smooth sizes with odd radices (3, 5, 7) up to 16384.
INSTANTIATE_TEST_SUITE_P(Sizes, Plan1DWidths,
                         ::testing::Values(96, 100, 125, 243, 343, 360, 768,
                                           1000, 1024, 2187, 3000, 4096, 6561,
                                           8192, 15625, 16384));

// ---------------------------------------------------------------------------
// Parameterized sweep: forward transform matches oracle over many sizes.
// ---------------------------------------------------------------------------

class Plan1DSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Plan1DSizes, ForwardMatchesOracle) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, n);
  const auto want = oracle(x, Direction::kForward);
  Plan1D<float> plan(n, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(n)) << "n=" << n;
}

TEST_P(Plan1DSizes, InverseMatchesOracle) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, n + 1);
  auto want = oracle(x, Direction::kInverse);
  for (auto& v : want) v *= 1.0F / static_cast<float>(n);
  Plan1D<float> plan(n, Direction::kInverse);
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(n)) << "n=" << n;
}

TEST_P(Plan1DSizes, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, n + 2);
  auto x = original;
  Plan1D<float> fwd(n, Direction::kForward);
  Plan1D<float> inv(n, Direction::kInverse);
  fwd.execute(std::span<Cf>(x));
  inv.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, original)), tol_f(n)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwo, Plan1DSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256,
                                           512, 1024, 4096));
INSTANTIATE_TEST_SUITE_P(Smooth, Plan1DSizes,
                         ::testing::Values(3, 5, 6, 9, 12, 15, 20, 24, 48, 60,
                                           120, 360));

// ---------------------------------------------------------------------------
// Accuracy as a metric: float relative RMS error against the double oracle.
// ---------------------------------------------------------------------------

/// sqrt(sum |got - want|^2 / sum |want|^2).
double relative_rms_error(const std::vector<Cf>& got,
                          const std::vector<xfft::Cd>& want) {
  double err = 0.0;
  double mag = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err += std::norm(xfft::Cd(got[i].real(), got[i].imag()) - want[i]);
    mag += std::norm(want[i]);
  }
  return std::sqrt(err / mag);
}

/// The bound is kRmsC * log2(n) * 2^-24, 2^-24 being float's unit
/// roundoff. Measured at the sizes below, both directions, seeds n and
/// n + 1, err / (log2(n) * 2^-24) is 0.30 at n = 16 (forward), the worst,
/// and falls to 0.17 at n = 16384. kRmsC leaves a 2x margin over the worst.
/// The sizes with an odd factor read, forward / inverse, with the generic
/// O(r^2) core for radices 3 and 5 and then with the fixed dft3/dft5:
///   768 (8*8*4*3)      0.204 / 0.196  ->  0.205 / 0.194
///   1000 (8*5^3)       0.208 / 0.239  ->  0.211 / 0.227
///   2187 (3^7)         0.225 / 0.228  ->  0.217 / 0.227
///   3125 (5^5)         0.218 / 0.211  ->  0.213 / 0.206
///   6000 (8*2*3*5^3)   0.192 / 0.195  ->  0.187 / 0.191
constexpr double kRmsC = 0.6;

TEST(Plan1DAccuracy, RelativeRmsErrorGrowsAsLogN) {
  std::vector<std::size_t> sizes = {768, 1000, 2187, 3125, 6000};
  for (std::size_t n = 16; n <= 16384; n *= 2) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    for (const auto dir : {Direction::kForward, Direction::kInverse}) {
      const auto x = random_signal(n, n + static_cast<std::size_t>(dir));
      const std::vector<xfft::Cd> xd(x.begin(), x.end());
      std::vector<xfft::Cd> want(n);
      xfft::dft_reference(std::span<const xfft::Cd>(xd),
                          std::span<xfft::Cd>(want), dir);
      if (dir == Direction::kInverse) xfft::scale_by_1_over_n(want);
      auto got = x;
      Plan1D<float>(n, dir).execute(std::span<Cf>(got));
      const double err = relative_rms_error(got, want);
      const double unit = std::log2(static_cast<double>(n)) * 0x1p-24;
      RecordProperty("rms_" + std::to_string(n) + "_" +
                         std::to_string(static_cast<int>(dir)),
                     std::to_string(err / unit));
      EXPECT_LT(err, kRmsC * unit)
          << "n=" << n << " dir=" << static_cast<int>(dir)
          << " err/(log2(n)*2^-24)=" << err / unit;
    }
  }
}

// ---------------------------------------------------------------------------
// Radix ablation correctness: every max_radix choice computes the same DFT.
// ---------------------------------------------------------------------------

class Plan1DRadix
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(Plan1DRadix, AllRadixChoicesAgreeWithOracle) {
  const auto [n, radix] = GetParam();
  auto x = random_signal(n, n * 31 + radix);
  const auto want = oracle(x, Direction::kForward);
  Plan1D<float> plan(n, Direction::kForward, PlanOptions{.max_radix = radix});
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(n))
      << "n=" << n << " radix=" << radix;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Plan1DRadix,
    ::testing::Combine(::testing::Values(8, 64, 256, 512, 1024),
                       ::testing::Values(2u, 4u, 8u)));

// ---------------------------------------------------------------------------
// Algebraic properties.
// ---------------------------------------------------------------------------

TEST(Plan1DProperties, Linearity) {
  const std::size_t n = 256;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  const Cf alpha(0.7F, -0.3F);
  const Cf beta(-1.2F, 0.5F);

  Plan1D<float> plan(n, Direction::kForward);
  auto fa = a;
  auto fb = b;
  plan.execute(std::span<Cf>(fa));
  plan.execute(std::span<Cf>(fb));

  std::vector<Cf> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = alpha * a[i] + beta * b[i];
  plan.execute(std::span<Cf>(combo));

  for (std::size_t i = 0; i < n; ++i) {
    const Cf want = alpha * fa[i] + beta * fb[i];
    EXPECT_NEAR(combo[i].real(), want.real(), 1e-3);
    EXPECT_NEAR(combo[i].imag(), want.imag(), 1e-3);
  }
}

TEST(Plan1DProperties, ImpulseTransformsToConstant) {
  const std::size_t n = 512;
  std::vector<Cf> x(n, Cf{0.0F, 0.0F});
  x[0] = Cf{1.0F, 0.0F};
  Plan1D<float> plan(n, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), 1.0F, 1e-4);
    EXPECT_NEAR(x[k].imag(), 0.0F, 1e-4);
  }
}

TEST(Plan1DProperties, ConstantTransformsToImpulse) {
  const std::size_t n = 512;
  std::vector<Cf> x(n, Cf{1.0F, 0.0F});
  Plan1D<float> plan(n, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  EXPECT_NEAR(x[0].real(), static_cast<float>(n), 1e-2);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0F, 1e-2) << "k=" << k;
  }
}

TEST(Plan1DProperties, ParsevalEnergyConservation) {
  const std::size_t n = 1024;
  auto x = random_signal(n, 99);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  Plan1D<float> plan(n, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / (static_cast<double>(n) * time_energy), 1.0, 1e-4);
}

TEST(Plan1DProperties, TimeShiftBecomesPhaseRamp) {
  const std::size_t n = 128;
  const std::size_t shift = 5;
  const auto x = random_signal(n, 4);
  std::vector<Cf> shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[i] = x[(i + shift) % n];

  Plan1D<float> plan(n, Direction::kForward);
  auto fx = x;
  plan.execute(std::span<Cf>(fx));
  plan.execute(std::span<Cf>(shifted));

  // X_shifted[k] = X[k] * exp(+2 pi i k shift / n).
  for (std::size_t k = 0; k < n; ++k) {
    const double a = 2.0 * 3.14159265358979323846 * static_cast<double>(k) *
                     static_cast<double>(shift) / static_cast<double>(n);
    const Cf rot(static_cast<float>(std::cos(a)),
                 static_cast<float>(std::sin(a)));
    const Cf want = fx[k] * rot;
    EXPECT_NEAR(shifted[k].real(), want.real(), 2e-3) << "k=" << k;
    EXPECT_NEAR(shifted[k].imag(), want.imag(), 2e-3) << "k=" << k;
  }
}

TEST(Plan1D, NoScalingOptionLeavesRawSums) {
  const std::size_t n = 64;
  auto x = random_signal(n, 5);
  const auto want = oracle(x, Direction::kInverse);  // unscaled
  Plan1D<float> plan(n, Direction::kInverse,
                     PlanOptions{.scaling = Scaling::kNone});
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(n));
}

TEST(Plan1D, DoublePrecisionIsMoreAccurate) {
  const std::size_t n = 1024;
  auto xd = xfft_test::random_signal_d(n, 6);
  std::vector<xfft::Cd> want(n);
  xfft::dft_reference(std::span<const xfft::Cd>(xd), std::span<xfft::Cd>(want),
                      Direction::kForward);
  Plan1D<double> plan(n, Direction::kForward);
  plan.execute(std::span<xfft::Cd>(xd));
  EXPECT_LT((relative_max_error<xfft::Cd, xfft::Cd>(xd, want)), 1e-12);
}

TEST(Plan1D, ExecuteDigitReversedPlusPermMatchesExecute) {
  const std::size_t n = 512;
  const auto input = signed_zero_signal<float>(n, 8, 0.25);
  Plan1D<float> plan(n, Direction::kForward);

  auto a = input;
  plan.execute(std::span<Cf>(a));

  auto b = input;
  plan.execute_digit_reversed(std::span<Cf>(b));
  std::vector<Cf> reordered(n);
  for (std::size_t k = 0; k < n; ++k) reordered[k] = b[plan.output_perm()[k]];

  EXPECT_EQ(std::memcmp(a.data(), reordered.data(), n * sizeof(Cf)), 0);
}

TEST(Plan1D, ScatterAffineMatchesExecute) {
  // 256 (first radix 8) and 125 (first radix 5, partial lane groups).
  for (const std::size_t n : {256u, 125u}) {
    const auto input = signed_zero_signal<float>(n, 9, 0.25);
    Plan1D<float> plan(n, Direction::kForward);

    auto a = input;
    plan.execute(std::span<Cf>(a));

    const std::size_t stride = 3;
    std::vector<Cf> out(3 + n * stride, Cf{0.0F, 0.0F});
    plan.execute_scatter_affine(input, std::span<Cf>(out), /*offset=*/3,
                                stride);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_TRUE(same_bits(out[3 + k * stride], a[k]))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Plan1D, ScatterTileMatchesPerRowScatterAffine) {
  // The tiled scatter must give every row exactly the bytes the one-row
  // call gives it, for any tile height, both directions and the inverse
  // 1/N scaling, and leave the destination outside its comb untouched.
  const Cf sentinel{-7.0F, 7.0F};
  for (const std::size_t n : {8u, 12u, 256u}) {
    for (const auto dir : {Direction::kForward, Direction::kInverse}) {
      Plan1D<float> plan(n, dir);
      for (const std::size_t rows : {1u, 3u, 8u}) {
        const std::size_t offset = 2;
        const std::size_t stride = rows + 3;
        const auto input = random_signal(rows * n, n + rows);
        std::vector<Cf> want(offset + rows + n * stride, sentinel);
        auto per_row = input;
        for (std::size_t b = 0; b < rows; ++b) {
          plan.execute_scatter_affine(std::span<Cf>(per_row).subspan(b * n, n),
                                      std::span<Cf>(want), offset + b, stride);
        }
        std::vector<Cf> got(want.size(), sentinel);
        auto tile = input;
        plan.execute_scatter_tile(std::span<Cf>(tile), std::span<Cf>(got),
                                  offset, stride);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(Cf)),
                  0)
            << "n=" << n << " rows=" << rows;
      }
    }
  }
}

TEST(Plan1D, ActualFlopsScalesWithNLogN) {
  Plan1D<float> p512(512, Direction::kForward);
  Plan1D<float> p4096(4096, Direction::kForward);
  // 512 -> 3 radix-8 stages; 4096 -> 4 stages over 8x the points:
  // flops ratio should be (4096*4)/(512*3) = 32/3.
  const double ratio = static_cast<double>(p4096.actual_flops()) /
                       static_cast<double>(p512.actual_flops());
  EXPECT_NEAR(ratio, 32.0 / 3.0, 1e-9);
}

TEST(Plan1D, ActualFlopsCountsTheFixedRadix5Core) {
  // 1000 = 8 * 5 * 5 * 5. Per stage of radix r: n/r butterflies of
  // small_dft_flops(r) plus 6(r - 1) for the twiddle multiplies.
  // Radix 8: 125 * (60 + 42) = 12750; radix 5: 200 * (48 + 24) = 14400.
  EXPECT_EQ(xfft::small_dft_flops(3), 16u);
  EXPECT_EQ(xfft::small_dft_flops(5), 48u);
  EXPECT_EQ(Plan1D<float>(1000, Direction::kForward).actual_flops(),
            12750u + 3u * 14400u);
}

TEST(Plan1D, RejectsSizesBeyondUint32PermutationBeforeAllocating) {
  // 2^33 points would need a 64 GiB twiddle table and a 32 GiB uint32_t
  // permutation that cannot hold the positions. The size check runs first,
  // so the plan throws xutil::Error, not std::bad_alloc.
  const std::size_t n = std::size_t{1} << 33;
  EXPECT_THROW(Plan1D<float>(n, Direction::kForward), xutil::Error);
  const std::vector<unsigned> radices(11, 8);  // 8^11 = 2^33
  EXPECT_THROW(static_cast<void>(xfft::dif_output_permutation(radices, n)),
               xutil::Error);
}

TEST(Plan1D, RejectsWrongBufferLength) {
  Plan1D<float> plan(64, Direction::kForward);
  std::vector<Cf> wrong(63);
  EXPECT_THROW(plan.execute(std::span<Cf>(wrong)), xutil::Error);
}

}  // namespace
