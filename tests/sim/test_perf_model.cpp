// Tests of the analytic performance model — including the headline
// reproduction: Table IV within tolerance, Table V speedup structure, and
// the Fig. 3 qualitative observations (a)-(c).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "xfft/xmt_kernel.hpp"
#include "xref/xeon.hpp"
#include "xsim/perf_model.hpp"

namespace {

using xfft::Dims3;
using xsim::Bound;
using xsim::FftPerfModel;
using xsim::FftPerfReport;

constexpr Dims3 k512{512, 512, 512};

FftPerfReport report_for(const xsim::MachineConfig& cfg) {
  return FftPerfModel(cfg).analyze_fft(k512);
}

struct Table4Case {
  const char* name;
  double paper_gflops;
};

/// Prints a case as its preset name with '_' for ' ', e.g. "128k_x2";
/// CMake's gtest discovery names each ctest entry after it (the default
/// printer dumps the struct's bytes, a heap address included).
void PrintTo(const Table4Case& c, std::ostream* os) {
  std::string name = c.name;
  std::replace(name.begin(), name.end(), ' ', '_');
  *os << name;
}

class Table4 : public ::testing::TestWithParam<Table4Case> {};

TEST_P(Table4, StandardGflopsWithinEightPercentOfPaper) {
  const auto [name, paper] = GetParam();
  xsim::MachineConfig cfg;
  for (const auto& c : xsim::paper_presets()) {
    if (c.name == name) cfg = c;
  }
  const auto r = report_for(cfg);
  EXPECT_NEAR(r.standard_gflops / paper, 1.0, 0.08)
      << name << ": model " << r.standard_gflops << " GFLOPS vs paper "
      << paper;
}

INSTANTIATE_TEST_SUITE_P(PaperRows, Table4,
                         ::testing::Values(Table4Case{"4k", 239.0},
                                           Table4Case{"8k", 500.0},
                                           Table4Case{"64k", 3667.0},
                                           Table4Case{"128k x2", 12570.0},
                                           Table4Case{"128k x4", 18972.0}));

TEST(Table5, SpeedupShapeVsSerialFftw) {
  // Paper: 31X / 66X / 482X / 1652X / 2494X vs serial FFTW (7.71 GFLOPS).
  const xref::XeonE5_2690 xeon;
  const double paper[] = {31.0, 66.0, 482.0, 1652.0, 2494.0};
  const auto presets = xsim::paper_presets();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const auto r = report_for(presets[i]);
    const double speedup = r.standard_gflops / xeon.serial_fftw_gflops;
    EXPECT_NEAR(speedup / paper[i], 1.0, 0.10) << presets[i].name;
  }
}

TEST(Table5, FourKBeats32ThreadFftwByAbout2_8x) {
  const xref::XeonE5_2690 xeon;
  const auto r = report_for(xsim::preset_4k());
  EXPECT_NEAR(r.standard_gflops / xeon.parallel32_fftw_gflops, 2.8, 0.3);
}

TEST(Fig3ObservationA, SmallConfigsAreBandwidthBoundInBothPhases) {
  // "(a) In the 4k and 8k configurations, both phases are essentially on
  //  the sloped line" — every phase DRAM-bound, achieved bandwidth close
  //  to peak.
  for (const auto& cfg : {xsim::preset_4k(), xsim::preset_8k()}) {
    const auto r = report_for(cfg);
    for (const auto& ph : r.phases) {
      EXPECT_EQ(ph.bound, Bound::kDram) << cfg.name << " " << ph.name;
      // Achieved = flops/time; attainable at its intensity = I*BW. Check
      // the phase sits within ~6% of the roofline.
      const double attainable =
          ph.intensity * cfg.dram_bw_bytes_per_sec() / 1e9;
      EXPECT_GT(ph.actual_gflops / attainable, 0.94)
          << cfg.name << " " << ph.name;
    }
  }
}

TEST(Fig3ObservationB, RotationFallsBelowRooflineAt64kAndMoreAt128k) {
  // "(b) In the 64k configuration, the rotation step is beginning to fall
  //  below the sloped line ... more pronounced in the 128k x2".
  const auto gap = [](const xsim::MachineConfig& cfg) {
    const auto r = report_for(cfg);
    double worst = 1.0;
    for (const auto& ph : r.phases) {
      if (!ph.rotation) continue;
      const double attainable =
          ph.intensity * cfg.dram_bw_bytes_per_sec() / 1e9;
      worst = std::min(worst, ph.actual_gflops / attainable);
    }
    return 1.0 - worst;  // 0 = on the line
  };
  const double g8k = gap(xsim::preset_8k());
  const double g64k = gap(xsim::preset_64k());
  const double g128k = gap(xsim::preset_128k_x2());
  EXPECT_LT(g8k, 0.06);            // on the line
  EXPECT_GT(g64k, g8k);            // beginning to fall
  EXPECT_LT(g64k, 0.35);
  EXPECT_GT(g128k, g64k + 0.15);   // clearly below
}

TEST(Fig3ObservationC, X4GainOverX2IsAboutFiftyPercent) {
  // "(c) The 128k x4 configuration provides only a 51% improvement over
  //  the 128k x2 configuration" because the ICN is the bottleneck.
  const auto x2 = report_for(xsim::preset_128k_x2());
  const auto x4 = report_for(xsim::preset_128k_x4());
  const double gain = x4.standard_gflops / x2.standard_gflops - 1.0;
  EXPECT_NEAR(gain, 0.51, 0.10);
  // And the binding resource for x4 rotation phases is the NoC, not DRAM.
  for (const auto& ph : x4.phases) {
    if (ph.rotation) {
      EXPECT_EQ(ph.bound, Bound::kNoc) << ph.name;
    }
  }
}

TEST(PerfModel, RotationIntensityIsLowerThanNonRotation) {
  // The Fig. 3 x-axis structure: rotation markers sit left of non-rotation.
  const auto r = report_for(xsim::preset_8k());
  EXPECT_LT(r.rotation.intensity(), r.non_rotation.intensity());
  // Overall sits between the two.
  EXPECT_GT(r.overall.intensity(), r.rotation.intensity());
  EXPECT_LT(r.overall.intensity(), r.non_rotation.intensity());
}

TEST(PerfModel, OverallTimeIsSumOfPhases) {
  const auto r = report_for(xsim::preset_64k());
  double sum = 0.0;
  for (const auto& ph : r.phases) sum += ph.seconds;
  EXPECT_NEAR(sum, r.total_seconds, 1e-12);
  EXPECT_EQ(r.phases.size(), 9u);  // 3 dims x 3 radix-8 iterations
}

TEST(PerfModel, MoreChannelsNeverSlower) {
  // Monotonicity: doubling DRAM channels cannot increase any phase time.
  auto base = xsim::preset_8k();
  auto more = base;
  more.mms_per_dram_ctrl = 4;  // 64 channels instead of 32
  const auto rb = FftPerfModel(base).analyze_fft(k512);
  const auto rm = FftPerfModel(more).analyze_fft(k512);
  for (std::size_t i = 0; i < rb.phases.size(); ++i) {
    EXPECT_LE(rm.phases[i].seconds, rb.phases[i].seconds * 1.0001);
  }
}

TEST(PerfModel, ActualGflopsBelowStandardConvention) {
  // A radix-8 implementation performs fewer actual flops than 5 N log2 N,
  // so actual GFLOPS < standard GFLOPS for the same run.
  const auto r = report_for(xsim::preset_64k());
  EXPECT_LT(r.actual_gflops, r.standard_gflops);
  EXPECT_GT(r.actual_gflops, 0.7 * r.standard_gflops);
}

TEST(PerfModel, SmallerRadixIsSlowerOnXmt) {
  // Section IV-A's radix choice: fewer memory passes win on a
  // bandwidth-bound machine. radix 2 -> 27 passes vs radix 8 -> 9.
  FftPerfModel model(xsim::preset_8k());
  const auto r8 = model.analyze_fft(k512, 8);
  const auto r2 = model.analyze_fft(k512, 2);
  EXPECT_GT(r2.total_seconds, 2.5 * r8.total_seconds);
}

TEST(PerfModel, SpawnOverheadDominatesOnlyTinyProblems) {
  FftPerfModel model(xsim::preset_128k_x4());
  const auto tiny = model.analyze_fft(Dims3{64, 1, 1});
  EXPECT_EQ(tiny.phases[0].bound, Bound::kOverhead);
  const auto big = model.analyze_fft(k512);
  EXPECT_NE(big.phases[0].bound, Bound::kOverhead);
}

}  // namespace
