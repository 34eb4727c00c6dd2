// Tests for the technology/physical models: these pin the Section V
// arithmetic (bandwidths, pins, TSVs, photonics, cooling) and the Table III
// area model to the paper's published numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "xnoc/topology.hpp"
#include "xphys/area.hpp"
#include "xphys/cooling.hpp"
#include "xphys/dram.hpp"
#include "xphys/photonics.hpp"
#include "xphys/pins.hpp"
#include "xphys/tech.hpp"
#include "xphys/tsv.hpp"
#include "xsim/config.hpp"

namespace {

using xphys::TechNode;

TEST(Tech, AreaScalingRules) {
  // 22 -> 14 nm uses Intel's 0.54 logic factor, both directions.
  EXPECT_DOUBLE_EQ(xphys::area_scale(TechNode::k22nm, TechNode::k14nm), 0.54);
  EXPECT_NEAR(xphys::area_scale(TechNode::k14nm, TechNode::k22nm), 1.852,
              0.001);
  // Other node pairs scale geometrically.
  EXPECT_NEAR(xphys::area_scale(TechNode::k40nm, TechNode::k22nm),
              (22.0 * 22.0) / (40.0 * 40.0), 1e-12);
  EXPECT_DOUBLE_EQ(xphys::area_scale(TechNode::k22nm, TechNode::k22nm), 1.0);
}

TEST(Dram, EightKConfigNeeds676TbPerSec) {
  // Section V-B: 32 channels at 8 B/cycle and 3.3 GHz = 6.76 Tb/s.
  const double bits = xphys::dram_bandwidth_bits_per_sec(32, 3.3e9);
  EXPECT_NEAR(bits / 1e12, 6.76, 0.01);
}

TEST(Pins, Ddr3VersusSerialPinCounts) {
  // "about 4000 pins" for DDR3 x32 channels; 224 for serialized channels.
  EXPECT_NEAR(static_cast<double>(xphys::total_pins(
                  xphys::MemoryInterface::kParallelDdr3, 32)),
              4000.0, 100.0);
  EXPECT_EQ(xphys::total_pins(xphys::MemoryInterface::kHighSpeedSerial, 32),
            224u);
  // Section V-C: 256 serialized channels need 1792 pins.
  EXPECT_EQ(xphys::total_pins(xphys::MemoryInterface::kHighSpeedSerial, 256),
            1792u);
}

TEST(Pins, SerialLaneArithmetic) {
  // One 211.2 Gb/s channel over 32.75 Gb/s GTY lanes needs 7 lanes.
  const double ch = xphys::channel_bits_per_sec(8.0, 3.3e9);
  EXPECT_NEAR(ch / 1e9, 211.2, 0.1);
  EXPECT_EQ(xphys::serial_lanes_for_channel(ch, 32.75), 7u);
}

TEST(Photonics, Wdm10GOn4cm2ChipGives280TbAt168W) {
  // Section V-D's headline: air-cooled WDM transceivers on a 4 cm^2 chip.
  const auto b = xphys::max_bandwidth(xphys::wdm_10g(), 400.0, 600.0);
  EXPECT_NEAR(b.bandwidth_bits_per_sec / 1e12, 280.0, 0.5);
  EXPECT_NEAR(b.power_watts, 168.0, 1.0);
  EXPECT_TRUE(b.area_limited);  // density, not the 600 W budget, binds
}

TEST(Photonics, FasterTransceiversLoseUnderAirCooling) {
  // 30 Gb/s parts at 3-8 pJ/bit are power-bound under the same 600 W and
  // deliver less bandwidth than the WDM option — the paper's conclusion.
  const auto wdm = xphys::max_bandwidth(xphys::wdm_10g(), 400.0, 600.0);
  const auto s3 = xphys::max_bandwidth(xphys::serial_30g_3pj(), 400.0, 600.0);
  const auto s8 = xphys::max_bandwidth(xphys::serial_30g_8pj(), 400.0, 600.0);
  EXPECT_GT(wdm.bandwidth_bits_per_sec, s3.bandwidth_bits_per_sec);
  EXPECT_GT(s3.bandwidth_bits_per_sec, s8.bandwidth_bits_per_sec);
  EXPECT_FALSE(s3.area_limited);
}

TEST(Photonics, MfcCoolingUnlocksFasterParts) {
  // With an MFC-scale power budget the 30G parts overtake the WDM density
  // bound — the 128k x4 enabling step.
  const auto s3 =
      xphys::max_bandwidth(xphys::serial_30g_3pj(), 400.0, 4000.0);
  const auto wdm = xphys::max_bandwidth(xphys::wdm_10g(), 400.0, 4000.0);
  EXPECT_GT(s3.bandwidth_bits_per_sec, wdm.bandwidth_bits_per_sec);
}

TEST(Tsv, PortAndBudgetArithmetic) {
  const xphys::TsvParams p;
  // 50 bits at 3.3 GHz = 165 Gb/s; 5 TSVs of 40 Gb/s per port.
  EXPECT_NEAR(xphys::port_bits_per_sec(p) / 1e9, 165.0, 0.1);
  EXPECT_EQ(xphys::tsvs_per_port(p), 5u);
  // 128k configuration: 4096 + 4096 ports, both directions = 81,920 TSVs.
  EXPECT_EQ(xphys::signal_tsvs(p, 4096, 4096), 81920u);
  // "allows eighteen thousand TSVs for other purposes".
  EXPECT_NEAR(static_cast<double>(xphys::spare_tsvs(p, 4096, 4096)), 18080.0,
              1.0);
  // 100k TSVs at 12 um pitch need 14.4 mm^2.
  EXPECT_NEAR(xphys::tsv_area_mm2(p, 100000), 14.4, 0.01);
}

TEST(Cooling, AirAndMfcLimits) {
  // 4 cm^2 chip: air removes at most 600 W regardless of layer count.
  EXPECT_NEAR(xphys::max_heat_watts(xphys::CoolingTech::kForcedAir, 4.0, 9),
              600.0, 1.0);
  // MFC cools every layer: 9 layers x 4 cm^2 x ~1 kW/cm^2.
  EXPECT_NEAR(
      xphys::max_heat_watts(xphys::CoolingTech::kMicrofluidic, 4.0, 9),
      36000.0, 1.0);
  EXPECT_TRUE(xphys::can_cool(xphys::CoolingTech::kMicrofluidic, 4.0, 9,
                              7000.0));
  EXPECT_FALSE(xphys::can_cool(xphys::CoolingTech::kForcedAir, 4.0, 9,
                               7000.0));
}

// ---------------------------------------------------------------------------
// Area model vs Table III.
// ---------------------------------------------------------------------------

xphys::ChipSpec spec_for(const xsim::MachineConfig& c) {
  xphys::ChipSpec s;
  s.clusters = c.clusters;
  s.memory_modules = c.memory_modules;
  s.fpus_per_cluster = c.fpus_per_cluster;
  s.noc = c.topology();
  s.node = c.node;
  s.dram_channels = c.dram_channels();
  if (c.photonic_io) s.photonic_io_watts = 168.0;
  return s;
}

struct Table3Case {
  const char* name;
  double paper_mm2;
};

/// Prints a case as its preset name with '_' for ' ', e.g. "128k_x2";
/// CMake's gtest discovery names each ctest entry after it (the default
/// printer dumps the struct's bytes, a heap address included).
void PrintTo(const Table3Case& c, std::ostream* os) {
  std::string name = c.name;
  std::replace(name.begin(), name.end(), ' ', '_');
  *os << name;
}

class AreaVsTable3 : public ::testing::TestWithParam<Table3Case> {};

TEST_P(AreaVsTable3, TotalAreaWithinTenPercentOfPaper) {
  const auto [name, paper_mm2] = GetParam();
  xsim::MachineConfig cfg;
  for (const auto& c : xsim::paper_presets()) {
    if (c.name == name) cfg = c;
  }
  const auto r = xphys::estimate_area(spec_for(cfg));
  EXPECT_NEAR(r.total_mm2 / paper_mm2, 1.0, 0.10) << name << ": model "
                                                  << r.total_mm2;
}

INSTANTIATE_TEST_SUITE_P(
    Table3, AreaVsTable3,
    ::testing::Values(Table3Case{"4k", 227.0}, Table3Case{"8k", 551.0},
                      Table3Case{"64k", 3046.0}, Table3Case{"128k x2", 3284.0},
                      Table3Case{"128k x4", 3540.0}));

TEST(AreaModel, LayerCountsMatchTableIII) {
  const int expected_layers[] = {1, 2, 8, 9, 9};
  const auto presets = xsim::paper_presets();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const auto r = xphys::estimate_area(spec_for(presets[i]));
    EXPECT_EQ(r.layers, expected_layers[i]) << presets[i].name;
  }
}

TEST(AreaModel, NocAnchor190mm2) {
  // The calibration must reproduce the paper's stated 190 mm^2 for the
  // 8k pure MoT at 22 nm.
  const auto r = xphys::estimate_area(spec_for(xsim::preset_8k()));
  EXPECT_NEAR(r.noc_mm2, 190.0, 2.0);
}

TEST(PowerModel, X4SystemPowerNear7kW) {
  // Table VI: 7.0 KW peak for the 128k x4 system.
  const auto c = xsim::preset_128k_x4();
  const auto p = xphys::estimate_power(spec_for(c), c.tcus);
  EXPECT_NEAR(p.total_watts / 1000.0, 7.0, 0.35);
}

TEST(PowerModel, EightKChipIsAirCoolable) {
  // Companion-work narrative: the 8k configuration works with air cooling.
  const auto c = xsim::preset_8k();
  const auto spec = spec_for(c);
  const auto p = xphys::estimate_power(spec, c.tcus);
  const auto a = xphys::estimate_area(spec);
  EXPECT_TRUE(xphys::can_cool(xphys::CoolingTech::kForcedAir,
                              a.per_layer_mm2 / 100.0, a.layers,
                              p.chip_watts));
}

}  // namespace
