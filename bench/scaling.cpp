// Scaling studies on the XMT model.
//
// Strong scaling: fixed 512^3 problem across the five configurations
// (how much of each machine's peak the FFT converts into time-to-solution).
// Weak scaling: problem grows with the machine (points per TCU constant).
// Size scaling: each machine across problem sizes (where spawn overhead
// and under-occupancy bite).
//
// All cells are evaluated as one pool-parallel sweep (sweep.hpp).
#include <cstdio>
#include <vector>

#include "sweep.hpp"
#include "xutil/string_util.hpp"
#include "xutil/table.hpp"
#include "xutil/units.hpp"

int main() {
  const auto presets = xsim::paper_presets();

  // Keep ~2048 points per TCU: 4k -> 2^23 points (256^2x128), scale up.
  const xfft::Dims3 weak_dims[] = {
      {256, 256, 128},    // 2^23 for 4k
      {256, 256, 256},    // 2^24 for 8k
      {512, 512, 512},    // 2^27 for 64k
      {1024, 512, 512},   // 2^28 for 128k x2
      {1024, 512, 512},   // 2^28 for 128k x4
  };
  const std::vector<std::size_t> sides = {16, 32, 64, 128, 256, 512};

  // Every (config, size) cell is an independent analytic evaluation; all
  // three studies fan out onto the xpar pool as one sweep and render
  // serially in sweep order afterwards — tables stay byte-identical to a
  // serial run at any thread count.
  std::vector<xbench::SweepPoint> points;
  for (const auto& cfg : presets) {
    points.push_back({cfg, {512, 512, 512}});
  }
  for (std::size_t i = 0; i < presets.size(); ++i) {
    points.push_back({presets[i], weak_dims[i]});
  }
  for (const std::size_t side : sides) {
    for (const auto& cfg : presets) {
      points.push_back({cfg, {side, side, side}});
    }
  }
  const auto cells = xbench::evaluate_sweep(points);
  std::size_t at = 0;

  // --- Strong scaling ---------------------------------------------------
  xutil::Table s("STRONG SCALING: 512^3 ACROSS CONFIGURATIONS");
  s.set_header({"Config", "TCUs", "time (ms)", "GFLOPS", "% of peak",
                "speedup vs 4k", "parallel efficiency"});
  double t_4k = 0.0;
  for (std::size_t i = 0; i < presets.size(); ++i, ++at) {
    const auto& cfg = presets[i];
    const auto& c = cells[at];
    if (cfg.name == "4k") t_4k = c.seconds;
    const double speedup = t_4k / c.seconds;
    const double resources = static_cast<double>(cfg.tcus) / 4096.0;
    s.add_row({cfg.name,
               xutil::format_group(static_cast<long long>(cfg.tcus)),
               xutil::format_fixed(c.seconds * 1e3, 2),
               xutil::format_gflops(c.gflops),
               xutil::format_fixed(
                   100.0 * c.gflops * 1e9 / cfg.peak_flops_per_sec(), 0) +
                   "%",
               xutil::format_fixed(speedup, 1) + "x",
               xutil::format_fixed(speedup / resources, 2)});
  }
  s.add_note("parallel efficiency > 1 where extra FPUs/channels outpace "
             "the TCU growth; < 1 where the hybrid NoC binds");
  std::fputs(s.render().c_str(), stdout);

  // --- Weak scaling -------------------------------------------------------
  xutil::Table w("WEAK SCALING: ~2048 POINTS PER TCU");
  w.set_header({"Config", "problem", "points/TCU", "time (ms)", "GFLOPS"});
  for (std::size_t i = 0; i < presets.size(); ++i, ++at) {
    const auto& cfg = presets[i];
    const auto dims = weak_dims[i];
    const auto& c = cells[at];
    w.add_row({cfg.name, xutil::format_dims3(dims.nx, dims.ny, dims.nz),
               std::to_string(dims.total() / cfg.tcus),
               xutil::format_fixed(c.seconds * 1e3, 2),
               xutil::format_gflops(c.gflops)});
  }
  std::fputs(w.render().c_str(), stdout);

  // --- Size scaling --------------------------------------------------------
  xutil::Table z("SIZE SCALING: GFLOPS BY PROBLEM SIZE (columns: configs)");
  std::vector<std::string> header = {"size"};
  for (const auto& c : presets) header.push_back(c.name);
  z.set_header(header);
  for (const std::size_t side : sides) {
    std::vector<std::string> row = {xutil::format_dims3(side, side, side)};
    for (std::size_t ci = 0; ci < presets.size(); ++ci, ++at) {
      row.push_back(xutil::format_gflops(cells[at].gflops));
    }
    z.add_row(row);
  }
  z.add_note("the knee at small sizes is spawn overhead plus TCU "
             "under-occupancy — why the paper evaluates at 512^3");
  std::fputs(z.render().c_str(), stdout);
  return 0;
}
