// Design-space exploration around the paper's Section V-E choices.
//
// Three sweeps on the analytic model at 512^3:
//  1. FPUs per cluster on the 128k machine — the paper: "We also increase
//     the number of FPUs to four per cluster; beyond this number, we
//     observe diminishing returns."
//  2. MMs per DRAM controller (i.e. off-chip bandwidth) on the 128k
//     machine — the x2 -> x4 step, and why more DRAM stops helping once
//     the ICN binds (observation (c)).
//  3. NoC level splits (denser-network hypotheticals).
//
// All design points are evaluated as one pool-parallel sweep (sweep.hpp).
#include <cstdio>
#include <vector>

#include "sweep.hpp"
#include "xutil/string_util.hpp"
#include "xutil/table.hpp"
#include "xutil/units.hpp"

int main() {
  const xfft::Dims3 dims{512, 512, 512};

  // Assemble every design point of all three sweeps up front so the whole
  // exploration fans out onto the pool as one unit.
  const std::vector<unsigned> fpu_counts = {1, 2, 4, 8, 16};
  const std::vector<unsigned> per_ctrl = {8, 4, 2, 1};
  struct Split {
    unsigned mot, bf;
    const char* note;
  };
  const std::vector<Split> splits = {
      {6, 9, "Table II (area-feasible)"},
      {8, 8, "denser NoC (future node)"},
      {12, 6, "much denser"},
      {24, 0, "pure MoT (760+ mm^2 per Section II-B scaling)"}};

  std::vector<xbench::SweepPoint> points;
  for (const unsigned fpus : fpu_counts) {
    auto cfg = xsim::preset_128k_x4();
    cfg.fpus_per_cluster = fpus;
    cfg.validate();
    points.push_back({cfg, dims});
  }
  for (const unsigned per : per_ctrl) {
    auto cfg = xsim::preset_128k_x2();
    cfg.mms_per_dram_ctrl = per;
    cfg.validate();
    points.push_back({cfg, dims});
  }
  for (const auto& s : splits) {
    auto cfg = xsim::preset_128k_x4();
    cfg.mot_levels = s.mot;
    cfg.butterfly_levels = s.bf;
    cfg.validate();
    points.push_back({cfg, dims});
  }
  const auto cells = xbench::evaluate_sweep(points);
  std::size_t at = 0;

  xutil::Table f("DESIGN SPACE: FPUs PER CLUSTER (128k, DRAM ctrl per MM)");
  f.set_header({"FPUs/cluster", "peak TFLOPS", "FFT GFLOPS",
                "gain vs previous", "binding resource (non-rot)"});
  double prev = 0.0;
  for (std::size_t i = 0; i < fpu_counts.size(); ++i, ++at) {
    const auto& cfg = points[at].cfg;
    const auto& c = cells[at];
    f.add_row({std::to_string(fpu_counts[i]),
               xutil::format_fixed(cfg.peak_flops_per_sec() / 1e12, 0),
               xutil::format_gflops(c.gflops),
               prev > 0.0 ? xutil::format_fixed(
                                100.0 * (c.gflops / prev - 1.0), 1) + "%"
                          : "-",
               c.bound0});
    prev = c.gflops;
  }
  f.add_note("paper (Section V-E): beyond 4 FPUs per cluster, diminishing "
             "returns — the NoC takes over as the binding resource");
  std::fputs(f.render().c_str(), stdout);

  xutil::Table d("DESIGN SPACE: DRAM CHANNELS (128k, 2 FPUs/cluster)");
  d.set_header({"MMs per ctrl", "channels", "off-chip BW", "FFT GFLOPS",
                "gain vs previous"});
  prev = 0.0;
  for (std::size_t i = 0; i < per_ctrl.size(); ++i, ++at) {
    const auto& cfg = points[at].cfg;
    const auto& c = cells[at];
    d.add_row({std::to_string(per_ctrl[i]),
               std::to_string(cfg.dram_channels()),
               xutil::format_bandwidth_bits(cfg.dram_bw_bytes_per_sec() * 8),
               xutil::format_gflops(c.gflops),
               prev > 0.0 ? xutil::format_fixed(
                                100.0 * (c.gflops / prev - 1.0), 1) + "%"
                          : "-"});
    prev = c.gflops;
  }
  d.add_note("the last doubling of DRAM bandwidth buys little: rotation "
             "phases are already NoC-bound (observation (c))");
  std::fputs(d.render().c_str(), stdout);

  xutil::Table n("DESIGN SPACE: NoC LEVEL SPLIT (128k x4 hypotheticals)");
  n.set_header({"MoT + butterfly levels", "FFT GFLOPS", "note"});
  for (std::size_t i = 0; i < splits.size(); ++i, ++at) {
    const auto& s = splits[i];
    n.add_row({std::to_string(s.mot) + " + " + std::to_string(s.bf),
               xutil::format_gflops(cells[at].gflops), s.note});
  }
  n.add_note("the paper's closing point: 'future technology scaling should "
             "allow for a more dense network-on-chip, which would alleviate "
             "the bottleneck'");
  std::fputs(n.render().c_str(), stdout);
  return 0;
}
