// Ablation: fused vs separate axis rotation (Sections IV-A and VI-B).
//
// "The rotation is combined with the last iteration of the computation to
// reduce the number of synchronization points and round trips to memory."
// A separate rotation pass reads and writes every point once more per
// dimension: 12 memory passes instead of 9 for a 3-D transform. Model
// sweep on every configuration plus a host-CPU check of the two PlanND
// modes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "xfft/fftnd.hpp"
#include "xfft/plan1d.hpp"
#include "xsim/perf_model.hpp"
#include "xutil/rng.hpp"
#include "xutil/string_util.hpp"
#include "xutil/table.hpp"
#include "xutil/units.hpp"

namespace {

/// Phase list for the separate-rotation variant: butterfly iterations lose
/// their rotation flag (in-place, streaming) and each dimension gains a
/// pure copy pass with the rotation's scatter pattern.
std::vector<xfft::KernelPhase> separate_rotation_phases(xfft::Dims3 dims) {
  auto phases = xfft::build_fft_phases(dims, 8);
  std::vector<xfft::KernelPhase> out;
  const std::uint64_t n = dims.total();
  for (auto ph : phases) {
    const bool was_rotation = ph.rotation;
    ph.rotation = false;
    const std::string dim_name = "dim" + std::to_string(ph.dim);
    out.push_back(ph);
    if (was_rotation) {
      xfft::KernelPhase rot;
      rot.name = dim_name + ".rotate";
      rot.dim = ph.dim;
      rot.iter = ph.iter + 1;
      rot.radix = 1;
      rot.rotation = true;
      rot.threads = n / 8;  // 8 points per copy thread
      rot.data_word_reads = 2 * n;
      rot.data_word_writes = 2 * n;
      rot.twiddle_word_reads = 0;
      rot.flops = 0;
      rot.int_instructions =
          rot.threads * (xfft::kAddrOpsPerAccess * 32 +
                         xfft::kControlOpsPerThread);
      rot.distinct_twiddles = 0;
      out.push_back(rot);
    }
  }
  return out;
}

}  // namespace

int main() {
  const xfft::Dims3 dims{512, 512, 512};

  xutil::Table t("ABLATION: FUSED vs SEPARATE ROTATION (model, 512^3)");
  t.set_header({"Configuration", "fused (GFLOPS)", "separate (GFLOPS)",
                "fused speedup", "memory passes"});
  for (const auto& cfg : xsim::paper_presets()) {
    const xsim::FftPerfModel model(cfg);
    const auto fused = model.analyze_fft(dims);
    const auto sep_phases = separate_rotation_phases(dims);
    const auto separate = model.analyze(dims, sep_phases);
    t.add_row({cfg.name, xutil::format_gflops(fused.standard_gflops),
               xutil::format_gflops(separate.standard_gflops),
               xutil::format_fixed(
                   fused.standard_gflops / separate.standard_gflops, 2) +
                   "x",
               "9 vs 12"});
  }
  t.add_note("the fused variant saves one full read+write pass per "
             "dimension — worth ~25-30% on a bandwidth-bound machine");
  std::fputs(t.render().c_str(), stdout);

  // Host check: both PlanND modes compute identical results; the fused
  // mode does one fewer pass per dimension on the host too. 32^3 and 64^3
  // stay below four times the L2 (plain stores in the fused scatter);
  // 128^2*64 and 128^3 do not (streamed whole-line stores).
  const xfft::LaneWidth lanes = xfft::lane_width<float>();
  xutil::Table h("HOST REFERENCE: PlanND modes (this CPU, " +
                 std::to_string(lanes.lanes) + " float lanes (" + lanes.isa +
                 "))");
  h.set_header({"size", "fused (ms)", "separate (ms)", "fused GFLOPS",
                "separate GFLOPS"});
  for (const xfft::Dims3 hd : {xfft::Dims3{32, 32, 32}, xfft::Dims3{64, 64, 64},
                               xfft::Dims3{128, 128, 64},
                               xfft::Dims3{128, 128, 128}}) {
    std::vector<xfft::Cf> base(hd.total());
    xutil::Pcg32 rng(9);
    for (auto& v : base) {
      v = xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
    }
    std::vector<std::string> ms;
    std::vector<std::string> gflops;
    for (const auto mode : {xfft::RotationMode::kFusedRotation,
                            xfft::RotationMode::kSeparate}) {
      xfft::PlanND<float> plan(hd, xfft::Direction::kForward,
                               xfft::PlanND<float>::Options{.rotation = mode});
      std::vector<xfft::Cf> work;
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        work = base;
        const auto t0 = std::chrono::steady_clock::now();
        plan.execute(std::span<xfft::Cf>(work));
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
      }
      ms.push_back(xutil::format_fixed(best * 1e3, 2));
      gflops.push_back(xutil::format_fixed(
          xfft::standard_fft_flops(hd.total()) / best / 1e9, 2));
    }
    h.add_row({xutil::format_dims3(hd.nx, hd.ny, hd.nz), ms[0], ms[1],
               gflops[0], gflops[1]});
  }
  h.add_note("best of 3 forward transforms on the global pool; GFLOPS by "
             "5 N log2 N");
  std::fputs(h.render().c_str(), stdout);
  return 0;
}
