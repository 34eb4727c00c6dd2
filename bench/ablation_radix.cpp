// Ablation: choice of radix (Section IV-A).
//
// "The advantage of choosing a larger r is that fewer accesses to shared
// memory are required ... larger r also results in reduced parallelism
// [and] more local storage." On a bandwidth-bound machine the memory-pass
// count wins: radix 8 needs 9 passes over 512^3 where radix 2 needs 27.
// Model sweep on every configuration, plus a host-CPU timing of the same
// plans for reference.
#include <chrono>
#include <cstdio>

#include "xfft/plan1d.hpp"
#include "xsim/perf_model.hpp"
#include "xutil/rng.hpp"
#include "xutil/string_util.hpp"
#include "xutil/table.hpp"
#include "xutil/units.hpp"

int main() {
  const xfft::Dims3 dims{512, 512, 512};

  xutil::Table t("ABLATION: RADIX 2 vs 4 vs 8 (model, 512^3, GFLOPS 5NlogN)");
  t.set_header({"Configuration", "radix 2", "radix 4", "radix 8",
                "r8 / r2 speedup"});
  for (const auto& cfg : xsim::paper_presets()) {
    const xsim::FftPerfModel model(cfg);
    const double g2 = model.analyze_fft(dims, 2).standard_gflops;
    const double g4 = model.analyze_fft(dims, 4).standard_gflops;
    const double g8 = model.analyze_fft(dims, 8).standard_gflops;
    t.add_row({cfg.name, xutil::format_gflops(g2), xutil::format_gflops(g4),
               xutil::format_gflops(g8),
               xutil::format_fixed(g8 / g2, 2) + "x"});
  }
  t.add_note("radix 8: 9 memory passes; radix 4: 14; radix 2: 27");
  std::fputs(t.render().c_str(), stdout);

  // Host reference: the same plans on this machine (one core).
  const std::size_t n = 1 << 18;
  std::vector<xfft::Cf> data(n);
  xutil::Pcg32 rng(7);
  for (auto& v : data) v = xfft::Cf(rng.next_signed_unit(),
                                    rng.next_signed_unit());
  xutil::Table h("HOST REFERENCE: Plan1D on this CPU (n = 2^18)");
  h.set_header({"max radix", "time per transform (ms)", "GFLOPS (5NlogN)"});
  for (const unsigned radix : {2u, 4u, 8u}) {
    xfft::Plan1D<float> plan(n, xfft::Direction::kForward,
                             xfft::PlanOptions{.max_radix = radix});
    auto work = data;
    std::vector<xfft::Cf> scratch(n);
    const int reps = 10;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      plan.execute(std::span<xfft::Cf>(work), scratch);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration<double>(t1 - t0).count() / reps;
    h.add_row({std::to_string(radix), xutil::format_fixed(sec * 1e3, 2),
               xutil::format_fixed(
                   xfft::standard_fft_flops(n) / sec / 1e9, 2)});
  }
  std::fputs(h.render().c_str(), stdout);
  return 0;
}
