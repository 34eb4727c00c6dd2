// Ablation: depth-first vs breadth-first recursion order (Section IV-A).
//
// Breadth-first (iterative) exposes maximal parallelism at the price of a
// full-size working set; depth-first (recursive, cache-oblivious) shrinks
// the working set but the available parallelism decays with depth. Two
// views: (1) available parallelism per level against each configuration's
// TCU count; (2) host-CPU timing of the engines (on a serial cache-based
// CPU the depth-first/four-step engines are competitive — the opposite of
// the XMT trade-off, which is the point).
#include <chrono>
#include <cstdio>

#include "xfft/engines.hpp"
#include "xfft/plan1d.hpp"
#include "xsim/config.hpp"
#include "xutil/rng.hpp"
#include "xutil/string_util.hpp"
#include "xutil/table.hpp"
#include "xutil/units.hpp"

int main() {
  // View 1: parallelism available to a radix-8 breadth-first FFT of 256^3
  // (the paper: "2 million threads are available") versus depth-first,
  // whose butterfly-level parallelism halves per recursion level.
  const std::uint64_t n = 256ull * 256 * 256;
  xutil::Table p("PARALLELISM: BREADTH-FIRST vs DEPTH-FIRST (256^3)");
  p.set_header({"Configuration", "TCUs", "breadth-first threads",
                "BF occupancy", "depth-first threads @ level 3",
                "DF occupancy @ level 3"});
  for (const auto& cfg : xsim::paper_presets()) {
    const std::uint64_t bf_threads = n / 8;
    // Depth-first at recursion level d solves subproblems of size n/8^d
    // sequentially inside each branch: concurrent butterflies = 8^d *
    // (subproblem butterflies at the CURRENT level only) -> n/8 total but
    // only n/(8^(d+1)) per subproblem are co-scheduled along one path.
    const std::uint64_t df_threads = n / (8ull * 8 * 8 * 8);
    p.add_row({cfg.name,
               xutil::format_group(static_cast<long long>(cfg.tcus)),
               xutil::format_group(static_cast<long long>(bf_threads)),
               xutil::format_fixed(
                   std::min(1.0, static_cast<double>(bf_threads) /
                                     static_cast<double>(cfg.tcus)),
                   2),
               xutil::format_group(static_cast<long long>(df_threads)),
               xutil::format_fixed(
                   std::min(1.0, static_cast<double>(df_threads) /
                                     static_cast<double>(cfg.tcus)),
                   2)});
  }
  p.add_note("breadth-first keeps every TCU busy on all configurations; "
             "depth-first starves the large ones at depth");
  std::fputs(p.render().c_str(), stdout);

  // View 2: host engines.
  xutil::Table h("HOST ENGINES (this CPU, forward transform)");
  h.set_header({"n", "iterative DIF r8 (ms)", "recursive DIT r2 (ms)",
                "Stockham r2 (ms)", "four-step (ms)"});
  xutil::Pcg32 rng(3);
  for (const std::size_t sz : {1u << 14, 1u << 16, 1u << 18}) {
    std::vector<xfft::Cf> base(sz);
    for (auto& v : base) {
      v = xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
    }
    const auto time_ms = [&](auto&& fn) {
      auto work = base;
      const int reps = 6;
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < reps; ++i) {
        fn(std::span<xfft::Cf>(work));
      }
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double>(t1 - t0).count() / reps * 1e3;
    };
    xfft::Plan1D<float> plan(sz, xfft::Direction::kForward,
                             xfft::PlanOptions{.scaling = xfft::Scaling::kNone});
    std::vector<xfft::Cf> scratch(plan.scratch_size());
    const auto run_plan = [&](auto s) { plan.execute(s, scratch); };
    h.add_row(
        {std::to_string(sz), xutil::format_fixed(time_ms(run_plan), 3),
         xutil::format_fixed(time_ms([&](auto s) {
                               xfft::fft_radix2_dit_recursive(
                                   s, xfft::Direction::kForward);
                             }),
                             3),
         xutil::format_fixed(time_ms([&](auto s) {
                               xfft::fft_stockham(s,
                                                  xfft::Direction::kForward);
                             }),
                             3),
         xutil::format_fixed(time_ms([&](auto s) {
                               xfft::fft_four_step(
                                   s, xfft::Direction::kForward, 4096);
                             }),
                             3)});
  }
  std::fputs(h.render().c_str(), stdout);
  return 0;
}
