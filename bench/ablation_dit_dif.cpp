// Ablation: decimation-in-time vs decimation-in-frequency (Section IV-A).
//
// "Using decimation-in-time, roots of unity become increasingly
// fine-grained, starting with 2nd roots ... This is reversed for
// decimation-in-frequency, which starts by using the Nth roots ... We
// chose decimation-in-frequency because it more naturally fits the
// replication scheme": the set of roots only shrinks (a subset chain), so
// dead table slots can be recycled into replicas. DIT's root set *grows*,
// so a replicated table would need progressive re-initialization.
//
// This bench quantifies that: per iteration, the distinct-root working set
// and the resulting per-location read pressure (reads per root) for both
// orders, plus a host-engine timing (DIT recursive vs DIF iterative).
#include <chrono>
#include <cstdio>
#include <vector>

#include "xfft/engines.hpp"
#include "xfft/plan1d.hpp"
#include "xutil/rng.hpp"
#include "xutil/string_util.hpp"
#include "xutil/table.hpp"

int main() {
  const std::size_t n = 512;
  const unsigned r = 8;
  const std::size_t iters = 3;  // 512 = 8^3

  xutil::Table t("TWIDDLE WORKING SET BY ITERATION (n = 512, radix 8)");
  t.set_header({"Iteration", "DIF distinct roots", "DIF reads/root",
                "DIT distinct roots", "DIT reads/root", "table recyclable?"});
  const std::size_t reads_per_iter = (n / r) * (r - 1);  // 7 per butterfly
  for (std::size_t s = 0; s < iters; ++s) {
    // DIF: iteration s uses the n/r^s-th roots (block length shrinks).
    std::size_t dif_roots = n;
    for (std::size_t k = 0; k < s; ++k) dif_roots /= r;
    // DIT: the mirror order.
    std::size_t dit_roots = n;
    for (std::size_t k = 0; k + 1 < iters - s; ++k) dit_roots /= r;
    t.add_row({std::to_string(s), std::to_string(dif_roots),
               xutil::format_fixed(
                   static_cast<double>(reads_per_iter) / dif_roots, 1),
               std::to_string(dit_roots),
               xutil::format_fixed(
                   static_cast<double>(reads_per_iter) / dit_roots, 1),
               "DIF: yes (subset chain); DIT: no (set grows)"});
  }
  t.add_note("DIF's later iterations concentrate reads on few roots — "
             "exactly where the decimating replication scheme has already "
             "spread replicas; under DIT the hot iterations come FIRST, "
             "before any recycling is possible");
  std::fputs(t.render().c_str(), stdout);

  // Host timing: the two recursion orders as implemented.
  xutil::Table h("HOST ENGINES: DIF ITERATIVE vs DIT RECURSIVE");
  h.set_header({"n", "DIF iterative r8 (ms)", "DIT recursive r2 (ms)"});
  xutil::Pcg32 rng(5);
  for (const std::size_t sz : {1u << 14, 1u << 17}) {
    std::vector<xfft::Cf> base(sz);
    for (auto& v : base) {
      v = xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
    }
    const auto time_ms = [&](auto&& fn) {
      auto work = base;
      const int reps = 6;
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < reps; ++i) fn(std::span<xfft::Cf>(work));
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double>(t1 - t0).count() / reps * 1e3;
    };
    xfft::Plan1D<float> plan(sz, xfft::Direction::kForward,
                             xfft::PlanOptions{.scaling = xfft::Scaling::kNone});
    std::vector<xfft::Cf> scratch(sz);
    const auto run_plan = [&](auto s) { plan.execute(s, scratch); };
    h.add_row({std::to_string(sz), xutil::format_fixed(time_ms(run_plan), 3),
               xutil::format_fixed(time_ms([&](auto s) {
                                     xfft::fft_radix2_dit_recursive(
                                         s, xfft::Direction::kForward);
                                   }),
                                   3)});
  }
  std::fputs(h.render().c_str(), stdout);
  return 0;
}
