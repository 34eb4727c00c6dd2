// Analytic design-point sweeps for the bench drivers.
//
// A sweep is a list of independent FftPerfModel evaluations. They fan out
// onto the xpar pool into slots indexed by point, and the caller renders
// its tables serially in sweep order, so the output is byte-identical at
// any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xpar/pool.hpp"
#include "xsim/perf_model.hpp"

namespace xbench {

/// One analytic design point of a sweep.
struct SweepPoint {
  xsim::MachineConfig cfg;
  xfft::Dims3 dims;
};

/// The fields the tables need; everything else is derivable from the
/// configuration.
struct SweepCell {
  double gflops = 0.0;
  double seconds = 0.0;
  std::string bound0;  ///< binding resource of the first (non-rot) phase
};

/// Evaluates every point on the xpar pool.
inline std::vector<SweepCell> evaluate_sweep(
    const std::vector<SweepPoint>& points) {
  std::vector<SweepCell> cells(points.size());
  xpar::parallel_for(0, static_cast<std::int64_t>(points.size()), 1,
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) {
                         const auto k = static_cast<std::size_t>(i);
                         const auto r = xsim::FftPerfModel(points[k].cfg)
                                            .analyze_fft(points[k].dims);
                         cells[k].gflops = r.standard_gflops;
                         cells[k].seconds = r.total_seconds;
                         cells[k].bound0 =
                             xsim::bound_name(r.phases[0].bound);
                       }
                     });
  return cells;
}

}  // namespace xbench
