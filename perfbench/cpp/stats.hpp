// Order statistics for benchmark samples.
//
// Quantiles use the "exclusive" method of Python's statistics.quantiles
// (the default), so a quartile printed here equals the one a reader gets
// from the same samples in Python.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `v`; NaN when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Percentile p in [0, 100] by the exclusive method: rank p/100*(n+1)
/// (1-based) interpolated between neighbours, exactly as Python computes it.
/// NaN when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The three cut points statistics.quantiles(v, n=4) returns.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(const std::vector<double>& v);

/// Highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that leaves at
/// least `tail` samples above it among `n`; 0 when none does.
[[nodiscard]] double tail_percentile_rank(std::size_t n, std::size_t tail = 10);

/// A timing reported as the choosing-metrics rule asks: median, quartiles,
/// the highest percentile with at least ten samples beyond it, and n.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail_rank = 0.0;  ///< 0 when n is too small for any tail
  double tail = 0.0;       ///< value at tail_rank (max when tail_rank == 0)
};
[[nodiscard]] Summary summarize(const std::vector<double>& v);

}  // namespace perfbench
