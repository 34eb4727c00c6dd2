#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (v.size() == 1) return v[0];
  std::sort(v.begin(), v.end());
  // Like Python, the bracketing pair is clamped to the first/last two
  // samples, so ranks outside [1, n] extrapolate linearly.
  const double pos = p / 100.0 * static_cast<double>(v.size() + 1);
  const double lo = std::clamp(std::floor(pos), 1.0,
                               static_cast<double>(v.size() - 1));
  const auto j = static_cast<std::size_t>(lo);
  return v[j - 1] + (pos - lo) * (v[j] - v[j - 1]);
}

Quartiles quartiles(const std::vector<double>& v) {
  return {percentile(v, 25.0), percentile(v, 50.0), percentile(v, 75.0)};
}

double tail_percentile_rank(std::size_t n, std::size_t tail) {
  // Ranks in tenths of a percent, so the test is exact integer arithmetic.
  for (const std::size_t p10 : {999, 990, 950, 900, 750, 500}) {
    if (n * (1000 - p10) >= tail * 1000) return static_cast<double>(p10) / 10.0;
  }
  return 0.0;
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  const Quartiles q = quartiles(v);
  s.median = median(v);
  s.q1 = q.q1;
  s.q3 = q.q3;
  s.tail_rank = tail_percentile_rank(v.size());
  s.tail = s.tail_rank > 0.0 ? percentile(v, s.tail_rank)
                             : *std::max_element(v.begin(), v.end());
  return s;
}

}  // namespace perfbench
