// What every workload shares: its configuration, the report it fills, and
// small helpers for timing and comparing buffers.
#pragma once

#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Metrics, detail lines and the pass/fail ledger of one run.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void metric(const std::string& name, double value, const std::string& unit);
  /// A metric reported as the median of `samples`, with its quartiles,
  /// tail percentile and sample count kept as a detail line.
  void median_metric(const std::string& name,
                     const std::vector<double>& samples,
                     const std::string& unit) {
    percentile_metric(name, samples, 50.0, unit);
  }
  /// The same, reporting the `p`-th percentile of `samples` instead.
  void percentile_metric(const std::string& name,
                         const std::vector<double>& samples, double p,
                         const std::string& unit);
  /// Counts `n` operations as attempted (and succeeded).
  void attempted(std::int64_t n = 1) { attempted_ += n; }
  /// One output gate: counts as an operation, and as failed when !ok.
  bool check(bool ok, const std::string& what);
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }
  [[nodiscard]] std::int64_t attempted_count() const { return attempted_; }
  [[nodiscard]] std::int64_t failed_count() const { return failed_; }
  [[nodiscard]] bool has(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Relative RMS difference sqrt(sum |got - ref|^2 / sum |ref|^2).
template <typename A, typename B>
double rel_rms(std::span<const std::complex<A>> got,
               std::span<const std::complex<B>> ref) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::complex<double> g(got[i].real(), got[i].imag());
    const std::complex<double> r(ref[i].real(), ref[i].imag());
    num += std::norm(g - r);
    den += std::norm(r);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// `v` in three significant digits, for check messages.
std::string sci(double v);

/// True when the two buffers hold the same bytes.
bool same_bytes(std::span<const std::complex<float>> a,
                std::span<const std::complex<float>> b);

/// The paper's 5 N log2 N flop convention for one N-point transform, with
/// the exact log2 (xfft::standard_fft_flops floors it, which under-counts
/// the mix's smooth sizes 768 and 1000).
double standard_flops(std::uint64_t n);

/// Pool lanes the benchmark uses: min(nproc, 4).
unsigned bench_lanes();

// Workloads. Untraced runs fill the end-to-end metrics; traced runs
// (cfg.trace) fill the per-layer metrics and record spans into `tracer`.
/// host3d_256 (pool false) and host3d_256_pool (pool true).
void run_host3d(const RunConfig& cfg, Report& report, Tracer& tracer,
                bool pool);
void run_host1d(const RunConfig& cfg, Report& report, Tracer& tracer);
void run_simfft(const RunConfig& cfg, Report& report, Tracer& tracer);

/// Roofline probe sizes shared by every traced run.
inline constexpr std::size_t kProbeBytes = std::size_t{512} << 20;
/// Runs both probes and reports probe.memcpy_gbps and probe.peak_gflops.
struct ProbeRates {
  double memcpy_gbps = 0.0;
  double peak_gflops = 0.0;
};
ProbeRates run_probes(Report& report);

}  // namespace perfbench
