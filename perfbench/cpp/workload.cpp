#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "json.hpp"
#include "probes.hpp"
#include "stats.hpp"

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::percentile_metric(const std::string& name,
                               const std::vector<double>& samples, double p,
                               const std::string& unit) {
  const Summary s = summarize(samples);
  char tail[32];
  if (s.tail_rank > 0.0) {
    std::snprintf(tail, sizeof(tail), "p%g", s.tail_rank);
  } else {
    std::snprintf(tail, sizeof(tail), "max");
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "detail %-30s median %.6g  q1 %.6g  q3 %.6g  %s %.6g  n %zu",
                name.c_str(), s.median, s.q1, s.q3, tail, s.tail, s.n);
  std::string line = buf;
  const double value = p == 50.0 ? s.median : percentile(samples, p);
  if (p != 50.0) {
    std::snprintf(buf, sizeof(buf), "  reported p%g %.6g", p, value);
    line += buf;
  }
  notes_.push_back(line);
  metric(name, value, unit);
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) ++failed_;
  notes_.push_back(std::string(ok ? "check ok   " : "check FAIL ") + what);
  return ok;
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

bool same_bytes(std::span<const std::complex<float>> a,
                std::span<const std::complex<float>> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

double standard_flops(std::uint64_t n) {
  return 5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
}

unsigned bench_lanes() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

ProbeRates run_probes(Report& report) {
  ProbeRates p;
  p.memcpy_gbps = probe_memcpy_gbps(kProbeBytes, 5);
  p.peak_gflops = probe_peak_gflops(5);
  report.metric("probe.memcpy_gbps", p.memcpy_gbps, "GB/s");
  report.metric("probe.peak_gflops", p.peak_gflops, "GFLOP/s");
  report.note("probe memcpy over 2 x " + std::to_string(kProbeBytes >> 20) +
              " MiB arrays; bytes counted read + write");
  return p;
}

}  // namespace perfbench
