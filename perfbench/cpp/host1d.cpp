// host1d_mix: a seeded, closed-loop stream of rank-1 forward and inverse
// transforms through PlanCache::global().plan_1d, on one thread. Sizes are
// radix-8 powers of two (1024, 4096, 16384) and smooth sizes on the
// generic-radix path (768, 1000); every transform fits in L2.
//
// The stream is cut into batches, each the same multiset of requests in a
// seeded order, so batch throughputs are comparable and their median is the
// run's figure.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>

#include "inputs.hpp"
#include "stats.hpp"
#include "sysinfo.hpp"
#include "workload.hpp"
#include "xfft/dft_reference.hpp"
#include "xfft/plan_cache.hpp"
#include "xutil/aligned.hpp"

namespace perfbench {

namespace {

using xfft::Cd;
using xfft::Cf;
using xfft::Direction;
using BufF = xutil::AlignedVector<Cf>;

constexpr std::size_t kMaxN = 16384;
constexpr int kSetupReps = 101;
constexpr int kMinBatches = 20;
constexpr double kGflopsPercentile = 99.0;
constexpr double kRoundTripTol = 1e-5;
constexpr double kFloatErrTol = 1e-5;

Direction dir_of(bool inverse) {
  return inverse ? Direction::kInverse : Direction::kForward;
}

bool is_pow2(std::size_t n) { return (n & (n - 1)) == 0; }

/// The seeded inputs: kMixInputsPerSize per size, keyed by size.
std::map<std::size_t, std::vector<BufF>> make_inputs(std::uint64_t seed) {
  std::map<std::size_t, std::vector<BufF>> inputs;
  for (std::size_t s = 0; s < std::size(kMixSizes); ++s) {
    auto& v = inputs[kMixSizes[s]];
    for (unsigned k = 0; k < kMixInputsPerSize; ++k) {
      v.emplace_back(kMixSizes[s]);
      fill_signal(seed, 100 + s * 16 + k,
                  std::span<Cf>(v.back().data(), v.back().size()));
    }
  }
  return inputs;
}

/// Time and flops of one batch, split by size class.
struct BatchTime {
  double seconds = 0.0;
  double flops = 0.0;
  std::array<double, 2> class_seconds{};  // [pow2, smooth]
  std::array<double, 2> class_flops{};
};

/// Runs one batch: per request, copy its input (untimed), then time the
/// plan lookup and execute. Spans wrap the calls when `tr` is non-null.
BatchTime run_batch(const std::vector<MixItem>& batch,
                    const std::map<std::size_t, std::vector<BufF>>& inputs,
                    BufF& buf, BufF& scratch, Tracer* tr) {
  auto& cache = xfft::PlanCache::global();
  BatchTime bt;
  for (const MixItem& item : batch) {
    const BufF& in = inputs.at(item.n)[item.input];
    std::copy(in.begin(), in.end(), buf.begin());
    const std::span<Cf> data(buf.data(), item.n);
    const std::span<Cf> scr(scratch.data(), item.n);
    const auto t0 = Clock::now();
    if (tr != nullptr) {
      std::shared_ptr<xfft::Plan1D<float>> plan;
      {
        Span s(*tr, "plancache.lookup");
        plan = cache.plan_1d(item.n, dir_of(item.inverse));
      }
      Span s(*tr, "rows");
      plan->execute(data, scr);
    } else {
      cache.plan_1d(item.n, dir_of(item.inverse))->execute(data, scr);
    }
    const double t = seconds_since(t0);
    const double f = standard_flops(item.n);
    const std::size_t cls = is_pow2(item.n) ? 0 : 1;
    bt.seconds += t;
    bt.flops += f;
    bt.class_seconds[cls] += t;
    bt.class_flops[cls] += f;
  }
  return bt;
}

void run_untraced(const RunConfig& cfg, Report& report) {
  auto& cache = xfft::PlanCache::global();
  const auto inputs = make_inputs(cfg.seed);

  // Set-up: the cache misses of the stream's ten (size, direction) plans,
  // from an empty cache, kSetupReps times. The last fill stays for the run.
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    cache.clear();
    const auto t0 = Clock::now();
    for (const std::size_t n : kMixSizes) {
      for (const bool inverse : {false, true}) {
        (void)cache.plan_1d(n, dir_of(inverse));
      }
    }
    setup.push_back(seconds_since(t0));
  }

  BufF buf(kMaxN);
  BufF scratch(kMaxN);
  InputRng order(cfg.seed, 7);
  std::vector<double> gflops;
  const auto t0 = Clock::now();
  while (static_cast<int>(gflops.size()) < kMinBatches ||
         seconds_since(t0) < cfg.seconds) {
    const auto batch = mix_batch(order);
    const BatchTime bt = run_batch(batch, inputs, buf, scratch, nullptr);
    gflops.push_back(bt.flops / bt.seconds / 1e9);
    report.attempted(static_cast<std::int64_t>(batch.size()));
  }
  const double rss = peak_rss_mib();

  // Gates per size on the first seeded input: forward against the
  // double-precision dft_reference, and inverse(forward(x)) against x.
  double worst_err = 0.0;
  for (const std::size_t n : kMixSizes) {
    const BufF& in = inputs.at(n)[0];
    BufF y(in);
    const std::span<Cf> ys(y.data(), n);
    cache.plan_1d(n, Direction::kForward)
        ->execute(ys, std::span<Cf>(scratch.data(), n));
    const std::vector<Cd> x(in.begin(), in.end());
    std::vector<Cd> exact(n);
    xfft::dft_reference(x, exact, Direction::kForward);
    const double err = rel_rms<float, double>(ys, exact);
    worst_err = std::max(worst_err, err);
    report.check(err <= kFloatErrTol, "n=" + std::to_string(n) +
                                          " forward vs dft_reference rel RMS " +
                                          sci(err) + " <= 1e-5");
    cache.plan_1d(n, Direction::kInverse)
        ->execute(ys, std::span<Cf>(scratch.data(), n));
    const double rt = rel_rms<float, float>(
        ys, std::span<const Cf>(in.data(), in.size()));
    report.check(rt <= kRoundTripTol, "n=" + std::to_string(n) +
                                          " round trip rel RMS " +
                                          sci(rt) + " <= 1e-5");
  }

  // Batches last milliseconds, and a shared core's speed flips on that
  // scale with its other tenants' load. The median follows the share of
  // slowed batches, which drifts over minutes, and so does the 90th
  // percentile when that share passes nine in ten. The 99th percentile
  // (about 30 batches beyond it) is the rate of an unslowed batch.
  report.percentile_metric("gflops", gflops, kGflopsPercentile, "GFLOP/s");
  report.metric("rel_err", worst_err, "ratio");
  report.median_metric("setup_s", setup, "s");
  report.metric("peak_rss_mb", rss, "MiB");
}

void run_traced(const RunConfig& cfg, Report& report, Tracer& tr) {
  auto& cache = xfft::PlanCache::global();
  const ProbeRates probe = run_probes(report);
  const auto inputs = make_inputs(cfg.seed);
  BufF buf(kMaxN);
  BufF scratch(kMaxN);
  const int batches = std::max(kMinBatches, static_cast<int>(cfg.seconds * 20));

  // Untraced batches first (they also take the cache's misses), then the
  // same number traced; both draw from one seeded order.
  cache.clear();
  const std::uint64_t hits0 = cache.hits();
  const std::uint64_t misses0 = cache.misses();
  InputRng order(cfg.seed, 7);
  std::vector<std::vector<MixItem>> stream;
  for (int b = 0; b < 2 * batches; ++b) stream.push_back(mix_batch(order));
  std::vector<double> untraced_s;
  BatchTime sum;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    const BatchTime bt = run_batch(stream[b], inputs, buf, scratch,
                                   nullptr);
    untraced_s.push_back(seconds_since(t0));
    for (std::size_t c = 0; c < 2; ++c) {
      sum.class_seconds[c] += bt.class_seconds[c];
      sum.class_flops[c] += bt.class_flops[c];
    }
  }
  std::vector<double> traced_s;
  for (int b = batches; b < 2 * batches; ++b) {
    tr.set_run(b);
    const auto t0 = Clock::now();
    {
      Span s(tr, "batch");
      run_batch(stream[b], inputs, buf, scratch, &tr);
    }
    traced_s.push_back(seconds_since(t0));
  }
  report.attempted(static_cast<std::int64_t>(2 * batches) *
                   static_cast<std::int64_t>(stream[0].size()));
  const double hits = static_cast<double>(cache.hits() - hits0);
  const double misses = static_cast<double>(cache.misses() - misses0);

  // Butterfly stages alone over the traced batches' requests.
  double actual_flops = 0.0;
  for (int b = batches; b < 2 * batches; ++b) {
    tr.set_run(b);
    for (const MixItem& item : stream[b]) {
      const BufF& in = inputs.at(item.n)[item.input];
      std::copy(in.begin(), in.end(), buf.begin());
      const auto plan = cache.plan_1d(item.n, dir_of(item.inverse));
      actual_flops += static_cast<double>(plan->actual_flops());
      Span s(tr, "butterfly");
      plan->execute_digit_reversed(std::span<Cf>(buf.data(), item.n));
    }
  }

  // Cost of a lookup that hits, timed in blocks to amortize the clock.
  std::vector<double> hit_ns;
  for (int r = 0; r < 50; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 200; ++i) {
      (void)cache.plan_1d(kMixSizes[i % std::size(kMixSizes)],
                          dir_of(i % 2 == 1));
    }
    hit_ns.push_back(seconds_since(t0) * 1e9 / 200.0);
  }

  const double per_batch = 1.0 / batches;
  const double rows_s = tr.self_s("rows") * per_batch;
  const double bfly_s = tr.self_s("butterfly") * per_batch;
  const double bfly_gflops = actual_flops * per_batch / bfly_s / 1e9;
  report.metric("host.rows.s", rows_s, "s");
  report.metric("host.butterfly.s", bfly_s, "s");
  report.metric("host.butterfly.gflops", bfly_gflops, "GFLOP/s");
  report.metric("host.butterfly.frac_peak", bfly_gflops / probe.peak_gflops,
                "ratio");
  report.metric("host.reorder.s", rows_s - bfly_s, "s");
  report.metric("plancache.hits", hits, "count");
  report.metric("plancache.misses", misses, "count");
  report.metric("plancache.hit_ns", median(hit_ns), "ns");
  report.metric("mix.pow2.gflops",
                sum.class_flops[0] / sum.class_seconds[0] / 1e9, "GFLOP/s");
  report.metric("mix.smooth.gflops",
                sum.class_flops[1] / sum.class_seconds[1] / 1e9, "GFLOP/s");
  report.metric("trace.overhead_frac", median(traced_s) / median(untraced_s),
                "ratio");
  report.note("host.rows.s and host.butterfly.s are seconds per batch of " +
              std::to_string(stream[0].size()) + " transforms");
  report.note("derived host.reorder.s = host.rows.s - host.butterfly.s");
}

}  // namespace

void run_host1d(const RunConfig& cfg, Report& report, Tracer& tracer) {
  if (cfg.trace) {
    run_traced(cfg, report, tracer);
  } else {
    run_untraced(cfg, report);
  }
}

}  // namespace perfbench
