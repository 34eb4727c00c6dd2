// host3d_256 and host3d_256_pool: PlanND<float> at 256^3 in its shipped
// default mode (fused rotation), alternating forward and inverse, every
// transform starting from the seeded input. host3d_256 runs the transforms
// on one thread; host3d_256_pool runs them on the xpar pool and checks each
// output against the 1-thread output byte for byte.
//
// The traced run (the same for both workloads) instead replays one forward
// transform through the public calls PlanND is built from (per axis: row
// execute then rotate_axes, or row execute_scatter_affine), checks that each
// replay reproduces PlanND::execute byte for byte, and times the rows once
// more with execute_digit_reversed to split butterflies from the reorder.
#include <algorithm>
#include <memory>
#include <string>

#include "inputs.hpp"
#include "stats.hpp"
#include "sysinfo.hpp"
#include "workload.hpp"
#include "xfft/dft_reference.hpp"
#include "xfft/fftnd.hpp"
#include "xpar/pool.hpp"
#include "xutil/aligned.hpp"

namespace perfbench {

namespace {

using xfft::Cd;
using xfft::Cf;
using xfft::Dims3;
using xfft::Direction;
using xfft::PlanND;
using BufF = xutil::AlignedVector<Cf>;
using BufD = xutil::AlignedVector<Cd>;

constexpr Dims3 kDims{256, 256, 256};
constexpr std::size_t kN = std::size_t{256} * 256 * 256;
constexpr int kSetupReps = 9;
constexpr int kMinPairs = 2;  // forward+inverse pairs per run
constexpr double kRoundTripTol = 1e-5;
constexpr double kFloatErrTol = 1e-5;
constexpr double kOracleTol = 1e-12;
/// Bytes one axis pass moves, computed from array sizes: the array read
/// once and written once (cache misses are not counted).
constexpr double kPassBytes = 2.0 * kN * sizeof(Cf);

std::span<Cf> span_of(BufF& b) { return {b.data(), b.size()}; }
std::span<const Cf> cspan_of(const BufF& b) { return {b.data(), b.size()}; }

/// Copies the seeded input into `data` (untimed), then times one execute.
double time_execute(const PlanND<float>& plan, const BufF& input, BufF& data,
                    bool serial) {
  std::copy(input.begin(), input.end(), data.begin());
  xfft::ExecOptions exec;
  exec.serial = serial;
  const auto t0 = Clock::now();
  plan.execute(span_of(data), exec);
  return seconds_since(t0);
}

/// Checks the PlanND<double> oracle itself against the O(N^2) reference
/// at 32^3, where the reference is affordable.
double oracle_self_error(std::uint64_t seed) {
  const Dims3 d{32, 32, 32};
  BufF in32(d.total());
  fill_signal(seed, 1, span_of(in32));
  std::vector<Cd> x(in32.begin(), in32.end());
  std::vector<Cd> ref(x.size());
  xfft::dft_reference_3d(x, ref, d, Direction::kForward);
  PlanND<double>(d, Direction::kForward).execute(x);
  return rel_rms<double, double>(x, ref);
}

void run_untraced(const RunConfig& cfg, Report& report, bool pool) {
  // Only the pool workload starts the pool's workers before the timed part:
  // idle workers poll, and the 1-thread figure should not pay for them.
  if (pool) xpar::ThreadPool::set_global_threads(bench_lanes());
  BufF input(kN);
  fill_signal(cfg.seed, 0, span_of(input));

  // Set-up: both plans, built kSetupReps times from nothing.
  std::unique_ptr<PlanND<float>> fwd;
  std::unique_ptr<PlanND<float>> inv;
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    fwd.reset();
    inv.reset();
    const auto t0 = Clock::now();
    fwd = std::make_unique<PlanND<float>>(kDims, Direction::kForward);
    inv = std::make_unique<PlanND<float>>(kDims, Direction::kInverse);
    setup.push_back(seconds_since(t0));
  }

  // The first 1-thread output of each direction is the reference every later
  // output must match byte for byte. The pool workload makes it untimed.
  BufF data(kN);
  BufF ref_fwd;
  BufF ref_inv;
  if (pool) {
    time_execute(*fwd, input, data, true);
    ref_fwd = data;
    time_execute(*inv, input, data, true);
    ref_inv = data;
    report.attempted(2);
  }
  bool identical = true;
  const double flops = standard_flops(kN);
  // Throughput per forward+inverse pair: both transforms' flops over the
  // pair's time, so the two directions' different speeds average out.
  std::vector<double> gflops;
  const auto t0 = Clock::now();
  while (static_cast<int>(gflops.size()) < kMinPairs ||
         seconds_since(t0) < cfg.seconds) {
    double pair_s = 0.0;
    for (const bool inverse : {false, true}) {
      pair_s += time_execute(inverse ? *inv : *fwd, input, data, !pool);
      report.attempted();
      BufF& ref = inverse ? ref_inv : ref_fwd;
      if (ref.empty()) {
        ref = data;
      } else if (!same_bytes(cspan_of(ref), cspan_of(data))) {
        identical = false;
      }
    }
    gflops.push_back(2.0 * flops / pair_s / 1e9);
  }
  const double rss = peak_rss_mib();

  // The accuracy work below runs on the pool in both workloads.
  xpar::ThreadPool::set_global_threads(bench_lanes());

  // Round trip: inverse(forward(x)) against x.
  data = ref_fwd;
  inv->execute(span_of(data));
  const double rt_err = rel_rms<float, float>(cspan_of(data), cspan_of(input));

  // Accuracy against the double-precision oracle. Free the float plans and
  // buffers first so the oracle's 512 MiB does not stack on them.
  fwd.reset();
  inv.reset();
  BufF().swap(data);
  BufF().swap(ref_inv);
  const double oracle_err = oracle_self_error(cfg.seed);
  BufD exact(input.begin(), input.end());
  PlanND<double>(kDims, Direction::kForward)
      .execute(std::span<Cd>(exact.data(), exact.size()));
  const double err = rel_rms<float, double>(
      cspan_of(ref_fwd), std::span<const Cd>(exact.data(), exact.size()));

  report.check(identical,
               pool ? "pool outputs are byte-identical to 1-thread outputs"
                    : "repeated 1-thread transforms are byte-identical");
  report.check(rt_err <= kRoundTripTol,
               "round trip rel RMS " + sci(rt_err) + " <= 1e-5");
  report.check(oracle_err <= kOracleTol,
               "PlanND<double> vs dft_reference_3d at 32^3 rel RMS " +
                   sci(oracle_err) + " <= 1e-12");
  report.check(err <= kFloatErrTol,
               "float forward vs PlanND<double> rel RMS " +
                   sci(err) + " <= 1e-5");

  report.median_metric("gflops", gflops, "GFLOP/s");
  report.metric("rel_err", err, "ratio");
  report.median_metric("setup_s", setup, "s");
  report.metric("peak_rss_mb", rss, "MiB");
}

/// Replays PlanND's fused forward transform: per axis, every row's
/// execute_scatter_affine into the rotated array. Returns the buffer that
/// holds the result.
BufF* replay_fused(const PlanND<float>& plan, BufF& a, BufF& b, Tracer& tr) {
  Dims3 cur = kDims;
  BufF* src = &a;
  BufF* dst = &b;
  for (int pass = 0; pass < 3; ++pass) {
    const auto& p1 = plan.axis_plan(pass);
    const std::size_t len = cur.nx;
    const std::size_t rows = kN / len;
    const std::size_t stride = cur.ny * cur.nz;
    {
      Span s(tr, "fused_scatter");
      for (std::size_t row = 0; row < rows; ++row) {
        p1.execute_scatter_affine(std::span<Cf>(src->data() + row * len, len),
                                  span_of(*dst), row, stride);
      }
    }
    std::swap(src, dst);
    cur = Dims3{cur.ny, cur.nz, cur.nx};
  }
  return src;
}

/// Replays PlanND's separate forward transform: per axis, every row's
/// execute(data, scratch), then rotate_axes.
BufF* replay_separate(const PlanND<float>& plan, BufF& a, BufF& b,
                      Tracer& tr) {
  Dims3 cur = kDims;
  BufF* src = &a;
  BufF* dst = &b;
  BufF row_scratch(kDims.nx);
  xfft::ExecOptions serial;
  serial.serial = true;
  for (int pass = 0; pass < 3; ++pass) {
    const auto& p1 = plan.axis_plan(pass);
    const std::size_t len = cur.nx;
    const std::size_t rows = kN / len;
    {
      Span s(tr, "rows");
      for (std::size_t row = 0; row < rows; ++row) {
        p1.execute(std::span<Cf>(src->data() + row * len, len),
                   std::span<Cf>(row_scratch.data(), len));
      }
    }
    {
      Span s(tr, "rotate");
      xfft::rotate_axes(cspan_of(*src), span_of(*dst), cur, serial);
    }
    std::swap(src, dst);
    cur = Dims3{cur.ny, cur.nz, cur.nx};
  }
  return src;
}

void run_traced(const RunConfig& cfg, Report& report, Tracer& tr) {
  const ProbeRates probe = run_probes(report);
  BufF input(kN);
  fill_signal(cfg.seed, 0, span_of(input));
  BufF data(kN);
  BufF ref(kN);
  BufF other(kN);
  const unsigned lanes = xpar::ThreadPool::global().threads();

  // Fused (shipped default): untraced 1-thread and pool timings, then the
  // traced replay, which must reproduce the untraced output.
  double t_fused = 0.0;
  double pool_speedup = 0.0;
  {
    const PlanND<float> fused(kDims, Direction::kForward);
    t_fused = time_execute(fused, input, ref, true);
    std::vector<double> t_pool;
    for (int r = 0; r < 3; ++r) {
      t_pool.push_back(time_execute(fused, input, data, false));
    }
    pool_speedup = t_fused / median(t_pool);
    report.attempted(4);
    report.check(same_bytes(cspan_of(data), cspan_of(ref)),
                 "pool output is byte-identical to 1-thread output");

    tr.set_run(1);
    data = input;
    const BufF* out = nullptr;
    {
      Span s(tr, "transform.fused");
      out = replay_fused(fused, data, other, tr);
    }
    report.check(same_bytes(cspan_of(*out), cspan_of(ref)),
                 "fused replay reproduces PlanND::execute byte for byte");
  }

  // Empty-body parallel_for over the row range: the pool's fixed cost.
  std::vector<double> dispatch_us;
  for (int r = 0; r < 200; ++r) {
    const auto t0 = Clock::now();
    xpar::parallel_for(0, static_cast<std::int64_t>(kN / kDims.nx), 0,
                       [](std::int64_t, std::int64_t) {});
    dispatch_us.push_back(seconds_since(t0) * 1e6);
  }

  // Separate rotation: the rows/rotate split.
  double actual_flops = 0.0;  // real flops of the butterfly stages
  {
    PlanND<float>::Options opt;
    opt.rotation = xfft::RotationMode::kSeparate;
    const PlanND<float> separate(kDims, Direction::kForward, opt);
    time_execute(separate, input, ref, true);
    report.attempted();
    actual_flops = static_cast<double>(separate.actual_flops());
    tr.set_run(2);
    data = input;
    const BufF* out = nullptr;
    {
      Span s(tr, "transform.separate");
      out = replay_separate(separate, data, other, tr);
    }
    report.check(same_bytes(cspan_of(*out), cspan_of(ref)),
                 "separate replay reproduces PlanND::execute byte for byte");

    // Butterfly stages alone over the same rows: rows minus this is the
    // digit-reversal reorder.
    tr.set_run(3);
    data = input;
    for (int pass = 0; pass < 3; ++pass) {
      const auto& p1 = separate.axis_plan(pass);
      const std::size_t len = p1.size();
      Span s(tr, "butterfly");
      for (std::size_t row = 0; row < kN / len; ++row) {
        p1.execute_digit_reversed(std::span<Cf>(data.data() + row * len, len));
      }
    }
  }

  const double rows_s = tr.self_s("rows");
  const double bfly_s = tr.self_s("butterfly");
  const double rot_s = tr.self_s("rotate");
  const double fused_s = tr.self_s("fused_scatter");
  const double bfly_gflops = actual_flops / bfly_s / 1e9;
  const double rot_gbps = 3.0 * kPassBytes / rot_s / 1e9;
  const double fused_gbps = 3.0 * kPassBytes / fused_s / 1e9;
  report.metric("host.rows.s", rows_s, "s");
  report.metric("host.butterfly.s", bfly_s, "s");
  report.metric("host.butterfly.gflops", bfly_gflops, "GFLOP/s");
  report.metric("host.butterfly.frac_peak", bfly_gflops / probe.peak_gflops,
                "ratio");
  report.metric("host.reorder.s", rows_s - bfly_s, "s");
  report.metric("host.rotate.s", rot_s, "s");
  report.metric("host.rotate.gbps", rot_gbps, "GB/s");
  report.metric("host.rotate.frac_bw", rot_gbps / probe.memcpy_gbps, "ratio");
  report.metric("host.fused_scatter.s", fused_s, "s");
  report.metric("host.fused_scatter.gbps", fused_gbps, "GB/s");
  report.metric("host.fused_scatter.frac_bw", fused_gbps / probe.memcpy_gbps,
                "ratio");
  report.metric("pool.lanes", lanes, "count");
  report.metric("pool.dispatch_us", median(dispatch_us), "us");
  report.metric("pool.speedup", pool_speedup, "ratio");
  report.metric("pool.efficiency", pool_speedup / lanes, "ratio");
  report.metric("trace.overhead_frac", tr.total_s("transform.fused") / t_fused,
                "ratio");
  report.note("derived host.reorder.s = host.rows.s - host.butterfly.s");
  report.note("computed bytes: one read + one write of the 128 MiB array per "
              "axis pass");
}

}  // namespace

void run_host3d(const RunConfig& cfg, Report& report, Tracer& tracer,
                bool pool) {
  if (cfg.trace) {
    xpar::ThreadPool::set_global_threads(bench_lanes());
    run_traced(cfg, report, tracer);
  } else {
    run_untraced(cfg, report, pool);
  }
  xpar::ThreadPool::set_global_threads(1);  // joins the workers
}

}  // namespace perfbench
