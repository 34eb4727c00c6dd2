// xmtfft command-line interface: one table of subcommands (kCommands), which
// drives both the dispatch in main() and usage().
//
// Exit codes (stable; scripts and tests depend on them):
//   0  success
//   1  harness failure (differential check, property suite, recovery miss)
//   2  usage error (unknown command or malformed flags)
//   3  invalid input (validation rejected a size, config, or fault spec)
//   4  deadline exceeded (simulator watchdog tripped its cycle limit)
//   5  fault plan exhausted the recovery/retry budget
//   6  interrupted (SIGINT/SIGTERM) after writing a durable checkpoint;
//      rerun with --resume to continue
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <map>
#include <new>
#include <string>
#include <thread>

#include "xcheck/corpus.hpp"
#include "xcheck/fuzzer.hpp"
#include "xckpt/ring.hpp"
#include "xckpt/snapshot.hpp"
#include "xcheck/metamorphic.hpp"
#include "xfault/fault_plan.hpp"
#include "xfault/resilient_fft.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/plan_cache.hpp"
#include "xpar/pool.hpp"
#include "xroof/roofline.hpp"
#include "xserve/serve.hpp"
#include "xsim/ckpt_run.hpp"
#include "xsim/fft_on_machine.hpp"
#include "xsim/perf_model.hpp"
#include "xutil/check.hpp"
#include "xutil/flags.hpp"
#include "xutil/rng.hpp"
#include "xutil/string_util.hpp"
#include "xutil/table.hpp"
#include "xutil/units.hpp"

namespace {

// Exit-code taxonomy; keep in sync with the header comment, usage(), and
// docs/architecture.md section 10 (tests/cli/test_exit_codes.sh pins it).
constexpr int kExitOk = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInvalid = 3;
constexpr int kExitDeadline = 4;
constexpr int kExitFaults = 5;
constexpr int kExitInterrupted = 6;

// Graceful-shutdown plumbing: the handler only sets a flag; commands that
// support orderly shutdown (machine with checkpointing, serve) poll it at
// safe points — slice boundaries, between submissions — and exit with
// kExitInterrupted after persisting/draining what they can.
volatile std::sig_atomic_t g_signal = 0;

void record_signal(int sig) { g_signal = sig; }

void install_signal_handlers() {
  std::signal(SIGINT, record_signal);
  std::signal(SIGTERM, record_signal);
}

xsim::MachineConfig config_by_name(const std::string& name) {
  for (auto& c : xsim::paper_presets()) {
    std::string key = c.name;
    for (auto& ch : key) {
      if (ch == ' ') ch = '_';
    }
    if (key == name || c.name == name) return c;
  }
  throw xutil::Error("unknown configuration '" + name +
                     "' (try: 4k, 8k, 64k, 128k_x2, 128k_x4)");
}

/// Parses --size (e.g. 512^3, 64x64, 1024) into the transform's shape.
xfft::Dims3 size_flag(const xutil::Flags& flags, const char* fallback) {
  xfft::Dims3 dims;
  xutil::parse_dims(flags.get("size", fallback), &dims.nx, &dims.ny,
                    &dims.nz);
  return dims;
}

std::string dims_name(xfft::Dims3 dims) {
  return xutil::format_dims3(dims.nx, dims.ny, dims.nz);
}

/// A complex signal with both parts uniform in [-1, 1), drawn from `rng`.
std::vector<xfft::Cf> random_signal(std::size_t n, xutil::Pcg32& rng) {
  std::vector<xfft::Cf> v(n);
  for (auto& x : v) {
    x = xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
  }
  return v;
}

/// The analytic model's per-phase table, closed by a TOTAL row.
xutil::Table phase_table(const std::string& title,
                         const xsim::FftPerfReport& r) {
  xutil::Table t(title);
  t.set_header({"Phase", "ms", "bound", "GFLOPS (actual)"});
  for (const auto& ph : r.phases) {
    t.add_row({ph.name, xutil::format_fixed(ph.seconds * 1e3, 3),
               xsim::bound_name(ph.bound),
               xutil::format_gflops(ph.actual_gflops)});
  }
  t.add_row({"TOTAL", xutil::format_fixed(r.total_seconds * 1e3, 3), "",
             xutil::format_gflops(r.standard_gflops) + " (5NlogN)"});
  return t;
}

int cmd_configs(const xutil::Flags& flags) {
  flags.reject_unused();
  xutil::Table t("XMT CONFIGURATIONS");
  t.set_header({"Name", "TCUs", "Clusters", "NoC", "DRAM channels",
                "Peak", "Off-chip BW"});
  for (const auto& c : xsim::paper_presets()) {
    t.add_row({c.name, xutil::format_group(static_cast<long long>(c.tcus)),
               std::to_string(c.clusters),
               std::to_string(c.mot_levels) + "+" +
                   std::to_string(c.butterfly_levels),
               std::to_string(c.dram_channels()),
               xutil::format_gflops(c.peak_flops_per_sec() / 1e9) + " GF",
               xutil::format_bandwidth_bits(c.dram_bw_bytes_per_sec() * 8)});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_simulate(const xutil::Flags& flags) {
  const auto cfg = config_by_name(flags.get("config", "64k"));
  const xfft::Dims3 dims = size_flag(flags, "512^3");
  const auto radix = static_cast<unsigned>(flags.get_int("radix", 8));
  flags.reject_unused();
  const auto r = xsim::FftPerfModel(cfg).analyze_fft(dims, radix);
  const xutil::Table t =
      phase_table("FFT ON " + cfg.name + ", " + dims_name(dims), r);
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_roofline(const xutil::Flags& flags) {
  const auto cfg = config_by_name(flags.get("config", "64k"));
  const xfft::Dims3 dims = size_flag(flags, "512^3");
  flags.reject_unused();
  const auto report = xsim::FftPerfModel(cfg).analyze_fft(dims);
  const auto series = xroof::fft_series(cfg, report);
  std::printf("%s: peak %.0f GFLOPS, %.0f GB/s, ridge %.2f F/B\n",
              cfg.name.c_str(), series.platform.peak_gflops,
              series.platform.peak_bw_gbytes,
              series.platform.ridge_intensity());
  for (const auto& m : series.markers) {
    std::printf("  %-12s I=%.3f  %10.0f GFLOPS  (%.1f%% of roofline)\n",
                m.label.c_str(), m.intensity, m.gflops,
                100.0 * m.fraction_of_roofline);
  }
  return 0;
}

/// Builds the scaled custom configuration shared by `machine` and `faults`.
xsim::MachineConfig scaled_config_from_flags(const xutil::Flags& flags) {
  xsim::MachineConfig c;
  const auto clusters = static_cast<std::size_t>(flags.get_int("clusters", 8));
  c.name = "custom-" + std::to_string(clusters);
  c.clusters = clusters;
  c.tcus = clusters * 32;
  c.memory_modules =
      static_cast<std::size_t>(flags.get_int("modules",
                                             static_cast<std::int64_t>(clusters)));
  c.butterfly_levels = static_cast<unsigned>(flags.get_int("bf", 0));
  const unsigned full = xutil::log2_exact(c.clusters, "--clusters") +
                        xutil::log2_exact(c.memory_modules, "--modules");
  c.mot_levels = static_cast<unsigned>(
      flags.get_int("mot", c.butterfly_levels == 0
                               ? full
                               : full - c.butterfly_levels - 2));
  c.mms_per_dram_ctrl = static_cast<unsigned>(flags.get_int("mms-per-ctrl", 2));
  c.fpus_per_cluster = static_cast<unsigned>(flags.get_int("fpus", 1));
  c.cache_bytes_per_mm =
      static_cast<std::uint64_t>(flags.get_int("cache-kb", 32)) * 1024;
  c.validate();
  return c;
}

int cmd_machine(const xutil::Flags& flags) {
  const xsim::MachineConfig c = scaled_config_from_flags(flags);
  const xfft::Dims3 dims = size_flag(flags, "64x64");
  const auto radix = static_cast<unsigned>(flags.get_int("radix", 8));
  xsim::MachineOptions mopt;
  mopt.cycle_limit = static_cast<std::uint64_t>(flags.get_int(
      "cycle-limit", static_cast<std::int64_t>(mopt.cycle_limit)));
  const std::string ckpt_dir = flags.get("checkpoint-dir", "");
  const auto ckpt_every =
      static_cast<std::uint64_t>(flags.get_int("checkpoint-every", 0));
  const auto ckpt_keep =
      static_cast<unsigned>(flags.get_int("checkpoint-keep", 3));
  const bool resume = flags.has("resume");
  flags.reject_unused();
  XU_CHECK_MSG(!ckpt_dir.empty() || (ckpt_every == 0 && !resume),
               "--checkpoint-every/--resume need --checkpoint-dir");

  xsim::Machine machine(c, mopt);
  xsim::DetailedFftResult r;
  if (ckpt_dir.empty()) {
    r = xsim::run_fft_on_machine(machine, dims, radix);
  } else {
    // All checkpoint/resume chatter goes to stderr: stdout of a resumed run
    // must stay byte-identical to an uninterrupted run (the chaos harness
    // compares them).
    install_signal_handlers();
    xckpt::CheckpointRing ring(ckpt_dir, xckpt::kTagMachineRun, ckpt_keep);
    xsim::CheckpointedRunOptions copt;
    copt.every = ckpt_every;
    copt.resume = resume;
    copt.interrupted = [] { return g_signal != 0; };
    const auto st =
        xsim::run_fft_checkpointed(machine, ring, dims, radix, {}, copt);
    if (st.fallbacks != 0) {
      std::fprintf(stderr,
                   "warning: skipped %llu damaged checkpoint generation(s),"
                   " fell back to generation %llu\n",
                   static_cast<unsigned long long>(st.fallbacks),
                   static_cast<unsigned long long>(st.resumed_generation));
    }
    if (st.resumed) {
      std::fprintf(stderr, "resumed from generation %llu (%llu cycles done)\n",
                   static_cast<unsigned long long>(st.resumed_generation),
                   static_cast<unsigned long long>(st.resumed_cycles));
    }
    if (st.interrupted) {
      std::fprintf(stderr,
                   "interrupted: checkpoint written to %s; rerun with"
                   " --resume to continue\n",
                   ckpt_dir.c_str());
      return kExitInterrupted;
    }
    r = st.result;
  }
  xutil::Table t("CYCLE-LEVEL RUN ON " + c.name + " (" + dims_name(dims) +
                 ")");
  t.set_header({"Phase", "cycles", "hit rate", "DRAM util", "FPU util"});
  for (const auto& ph : r.phases) {
    t.add_row({ph.name, std::to_string(ph.result.cycles),
               xutil::format_fixed(ph.result.cache_hit_rate(), 2),
               xutil::format_fixed(ph.result.dram_utilization, 2),
               xutil::format_fixed(ph.result.fpu_utilization, 2)});
  }
  t.add_row({"TOTAL", std::to_string(r.total_cycles), "", "", ""});
  t.add_note("at 3.3 GHz: " +
             xutil::format_fixed(r.standard_gflops(dims, 3.3e9), 2) +
             " GFLOPS (5NlogN)");
  std::fputs(t.render().c_str(), stdout);
  if (r.truncated) {
    std::fprintf(stderr,
                 "error: watchdog tripped at %llu cycles; results truncated\n",
                 static_cast<unsigned long long>(mopt.cycle_limit));
    return kExitDeadline;
  }
  return kExitOk;
}

int cmd_fft(const xutil::Flags& flags) {
  const xfft::Dims3 dims = size_flag(flags, "1024");
  const auto dir = flags.has("inverse") ? xfft::Direction::kInverse
                                        : xfft::Direction::kForward;
  flags.reject_unused();
  xutil::Pcg32 rng(1);
  std::vector<xfft::Cf> data = random_signal(dims.total(), rng);
  // Plan outside the clock: the timing covers the transform, not the
  // twiddle tables and permutations a fresh process builds on first use.
  const auto plan = xfft::PlanCache::global().plan_nd(dims, dir);
  // Start the pool's workers outside the clock too: rank >= 2 shapes run on
  // it, and a lazily created pool would time thread start-up.
  (void)xpar::ThreadPool::global();
  const auto t0 = std::chrono::steady_clock::now();
  plan->execute(std::span<xfft::Cf>(data));
  const auto t1 = std::chrono::steady_clock::now();
  double checksum = 0.0;
  for (const auto& v : data) checksum += std::abs(v);
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  std::printf("%s FFT of %s: %.3f ms (%.2f GFLOPS 5NlogN), checksum %.6g\n",
              dir == xfft::Direction::kForward ? "forward" : "inverse",
              dims_name(dims).c_str(), secs * 1e3,
              xfft::standard_fft_flops(dims.total()) / secs / 1e9, checksum);
  const xfft::LaneWidth lanes = xfft::lane_width<float>();
  std::printf("butterfly kernels: %zu float lanes (%s)\n", lanes.lanes,
              lanes.isa);
  return 0;
}

std::string fault_summary(const xfault::FaultMap& map) {
  return std::to_string(map.dead_tcu_count()) + " dead TCUs (" +
         std::to_string(map.shape.clusters - map.live_clusters()) +
         " whole clusters), " + std::to_string(map.failed_channel_count()) +
         " failed DRAM channels, " + std::to_string(map.degraded_link_count()) +
         " degraded NoC links, soft-flip rate " +
         std::to_string(map.soft_flip_rate);
}

/// Host-side resilience harness: runs the soft-error injection + checksum
/// recovery FFT and verifies the result against a clean reference plan.
/// Returns 0 when the recovered output matches the reference.
int run_resilience_harness(xfft::Dims3 dims, double soft_rate,
                           std::uint64_t seed) {
  xutil::Pcg32 rng(seed);
  std::vector<xfft::Cf> data = random_signal(dims.total(), rng);
  std::vector<xfft::Cf> reference = data;
  xfft::PlanND<float>(dims, xfft::Direction::kForward)
      .execute(std::span<xfft::Cf>(reference));

  xfault::ResilienceOptions opt;
  opt.soft_flip_rate = soft_rate;
  opt.seed = seed;
  const auto rep = xfault::resilient_fft(std::span<xfft::Cf>(data), dims,
                                         xfft::Direction::kForward, opt);

  double diff2 = 0.0;
  double ref2 = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto d = data[i] - reference[i];
    diff2 += static_cast<double>(d.real()) * d.real() +
             static_cast<double>(d.imag()) * d.imag();
    ref2 += static_cast<double>(reference[i].real()) * reference[i].real() +
            static_cast<double>(reference[i].imag()) * reference[i].imag();
  }
  const double rel = ref2 > 0.0 ? std::sqrt(diff2 / ref2) : std::sqrt(diff2);
  const bool pass = rep.ok() && rel < 1e-3;
  std::printf(
      "soft errors: %llu injected, %llu detected, %llu slabs recomputed, "
      "%llu unrecovered\n"
      "checksum vs reference: rel L2 error %.3g -> %s\n",
      static_cast<unsigned long long>(rep.flips_injected),
      static_cast<unsigned long long>(rep.errors_detected),
      static_cast<unsigned long long>(rep.rows_recomputed),
      static_cast<unsigned long long>(rep.retries_exhausted), rel,
      pass ? "PASS" : "FAIL");
  return pass ? kExitOk : kExitFaults;
}

int cmd_faults(const xutil::Flags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto plan = xfault::FaultPlan::parse(
      flags.get("faults", "cluster:kill:1,dram:chan:1,soft:flip:1e-4"), seed);

  if (flags.has("config")) {
    // Paper-scale configuration: analytic model, derated by the surviving
    // capacity of the materialized fault map.
    const auto cfg = config_by_name(flags.get("config", "64k"));
    const xfft::Dims3 dims = size_flag(flags, "512^3");
    const auto radix = static_cast<unsigned>(flags.get_int("radix", 8));
    flags.reject_unused();

    const auto map = xfault::materialize(plan, xsim::fault_shape(cfg));
    const auto derate = xsim::FaultDerating::from_fault_map(map);
    const auto healthy = xsim::FftPerfModel(cfg).analyze_fft(dims, radix);
    const auto degraded =
        xsim::FftPerfModel(cfg, derate).analyze_fft(dims, radix);

    xutil::Table t = phase_table(
        "DEGRADED FFT ON " + cfg.name + ", " + dims_name(dims), degraded);
    t.add_note("faults: " + fault_summary(map));
    t.add_note("healthy: " + xutil::format_gflops(healthy.standard_gflops) +
               " GFLOPS -> retained " +
               xutil::format_fixed(100.0 * degraded.standard_gflops /
                                       healthy.standard_gflops,
                                   1) +
               "%");
    std::fputs(t.render().c_str(), stdout);
    return run_resilience_harness(xfft::Dims3{64, 16, 1}, plan.soft_flip_rate,
                                  seed);
  }

  // Scaled configuration: the cycle-level machine degrades in place.
  const xsim::MachineConfig c = scaled_config_from_flags(flags);
  const xfft::Dims3 dims = size_flag(flags, "64x64");
  const auto radix = static_cast<unsigned>(flags.get_int("radix", 8));
  flags.reject_unused();

  const auto map = xfault::materialize(plan, xsim::fault_shape(c));
  xsim::Machine machine(c);
  machine.set_faults(map);
  const auto r = xsim::run_fft_on_machine(machine, dims, radix);

  xutil::Table t("DEGRADED CYCLE-LEVEL RUN ON " + c.name + " (" +
                 dims_name(dims) + ")");
  t.set_header({"Phase", "cycles", "hit rate", "remapped", "truncated"});
  for (const auto& ph : r.phases) {
    t.add_row({ph.name, std::to_string(ph.result.cycles),
               xutil::format_fixed(ph.result.cache_hit_rate(), 2),
               std::to_string(ph.result.remapped_fills),
               ph.result.truncated ? "YES" : "no"});
  }
  t.add_row({"TOTAL", std::to_string(r.total_cycles), "", "",
             r.truncated ? "YES" : "no"});
  t.add_note("faults: " + fault_summary(map));
  t.add_note("at 3.3 GHz: " +
             xutil::format_fixed(r.standard_gflops(dims, 3.3e9), 2) +
             " GFLOPS (5NlogN)");
  std::fputs(t.render().c_str(), stdout);
  return run_resilience_harness(dims, plan.soft_flip_rate, seed);
}

int cmd_check(const xutil::Flags& flags) {
  xcheck::Envelope env;
  env.lower_margin = flags.get_double("lower", env.lower_margin);
  env.upper_margin = flags.get_double("upper", env.upper_margin);
  env.floor_cycles = flags.get_double("floor", env.floor_cycles);
  xcheck::DifferentialOptions diff;
  diff.calibration_scale = flags.get_double("canary", 1.0);

  if (flags.has("properties")) {
    // Metamorphic property suite over every FFT engine.
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    flags.reject_unused();
    const auto results = xcheck::run_metamorphic_suite(seed);
    unsigned failed = 0;
    for (const auto& r : results) {
      if (!r.pass) ++failed;
      std::printf("%s\n", r.describe().c_str());
    }
    std::printf("%zu properties checked, %u failed -> %s\n", results.size(),
                failed, failed == 0 ? "PASS" : "FAIL");
    return failed == 0 ? 0 : 1;
  }

  if (flags.has("replay")) {
    const std::string dir = flags.get("replay");
    flags.reject_unused();
    const auto entries = xcheck::replay_corpus(dir, env, diff);
    unsigned failed = 0;
    for (const auto& e : entries) {
      if (!e.parse_error.empty()) {
        ++failed;
        std::printf("%s: PARSE ERROR: %s\n", e.path.c_str(),
                    e.parse_error.c_str());
        continue;
      }
      if (!e.pass()) ++failed;
      std::printf("%s:\n%s", e.path.c_str(),
                  xcheck::render_trial(e.result).c_str());
    }
    std::printf("%zu corpus entries replayed, %u failed -> %s\n",
                entries.size(), failed, failed == 0 ? "PASS" : "FAIL");
    return failed == 0 ? 0 : 1;
  }

  xcheck::FuzzOptions opt;
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.trials = static_cast<unsigned>(flags.get_int("trials", 200));
  opt.envelope = env;
  opt.diff = diff;
  opt.corpus_dir = flags.get("corpus", "");
  flags.reject_unused();
  const auto summary = xcheck::run_fuzz(opt);
  std::fputs(summary.report.c_str(), stdout);
  return summary.pass() ? 0 : 1;
}

/// Replays a synthetic open-loop traffic trace through the xserve service:
/// requests arrive on a fixed schedule regardless of completions (so a slow
/// server visibly sheds instead of silently slowing the generator down),
/// a configurable fraction carries a transient fault plan, and the final
/// table reconciles per-request outcomes against the server's own counters.
int cmd_serve(const xutil::Flags& flags) {
  const auto requests =
      static_cast<std::size_t>(flags.get_int("requests", 200));
  const double rps = flags.get_double("rps", 2000.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const xfft::Dims3 dims = size_flag(flags, "4096");
  const std::chrono::nanoseconds deadline{
      static_cast<std::int64_t>(flags.get_double("deadline-ms", 50.0) * 1e6)};
  const std::string fault_spec = flags.get("faults", "soft:flip:2e-4");
  const double fault_fraction = flags.get_double("fault-fraction", 0.2);
  xserve::ServerOptions sopt;
  sopt.queue_capacity =
      static_cast<std::size_t>(flags.get_int("capacity", 32));
  sopt.seed = seed;
  flags.reject_unused();
  XU_CHECK_MSG(requests >= 1 && rps > 0.0,
               "serve needs --requests >= 1 and --rps > 0");

  xutil::Pcg32 rng(seed, 0xa11ce);
  const std::vector<xfft::Cf> base = random_signal(dims.total(), rng);

  install_signal_handlers();
  xserve::FftServer server(sopt);
  std::vector<std::uint64_t> ids;
  ids.reserve(requests);
  const auto period =
      std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / rps));
  auto next_arrival = std::chrono::steady_clock::now();
  std::size_t attempted = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (g_signal != 0) break;  // graceful drain: stop the arrival process
    xserve::JobRequest req;
    req.dims = dims;
    req.data = base;
    req.deadline = deadline;
    req.seed = seed + i;
    if (rng.next_double() < fault_fraction) req.faults = fault_spec;
    const auto adm = server.submit(std::move(req));
    ++attempted;
    if (adm.accepted()) ids.push_back(adm.id);
    next_arrival += period;
    std::this_thread::sleep_until(next_arrival);
  }
  const bool interrupted = g_signal != 0;
  if (interrupted) {
    // Queued-but-not-started jobs drain as kCancelled; every accepted id is
    // still waited on below, so the conservation check spans the shutdown.
    for (const std::uint64_t id : ids) server.cancel(id);
    std::fprintf(stderr,
                 "interrupted: draining %zu accepted job(s), no further"
                 " arrivals\n",
                 ids.size());
  }

  std::map<xserve::ServeStatus, std::uint64_t> observed;
  for (const std::uint64_t id : ids) ++observed[server.wait(id).status];
  server.drain_for(std::chrono::seconds(10));
  const auto s = server.stats();

  xutil::Table t("FFT SERVICE TRACE: " + std::to_string(requests) +
                 " requests @ " + xutil::format_fixed(rps, 0) + " rps, " +
                 dims_name(dims));
  t.set_header({"Outcome", "count"});
  t.add_row({"ok", std::to_string(s.ok)});
  t.add_row({"deadline-exceeded", std::to_string(s.deadline_exceeded)});
  t.add_row({"cancelled", std::to_string(s.cancelled)});
  t.add_row({"fault-exhausted", std::to_string(s.fault_exhausted)});
  t.add_row({"rejected overloaded", std::to_string(s.rejected_overload)});
  t.add_row({"rejected invalid", std::to_string(s.rejected_invalid)});
  for (unsigned r = 0; r < xserve::kRungCount; ++r) {
    t.add_row({std::string("  rung ") +
                   xserve::rung_name(static_cast<xserve::Rung>(r)),
               std::to_string(s.per_rung[r])});
  }
  t.add_note("retries " + std::to_string(s.retries) + ", sheds " +
             std::to_string(s.sheds) + ", peak queue depth " +
             std::to_string(s.peak_queue_depth) + "/" +
             std::to_string(sopt.queue_capacity));
  t.add_note("latency p50 " +
             xutil::format_fixed(s.p50_latency_seconds * 1e3, 3) + " ms, p99 " +
             xutil::format_fixed(s.p99_latency_seconds * 1e3, 3) + " ms");
  std::fputs(t.render().c_str(), stdout);

  // Conservation: every accepted request produced exactly one outcome and
  // the server's books agree with what the callers saw.
  bool consistent = s.submitted == attempted &&
                    s.accepted == ids.size() &&
                    s.accepted == s.completed() &&
                    s.ok == s.per_rung[0] + s.per_rung[1] + s.per_rung[2] +
                                s.per_rung[3];
  const auto check = [&](xserve::ServeStatus st, std::uint64_t have) {
    const auto it = observed.find(st);
    const std::uint64_t want = it == observed.end() ? 0 : it->second;
    if (want != have) consistent = false;
  };
  check(xserve::ServeStatus::kOk, s.ok);
  check(xserve::ServeStatus::kDeadlineExceeded, s.deadline_exceeded);
  check(xserve::ServeStatus::kCancelled, s.cancelled);
  check(xserve::ServeStatus::kFaultExhausted, s.fault_exhausted);
  if (!consistent) {
    std::fprintf(stderr, "error: server stats disagree with observed"
                         " outcomes (lost or double-counted requests)\n");
    return kExitFail;
  }
  return interrupted ? kExitInterrupted : kExitOk;
}

struct Command {
  const char* name;
  const char* synopsis;  ///< flags; continuation lines carry their indent
  int (*handler)(const xutil::Flags&);
};

constexpr Command kCommands[] = {
    {"configs", "", cmd_configs},
    {"simulate",
     "--config {4k,8k,64k,128k_x2,128k_x4} --size 512^3 [--radix 8]",
     cmd_simulate},
    {"roofline", "--config <name> --size <dims>", cmd_roofline},
    {"machine",
     "--clusters N [--mot L] [--bf L] --size <dims> [--cycle-limit N]\n"
     "           [--checkpoint-dir D] [--checkpoint-every cycles]"
     " [--checkpoint-keep N]\n"
     "           [--resume]  (SIGINT/SIGTERM checkpoint, then exit 6)",
     cmd_machine},
    {"fft", "--size N [--inverse]", cmd_fft},
    {"faults",
     "--faults <spec> [--seed N] [--config <name> | --clusters N]"
     " --size <dims>\n"
     "           spec: tcu:kill:<sel>,cluster:kill:<sel>,dram:chan:<sel>,"
     "noc:link:degrade:<f>x[:<sel>],soft:flip:<rate>",
     cmd_faults},
    {"check",
     "[--seed N] [--trials N] [--corpus <dir>] [--replay <dir>]\n"
     "           [--canary <scale>] [--properties] [--lower f] [--upper f]"
     " [--floor cycles]",
     cmd_check},
    {"serve",
     "[--requests N] [--rps R] [--capacity Q] [--size <dims>]\n"
     "           [--deadline-ms D] [--faults <spec>] [--fault-fraction f]"
     " [--seed N]",
     cmd_serve},
};

int usage() {
  std::string text = "usage: xmtfft_cli <";
  for (const Command& c : kCommands) {
    if (&c != kCommands) text += '|';
    text += c.name;
  }
  text += "> [flags]\n";
  for (const Command& c : kCommands) {
    std::string line = std::string("  ") + c.name;
    if (*c.synopsis != '\0') {
      line.resize(10, ' ');
      line += std::string(" ") + c.synopsis;
    }
    text += line + "\n";
  }
  text +=
      "  any command also takes --threads N (host worker threads for FFT\n"
      "  execution, fuzz trials, sweeps; default: $XMTFFT_THREADS, else all\n"
      "  cores; results are identical at any thread count)\n"
      "exit codes: 0 ok, 1 harness failure, 2 usage, 3 invalid input,\n"
      "  4 deadline exceeded (watchdog), 5 fault budget exhausted,\n"
      "  6 interrupted after writing a checkpoint (rerun with --resume)";
  std::puts(text.c_str());
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const xutil::Flags flags(argc - 2, argv + 2);
  try {
    if (flags.has("threads")) {
      xpar::ThreadPool::set_global_threads(
          static_cast<unsigned>(flags.get_int("threads", 0)));
    }
    for (const Command& c : kCommands) {
      if (cmd == c.name) return c.handler(flags);
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage();
  } catch (const xsim::DeadlockError& e) {
    // Before the generic handler: the watchdog is a deadline failure (4),
    // not an input-validation one (3).
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitDeadline;
  } catch (const xutil::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitInvalid;
  } catch (const std::bad_alloc&) {
    // A shape too large for this host's memory is an input the run cannot
    // serve, not a crash.
    std::fprintf(stderr, "error: out of memory for the requested size\n");
    return kExitInvalid;
  }
}
