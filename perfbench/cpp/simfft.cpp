// sim_fft: xsim::run_fft_on_machine for a 64x64x16 FFT on the hybrid
// 16-cluster machine (4 mesh-of-trees levels + 4 butterfly levels, 16
// memory modules, 2 modules per DRAM controller, 32 KiB module caches; the
// machine of `xmtfft_cli machine --clusters 16 --mot 4 --bf 4`), plus the
// analytic FftPerfModel on the paper's five Table II presets at 512^3.
//
// The simulated FFT has no data-dependent inputs: the seed does not change
// it, and every simulated count must repeat exactly. Its `gflops` is what
// the simulator outputs, the modelled machine's throughput, not the host's.
// The simulator's own host speed is the per-layer sim.cycles_per_s: on a
// shared host it drifts with the neighbours' cache pressure by more than any
// bound an end-to-end metric may have (see README.md).
#include <algorithm>
#include <cmath>
#include <string>

#include "stats.hpp"
#include "sysinfo.hpp"
#include "workload.hpp"
#include "xsim/config.hpp"
#include "xsim/fft_on_machine.hpp"
#include "xsim/perf_model.hpp"

namespace perfbench {

namespace {

constexpr xfft::Dims3 kDims{64, 64, 16};
constexpr xfft::Dims3 kModelDims{512, 512, 512};
constexpr int kSetupReps = 101;
/// Machines built per set-up sample: one construction takes ~15 us, too
/// short to time alone against this host's jitter.
constexpr int kSetupBatch = 50;
constexpr int kMinReps = 3;
constexpr int kAnalyzeReps = 20;

/// Table IV of the paper: standard GFLOPS of the five Table II presets at
/// 512^3, in paper_presets() order (4k, 8k, 64k, 128k x2, 128k x4).
constexpr double kTable4Gflops[] = {239.0, 500.0, 3667.0, 12570.0, 18972.0};

xsim::MachineConfig machine_config() {
  xsim::MachineConfig c;
  c.name = "hybrid-16";
  c.clusters = 16;
  c.tcus = 16 * 32;
  c.memory_modules = 16;
  c.mot_levels = 4;
  c.butterfly_levels = 4;
  c.mms_per_dram_ctrl = 2;
  c.fpus_per_cluster = 1;
  c.cache_bytes_per_mm = 32 * 1024;
  c.validate();
  return c;
}

bool same_result(const xsim::MachineResult& a, const xsim::MachineResult& b) {
  return a.cycles == b.cycles && a.threads == b.threads &&
         a.threads_completed == b.threads_completed &&
         a.mem_requests == b.mem_requests && a.cache_hits == b.cache_hits &&
         a.dram_line_fills == b.dram_line_fills &&
         a.dram_row_hits == b.dram_row_hits && a.fp_ops == b.fp_ops &&
         a.int_ops == b.int_ops && a.ps_allocations == b.ps_allocations &&
         a.max_mm_queue == b.max_mm_queue &&
         a.max_noc_queue == b.max_noc_queue &&
         a.fpu_utilization == b.fpu_utilization &&
         a.lsu_utilization == b.lsu_utilization &&
         a.dram_utilization == b.dram_utilization &&
         a.truncated == b.truncated;
}

bool same_run(const xsim::DetailedFftResult& a,
              const xsim::DetailedFftResult& b) {
  if (a.total_cycles != b.total_cycles || a.truncated != b.truncated ||
      a.phases.size() != b.phases.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    if (!same_result(a.phases[i].result, b.phases[i].result)) return false;
  }
  return true;
}

/// Largest |model / paper - 1| over the Table IV rows.
double table4_rel_err() {
  const auto presets = xsim::paper_presets();
  double worst = 0.0;
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const auto r = xsim::FftPerfModel(presets[i]).analyze_fft(kModelDims);
    worst = std::max(worst, std::abs(r.standard_gflops / kTable4Gflops[i] - 1.0));
  }
  return worst;
}

void run_untraced(const RunConfig& cfg, Report& report) {
  const xsim::MachineConfig config = machine_config();
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSetupBatch; ++i) const xsim::Machine m(config);
    setup.push_back(seconds_since(t0) / kSetupBatch);
  }
  const double t4 = table4_rel_err();

  // Each repetition on a freshly built machine; every one must match the
  // first exactly.
  std::vector<double> cycles_per_s;
  xsim::DetailedFftResult first;
  bool identical = true;
  const auto t0 = Clock::now();
  for (int rep = 0;; ++rep) {
    if (rep >= kMinReps && seconds_since(t0) >= cfg.seconds) break;
    xsim::Machine m(config);
    const auto t1 = Clock::now();
    const auto r = xsim::run_fft_on_machine(m, kDims);
    const double t = seconds_since(t1);
    cycles_per_s.push_back(static_cast<double>(r.total_cycles) / t);
    report.attempted();
    if (rep == 0) {
      first = r;
    } else if (!same_run(first, r)) {
      identical = false;
    }
  }
  const double rss = peak_rss_mib();

  report.check(!first.truncated && first.total_cycles > 0,
               "simulated FFT completes without hitting the watchdog");
  report.check(identical, "simulated cycles and every MachineResult counter "
                          "repeat exactly");
  report.check(std::isfinite(t4) && t4 < 0.08,
               "FftPerfModel within the 8% Table IV tolerance (" +
                   sci(t4) + ")");

  const Summary speed = summarize(cycles_per_s);
  report.note("simulator host speed (not gated; per-layer sim.cycles_per_s): "
              "median " + sci(speed.median) + " cycles/s, q1 " +
              sci(speed.q1) + ", q3 " + sci(speed.q3) + ", n " +
              std::to_string(speed.n));
  report.metric("gflops", first.standard_gflops(kDims, config.clock_hz()),
                "GFLOP/s");
  report.metric("rel_err", t4, "ratio");
  report.median_metric("setup_s", setup, "s");
  report.metric("peak_rss_mb", rss, "MiB");
}

void run_traced(const RunConfig& cfg, Report& report, Tracer& tr) {
  run_probes(report);
  const xsim::MachineConfig config = machine_config();

  // Untraced and traced runs alternate, at least twice each and for
  // --seconds, so neither side alone pays the first run's cold start or a
  // slow stretch of the host. The traced run replays run_fft_on_machine with
  // one span per parallel section, named by the paper's phase class.
  const auto phases = xfft::build_fft_phases(kDims);
  xsim::DetailedFftResult ref;
  xsim::DetailedFftResult replay;
  double t_untraced = 0.0;
  std::vector<double> cycles_per_s;
  bool replays_match = true;
  int reps = 0;
  const auto t_start = Clock::now();
  for (; reps < 2 || seconds_since(t_start) < cfg.seconds; ++reps) {
    xsim::Machine ref_machine(config);
    const auto t0 = Clock::now();
    ref = xsim::run_fft_on_machine(ref_machine, kDims);
    const double t = seconds_since(t0);
    t_untraced += t;
    cycles_per_s.push_back(static_cast<double>(ref.total_cycles) / t);

    tr.set_run(reps);
    xsim::Machine m(config);
    replay = {};
    {
      Span whole(tr, "sim.fft");
      bool first = true;
      for (const auto& ph : phases) {
        const auto gen = xsim::make_fft_phase_generator(config, kDims, ph);
        Span s(tr, ph.rotation ? "sim.rot" : "sim.nonrot");
        const auto r = m.run_parallel_section(ph.threads, gen, !first);
        first = false;
        replay.total_cycles += r.cycles;
        replay.phases.push_back({ph.name, r});
      }
    }
    replays_match = replays_match && same_run(ref, replay);
  }
  report.attempted(2 * reps);
  report.check(replays_match,
               "traced replays reproduce run_fft_on_machine exactly");

  // Per-class counts from the returned MachineResults, and the analytic
  // model's cycles for the same phases.
  const xsim::FftPerfModel model(config);
  double rot_cycles = 0.0;
  double nonrot_cycles = 0.0;
  double rot_model = 0.0;
  double nonrot_model = 0.0;
  double requests = 0.0;
  double hits = 0.0;
  double fills = 0.0;
  double row_hits = 0.0;
  double dram_w = 0.0;
  double fpu_w = 0.0;
  double lsu_w = 0.0;
  double max_noc = 0.0;
  double max_mm = 0.0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& r = replay.phases[i].result;
    const auto c = static_cast<double>(r.cycles);
    const double mc = model.time_phase(phases[i]).cycles;
    (phases[i].rotation ? rot_cycles : nonrot_cycles) += c;
    (phases[i].rotation ? rot_model : nonrot_model) += mc;
    requests += static_cast<double>(r.mem_requests);
    hits += static_cast<double>(r.cache_hits);
    fills += static_cast<double>(r.dram_line_fills);
    row_hits += static_cast<double>(r.dram_row_hits);
    dram_w += r.dram_utilization * c;
    fpu_w += r.fpu_utilization * c;
    lsu_w += r.lsu_utilization * c;
    max_noc = std::max(max_noc, static_cast<double>(r.max_noc_queue));
    max_mm = std::max(max_mm, static_cast<double>(r.max_mm_queue));
  }
  const double total = rot_cycles + nonrot_cycles;

  // Host cost of one analyze_fft per preset.
  std::vector<double> analyze_us;
  const auto presets = xsim::paper_presets();
  for (int r = 0; r < kAnalyzeReps; ++r) {
    for (const auto& p : presets) {
      const xsim::FftPerfModel pm(p);
      const auto t1 = Clock::now();
      (void)pm.analyze_fft(kModelDims);
      analyze_us.push_back(seconds_since(t1) * 1e6);
    }
  }

  report.metric("sim.cycles_per_s", median(cycles_per_s), "cycles/s");
  report.metric("sim.cycles", total, "cycles");
  report.metric("sim.table4_rel_err", table4_rel_err(), "ratio");
  const double rot_s = tr.self_s("sim.rot") / reps;
  const double nonrot_s = tr.self_s("sim.nonrot") / reps;
  report.metric("sim.rot.host_s", rot_s, "s");
  report.metric("sim.nonrot.host_s", nonrot_s, "s");
  report.metric("sim.rot.host_ns_per_cycle", rot_s * 1e9 / rot_cycles,
                "ns/cycle");
  report.metric("sim.nonrot.host_ns_per_cycle", nonrot_s * 1e9 / nonrot_cycles,
                "ns/cycle");
  report.metric("sim.rot.cycles", rot_cycles, "cycles");
  report.metric("sim.nonrot.cycles", nonrot_cycles, "cycles");
  report.metric("sim.mem_requests", requests, "count");
  report.metric("sim.cache_hit_rate", requests > 0.0 ? hits / requests : 0.0,
                "ratio");
  report.metric("sim.dram_line_fills", fills, "count");
  report.metric("sim.dram_row_hits", row_hits, "count");
  report.metric("sim.dram_util", dram_w / total, "ratio");
  report.metric("sim.fpu_util", fpu_w / total, "ratio");
  report.metric("sim.lsu_util", lsu_w / total, "ratio");
  report.metric("sim.max_noc_queue", max_noc, "count");
  report.metric("sim.max_mm_queue", max_mm, "count");
  report.metric("sim.model_ratio.rot", rot_cycles / rot_model, "ratio");
  report.metric("sim.model_ratio.nonrot", nonrot_cycles / nonrot_model,
                "ratio");
  report.metric("sim.model_analyze_us", median(analyze_us), "us");
  report.metric("trace.overhead_frac", tr.total_s("sim.fft") / t_untraced,
                "ratio");
  report.note("sim.*_util are cycle-weighted means over the phases");
}

}  // namespace

void run_simfft(const RunConfig& cfg, Report& report, Tracer& tracer) {
  if (cfg.trace) {
    run_traced(cfg, report, tracer);
  } else {
    run_untraced(cfg, report);
  }
}

}  // namespace perfbench
