// xmtfft_perfbench: the repository's benchmark program.
//
//   xmtfft_perfbench --workload <host3d_256|host3d_256_pool|host1d_mix|sim_fft>
//                    --seed N
//                    --seconds S --trace <0|1> [--source-id ID]
//                    [--trace-out FILE]
//
// Prints a stamp line, one line per metric (name, value, unit, and for
// medians the quartiles, tail percentile and sample count), then as the last
// line one JSON object {correct, attempted, failed, metrics}. Exits 1 when an
// output gate failed, 2 on a usage or run error. perfbench/run.py builds
// this binary and runs it; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "json.hpp"
#include "sysinfo.hpp"
#include "workload.hpp"

namespace {

using perfbench::Report;

/// Every per-layer metric, in BENCHMARK.json order. A traced run reports all
/// of them; a layer the workload never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayer[] = {
    {"host.rows.s", "s"},
    {"host.butterfly.s", "s"},
    {"host.butterfly.gflops", "GFLOP/s"},
    {"host.butterfly.frac_peak", "ratio"},
    {"host.reorder.s", "s"},
    {"host.rotate.s", "s"},
    {"host.rotate.gbps", "GB/s"},
    {"host.rotate.frac_bw", "ratio"},
    {"host.fused_scatter.s", "s"},
    {"host.fused_scatter.gbps", "GB/s"},
    {"host.fused_scatter.frac_bw", "ratio"},
    {"pool.lanes", "count"},
    {"pool.dispatch_us", "us"},
    {"pool.speedup", "ratio"},
    {"pool.efficiency", "ratio"},
    {"plancache.hits", "count"},
    {"plancache.misses", "count"},
    {"plancache.hit_ns", "ns"},
    {"mix.pow2.gflops", "GFLOP/s"},
    {"mix.smooth.gflops", "GFLOP/s"},
    {"sim.cycles_per_s", "cycles/s"},
    {"sim.cycles", "cycles"},
    {"sim.table4_rel_err", "ratio"},
    {"sim.rot.host_s", "s"},
    {"sim.nonrot.host_s", "s"},
    {"sim.rot.host_ns_per_cycle", "ns/cycle"},
    {"sim.nonrot.host_ns_per_cycle", "ns/cycle"},
    {"sim.rot.cycles", "cycles"},
    {"sim.nonrot.cycles", "cycles"},
    {"sim.mem_requests", "count"},
    {"sim.cache_hit_rate", "ratio"},
    {"sim.dram_line_fills", "count"},
    {"sim.dram_row_hits", "count"},
    {"sim.dram_util", "ratio"},
    {"sim.fpu_util", "ratio"},
    {"sim.lsu_util", "ratio"},
    {"sim.max_noc_queue", "count"},
    {"sim.max_mm_queue", "count"},
    {"sim.model_ratio.rot", "ratio"},
    {"sim.model_ratio.nonrot", "ratio"},
    {"sim.model_analyze_us", "us"},
    {"probe.memcpy_gbps", "GB/s"},
    {"probe.peak_gflops", "GFLOP/s"},
    {"trace.overhead_frac", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "xmtfft_perfbench: %s\n"
               "usage: xmtfft_perfbench --workload <host3d_256|host3d_256_pool|"
               "host1d_mix|sim_fft> --seed N --seconds S --trace <0|1>"
               " [--source-id ID] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string source_id = "unknown";
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--source-id") {
      source_id = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  using RunFn = void (*)(const perfbench::RunConfig&, Report&,
                         perfbench::Tracer&);
  RunFn run = nullptr;
  if (cfg.workload == "host3d_256") {
    run = [](const perfbench::RunConfig& c, Report& r, perfbench::Tracer& t) {
      perfbench::run_host3d(c, r, t, false);
    };
  }
  if (cfg.workload == "host3d_256_pool") {
    run = [](const perfbench::RunConfig& c, Report& r, perfbench::Tracer& t) {
      perfbench::run_host3d(c, r, t, true);
    };
  }
  if (cfg.workload == "host1d_mix") run = perfbench::run_host1d;
  if (cfg.workload == "sim_fft") run = perfbench::run_simfft;
  if (run == nullptr) return usage(("unknown workload " + cfg.workload).c_str());

  const perfbench::HostInfo host = perfbench::host_info();
  const std::string stamp =
      perfbench::JsonObject()
          .add("source", source_id)
          .add("cpu", host.cpu_model)
          .add("nproc", static_cast<std::int64_t>(host.nproc))
          .add("l3_bytes", static_cast<std::int64_t>(host.l3_bytes))
          .add("pool_lanes", static_cast<std::int64_t>(perfbench::bench_lanes()))
          .add("compiler", host.compiler)
          .add("cxx_flags", host.cxx_flags)
          .add("workload", cfg.workload)
          .add("seed", static_cast<std::int64_t>(cfg.seed))
          .add("seconds", cfg.seconds)
          .add("trace", cfg.trace)
          .str();
  std::printf("stamp %s\n", stamp.c_str());
  std::fflush(stdout);

  Report report;
  perfbench::Tracer tracer;
  try {
    run(cfg, report, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xmtfft_perfbench: %s failed: %s\n",
                 cfg.workload.c_str(), e.what());
    return 2;
  }
  if (cfg.trace) {
    for (const auto& m : kPerLayer) {
      if (!report.has(m.name)) report.metric(m.name, 0.0, m.unit);
    }
    if (!trace_out.empty()) {
      std::ofstream f(trace_out);
      f << perfbench::JsonObject()
               .add_raw("stamp", stamp)
               .add_raw("spans", tracer.to_json())
               .str()
        << "\n";
      if (!f) {
        std::fprintf(stderr, "xmtfft_perfbench: cannot write %s\n",
                     trace_out.c_str());
        return 2;
      }
    }
  }

  for (const auto& line : report.notes()) std::printf("%s\n", line.c_str());
  perfbench::JsonObject metrics;
  for (const auto& m : report.metrics()) {
    std::printf("metric %-30s %-22s %s\n", m.name.c_str(),
                perfbench::json_number(m.value).c_str(), m.unit.c_str());
    metrics.add(m.name,
                perfbench::JsonObject().add("value", m.value).add("unit", m.unit));
  }
  const bool correct = report.failed_count() == 0;
  std::printf("%s\n", perfbench::JsonObject()
                          .add("correct", correct)
                          .add("attempted", report.attempted_count())
                          .add("failed", report.failed_count())
                          .add("metrics", metrics)
                          .str()
                          .c_str());
  return correct ? 0 : 1;
}
