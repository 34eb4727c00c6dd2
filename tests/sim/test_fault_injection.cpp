// Tests of the fault-injection layer: plan parsing, deterministic
// materialization, graceful degradation of the cycle-level machine (dead
// TCUs, failed DRAM channels, slow butterfly links), analytic derating, and
// the host-side soft-error recovery harness.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "xfault/fault_plan.hpp"
#include "xfault/resilient_fft.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/plan1d.hpp"
#include "xsim/fft_on_machine.hpp"
#include "xsim/fft_traffic.hpp"
#include "xsim/machine.hpp"
#include "xsim/perf_model.hpp"
#include "xutil/check.hpp"
#include "xutil/rng.hpp"

namespace {

using xfault::FaultMap;
using xfault::FaultPlan;
using xfault::MachineShape;
using xfft::Dims3;
using xsim::Machine;
using xsim::MachineConfig;

MachineConfig tiny_config() {
  MachineConfig c;
  c.name = "tiny";
  c.clusters = 8;
  c.tcus = 8 * 32;
  c.memory_modules = 8;
  c.mot_levels = 4;
  c.butterfly_levels = 2;
  c.mms_per_dram_ctrl = 2;
  c.fpus_per_cluster = 1;
  c.node = xphys::TechNode::k22nm;
  c.cache_bytes_per_mm = 8 * 1024;
  c.validate();
  return c;
}

MachineShape tiny_shape() { return xsim::fault_shape(tiny_config()); }

// ---------------------------------------------------------------------------
// FaultPlan parsing.
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesFullGrammar) {
  const auto p = FaultPlan::parse(
      "tcu:kill:0.01,dram:chan:3,noc:link:degrade:2x,soft:flip:1e-9", 7);
  EXPECT_DOUBLE_EQ(p.tcu_kill, 0.01);
  EXPECT_DOUBLE_EQ(p.dram_chan_fail, 3.0);
  EXPECT_DOUBLE_EQ(p.noc_degrade_factor, 2.0);
  EXPECT_DOUBLE_EQ(p.noc_degrade_select, 1.0);  // default: all links
  EXPECT_DOUBLE_EQ(p.soft_flip_rate, 1e-9);
  EXPECT_EQ(p.seed, 7u);
  EXPECT_FALSE(p.empty());
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  const auto p = FaultPlan::parse("", 3);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.seed, 3u);
}

TEST(FaultPlan, SeedDirectiveOverridesArgument) {
  const auto p = FaultPlan::parse("cluster:kill:1,seed:99", 3);
  EXPECT_EQ(p.seed, 99u);
}

TEST(FaultPlan, RoundTripsThroughToString) {
  const auto p = FaultPlan::parse(
      "cluster:kill:2,noc:link:degrade:4x:0.5,soft:flip:1e-6", 11);
  const auto q = FaultPlan::parse(p.to_string(), p.seed);
  EXPECT_DOUBLE_EQ(q.cluster_kill, p.cluster_kill);
  EXPECT_DOUBLE_EQ(q.noc_degrade_factor, p.noc_degrade_factor);
  EXPECT_DOUBLE_EQ(q.noc_degrade_select, p.noc_degrade_select);
  EXPECT_DOUBLE_EQ(q.soft_flip_rate, p.soft_flip_rate);
  EXPECT_EQ(q.seed, p.seed);
}

TEST(FaultPlan, MalformedDirectiveNamesOffenderInError) {
  try {
    (void)FaultPlan::parse("tcu:kill:0.01,bogus:thing:1");
    FAIL() << "expected parse error";
  } catch (const xutil::Error& e) {
    EXPECT_NE(std::string(e.what()).find("bogus:thing:1"), std::string::npos);
  }
  EXPECT_THROW((void)FaultPlan::parse("tcu:kill:abc"), xutil::Error);
  EXPECT_THROW((void)FaultPlan::parse("noc:link:degrade:2"), xutil::Error);
  EXPECT_THROW((void)FaultPlan::parse("tcu:kill:-1"), xutil::Error);
}

// ---------------------------------------------------------------------------
// Materialization: determinism and nesting.
// ---------------------------------------------------------------------------

TEST(FaultMaterialize, DeterministicForFixedSeed) {
  const auto plan = FaultPlan::parse(
      "tcu:kill:0.1,dram:chan:1,noc:link:degrade:2x:0.5", 42);
  const auto a = materialize(plan, tiny_shape());
  const auto b = materialize(plan, tiny_shape());
  EXPECT_EQ(a.dead_tcu, b.dead_tcu);
  EXPECT_EQ(a.failed_channel, b.failed_channel);
  EXPECT_EQ(a.link_period, b.link_period);
}

TEST(FaultMaterialize, DifferentSeedsPickDifferentVictims) {
  const auto pa = FaultPlan::parse("tcu:kill:0.25", 1);
  const auto pb = FaultPlan::parse("tcu:kill:0.25", 2);
  const auto a = materialize(pa, tiny_shape());
  const auto b = materialize(pb, tiny_shape());
  EXPECT_EQ(a.dead_tcu_count(), b.dead_tcu_count());
  EXPECT_NE(a.dead_tcu, b.dead_tcu);
}

TEST(FaultMaterialize, VictimSetsNestAcrossFractions) {
  // Permutation-prefix selection: for one seed, the 10% victim set contains
  // the 5% set, which is what makes degradation sweeps monotone.
  const auto lo = materialize(FaultPlan::parse("tcu:kill:0.05", 5),
                              tiny_shape());
  const auto hi = materialize(FaultPlan::parse("tcu:kill:0.10", 5),
                              tiny_shape());
  ASSERT_GT(lo.dead_tcu_count(), 0u);
  ASSERT_GT(hi.dead_tcu_count(), lo.dead_tcu_count());
  for (std::size_t t = 0; t < tiny_shape().tcus(); ++t) {
    if (lo.tcu_dead(t)) {
      EXPECT_TRUE(hi.tcu_dead(t)) << "tcu " << t;
    }
  }
}

TEST(FaultMaterialize, CountsAndFractionsResolve) {
  const auto shape = tiny_shape();
  const auto frac = materialize(FaultPlan::parse("tcu:kill:0.5", 1), shape);
  EXPECT_EQ(frac.dead_tcu_count(), shape.tcus() / 2);
  const auto cnt = materialize(FaultPlan::parse("dram:chan:3", 1), shape);
  EXPECT_EQ(cnt.failed_channel_count(), 3u);
  const auto clus = materialize(FaultPlan::parse("cluster:kill:2", 1), shape);
  EXPECT_EQ(clus.live_clusters(), shape.clusters - 2);
  EXPECT_EQ(clus.dead_tcu_count(), 2 * shape.tcus_per_cluster);
}

TEST(FaultMaterialize, RefusesToKillEverything) {
  // tiny has 256 TCUs and 4 DRAM channels; killing all of either must be
  // rejected at materialization time.
  EXPECT_THROW((void)materialize(FaultPlan::parse("tcu:kill:256"),
                                 tiny_shape()),
               xutil::Error);
  EXPECT_THROW((void)materialize(FaultPlan::parse("cluster:kill:8"),
                                 tiny_shape()),
               xutil::Error);
  EXPECT_THROW((void)materialize(FaultPlan::parse("dram:chan:4"),
                                 tiny_shape()),
               xutil::Error);
}

TEST(FaultMaterialize, EmptyPlanYieldsPerfectMachine) {
  const auto map = materialize(FaultPlan{}, tiny_shape());
  EXPECT_FALSE(map.any_machine_faults());
  EXPECT_EQ(map.live_tcus(), tiny_shape().tcus());
  EXPECT_EQ(map.live_channels(), tiny_shape().dram_channels());
  EXPECT_DOUBLE_EQ(map.mean_link_throughput(), 1.0);
}

// ---------------------------------------------------------------------------
// Degraded machine behaviour.
// ---------------------------------------------------------------------------

TEST(MachineFaults, ZeroFaultMapMatchesBaselineExactly) {
  const auto gen = xsim::make_uniform_generator(4, 4, 1 << 20, 1);
  Machine clean(tiny_config());
  const auto base = clean.run_parallel_section(512, gen);

  Machine faulted(tiny_config());
  faulted.set_faults(materialize(FaultPlan{}, tiny_shape()));
  const auto r = faulted.run_parallel_section(512, gen);

  EXPECT_EQ(r.cycles, base.cycles);
  EXPECT_EQ(r.mem_requests, base.mem_requests);
  EXPECT_EQ(r.cache_hits, base.cache_hits);
  EXPECT_EQ(r.dram_line_fills, base.dram_line_fills);
  EXPECT_EQ(r.dram_row_hits, base.dram_row_hits);
  EXPECT_EQ(r.max_mm_queue, base.max_mm_queue);
  EXPECT_EQ(r.max_noc_queue, base.max_noc_queue);
  EXPECT_EQ(r.remapped_fills, 0u);
  EXPECT_EQ(r.dead_tcus, 0u);
}

TEST(MachineFaults, SameSeedGivesBitIdenticalCounters) {
  const auto plan = FaultPlan::parse(
      "cluster:kill:1,dram:chan:1,noc:link:degrade:2x", 42);
  const auto gen = xsim::make_uniform_generator(8, 4, 1 << 20, 5);

  auto run_once = [&] {
    Machine m(tiny_config());
    m.set_faults(materialize(plan, tiny_shape()));
    return m.run_parallel_section(1024, gen);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.mem_requests, b.mem_requests);
  EXPECT_EQ(a.dram_line_fills, b.dram_line_fills);
  EXPECT_EQ(a.remapped_fills, b.remapped_fills);
  EXPECT_EQ(a.max_mm_queue, b.max_mm_queue);
  EXPECT_EQ(a.max_noc_queue, b.max_noc_queue);
}

TEST(MachineFaults, DeadClusterAndFailedChannelStillDrain) {
  const auto plan = FaultPlan::parse("cluster:kill:1,dram:chan:1", 7);
  Machine m(tiny_config());
  m.set_faults(materialize(plan, tiny_shape()));
  const auto gen = xsim::make_uniform_generator(8, 4, 1 << 22, 9);
  const auto r = m.run_parallel_section(1024, gen);

  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.threads_completed, 1024u);
  EXPECT_EQ(r.mem_requests, 1024u * 12u);
  EXPECT_EQ(r.dead_tcus, 32u);
  EXPECT_EQ(r.failed_channels, 1u);
  // Cold caches over a wide footprint: some fills must have been rerouted
  // off the failed channel.
  EXPECT_GT(r.remapped_fills, 0u);

  Machine clean(tiny_config());
  const auto base = clean.run_parallel_section(1024, gen);
  EXPECT_GE(r.cycles, base.cycles);  // losing capacity never speeds it up
}

TEST(MachineFaults, DegradedLinksSlowTheButterfly) {
  // Link bandwidth only binds when the memory system doesn't: use a warm,
  // cache-resident footprint so every cluster injects a request per cycle
  // and the butterfly runs at capacity (a cold DRAM-bound run would hide a
  // 4x link slowdown entirely behind the channel bottleneck).
  const auto gen = xsim::make_uniform_generator(16, 0, 4096, 13);
  Machine clean(tiny_config());
  (void)clean.run_parallel_section(1024, gen);  // warm the caches
  const auto base = clean.run_parallel_section(1024, gen, /*keep_cache=*/true);

  Machine slow(tiny_config());
  slow.set_faults(
      materialize(FaultPlan::parse("noc:link:degrade:4x", 3), tiny_shape()));
  (void)slow.run_parallel_section(1024, gen);  // warm the caches
  const auto r = slow.run_parallel_section(1024, gen, /*keep_cache=*/true);
  EXPECT_GT(r.degraded_links, 0u);
  EXPECT_GT(base.cache_hit_rate(), 0.95);
  EXPECT_GT(r.cycles, base.cycles * 2);  // 4x slower links, NoC-bound phase
  EXPECT_EQ(r.threads_completed, 1024u);
}

TEST(MachineFaults, RejectsMapForWrongShape) {
  auto other = tiny_config();
  other.clusters = 4;
  other.tcus = 4 * 32;
  other.memory_modules = 4;
  other.mot_levels = 2;
  other.mms_per_dram_ctrl = 1;
  other.validate();
  const auto map =
      materialize(FaultPlan::parse("tcu:kill:1"), xsim::fault_shape(other));
  Machine m(tiny_config());
  EXPECT_THROW(m.set_faults(map), xutil::Error);
}

TEST(MachineFaults, FullFftDrainsOnDegradedMachine) {
  // The acceptance scenario: >= 1 dead cluster, >= 1 failed channel, and the
  // whole multi-phase FFT still completes without throwing.
  const auto cfg = tiny_config();
  Machine m(cfg);
  m.set_faults(materialize(
      FaultPlan::parse("cluster:kill:1,dram:chan:1,soft:flip:1e-4", 21),
      xsim::fault_shape(cfg)));
  const auto r = xsim::run_fft_on_machine(m, Dims3{64, 16, 1}, 8);
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.phases.size(), 1u);
  for (const auto& ph : r.phases) {
    EXPECT_EQ(ph.result.threads_completed, ph.result.threads) << ph.name;
  }
}

// ---------------------------------------------------------------------------
// Analytic derating.
// ---------------------------------------------------------------------------

TEST(FaultDerating, HealthyMapDeratesNothing) {
  const auto d = xsim::FaultDerating::from_fault_map(
      materialize(FaultPlan{}, tiny_shape()));
  EXPECT_TRUE(d.healthy());
}

TEST(FaultDerating, DegradedModelIsSlowerAndMonotone) {
  const auto cfg = tiny_config();
  const Dims3 dims{256, 256, 1};
  const auto healthy = xsim::FftPerfModel(cfg).analyze_fft(dims, 8);
  double prev = healthy.standard_gflops;
  for (const double f : {0.02, 0.05, 0.10}) {
    FaultPlan plan;
    plan.tcu_kill = f;
    plan.dram_chan_fail = f;
    plan.seed = 42;
    const auto map = materialize(plan, xsim::fault_shape(cfg));
    const auto d = xsim::FaultDerating::from_fault_map(map);
    const auto r = xsim::FftPerfModel(cfg, d).analyze_fft(dims, 8);
    EXPECT_LE(r.standard_gflops, prev * (1.0 + 1e-9)) << "fraction " << f;
    prev = r.standard_gflops;
  }
  EXPECT_LT(prev, healthy.standard_gflops);
}

// ---------------------------------------------------------------------------
// Host-side soft-error resilience.
// ---------------------------------------------------------------------------

std::vector<xfft::Cf> random_signal(std::size_t n, std::uint64_t seed) {
  std::vector<xfft::Cf> v(n);
  xutil::Pcg32 rng(seed);
  for (auto& x : v) x = xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
  return v;
}

double rel_l2(std::span<const xfft::Cf> a, std::span<const xfft::Cf> b) {
  double diff2 = 0.0;
  double ref2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto d = a[i] - b[i];
    diff2 += static_cast<double>(d.real()) * d.real() +
             static_cast<double>(d.imag()) * d.imag();
    ref2 += static_cast<double>(b[i].real()) * b[i].real() +
            static_cast<double>(b[i].imag()) * b[i].imag();
  }
  return ref2 > 0.0 ? std::sqrt(diff2 / ref2) : std::sqrt(diff2);
}

TEST(ResilientFft, ZeroRateMatchesPlanNdExactly) {
  const Dims3 dims{32, 16, 4};
  auto data = random_signal(dims.total(), 77);
  auto expect = data;
  xfft::PlanND<float>(dims, xfft::Direction::kForward)
      .execute(std::span<xfft::Cf>(expect));

  const auto rep = xfault::resilient_fft(std::span<xfft::Cf>(data), dims,
                                         xfft::Direction::kForward, {});
  EXPECT_EQ(rep.flips_injected, 0u);
  EXPECT_EQ(rep.errors_detected, 0u);
  EXPECT_EQ(rep.rows_recomputed, 0u);
  EXPECT_TRUE(rep.ok());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], expect[i]) << "element " << i;
  }
}

TEST(ResilientFft, NonFiniteInputRowIsRejected) {
  // The butterflies' cmul skips the C99 Annex G recovery of operator*, so
  // an inf or NaN operand must still surface as a non-finite row energy
  // for the Parseval checksum to reject.
  for (const float bad : {std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    auto row = random_signal(64, 5);
    row[17] = xfft::Cf(bad, 0.0F);
    xfft::Plan1D<float>(64, xfft::Direction::kForward)
        .execute(std::span<xfft::Cf>(row));
    EXPECT_FALSE(std::isfinite(xfault::parseval_energy(row))) << bad;

    const Dims3 dims{64, 8, 1};
    auto data = random_signal(dims.total(), 6);
    data[17] = xfft::Cf(0.0F, bad);
    const auto rep = xfault::resilient_fft(std::span<xfft::Cf>(data), dims,
                                           xfft::Direction::kForward, {});
    EXPECT_GT(rep.errors_detected, 0u) << bad;
    EXPECT_FALSE(rep.ok()) << bad;
  }
}

TEST(ResilientFft, RecoversFromInjectedSoftErrors) {
  const Dims3 dims{64, 32, 1};
  auto data = random_signal(dims.total(), 99);
  auto expect = data;
  xfft::PlanND<float>(dims, xfft::Direction::kForward)
      .execute(std::span<xfft::Cf>(expect));

  xfault::ResilienceOptions opt;
  opt.soft_flip_rate = 1e-3;  // ~2 flips per 2048-element transform per pass
  opt.seed = 5;
  const auto rep = xfault::resilient_fft(std::span<xfft::Cf>(data), dims,
                                         xfft::Direction::kForward, opt);
  EXPECT_GT(rep.flips_injected, 0u);
  EXPECT_GT(rep.errors_detected, 0u);
  EXPECT_GT(rep.rows_recomputed, 0u);
  EXPECT_EQ(rep.retries_exhausted, 0u);
  EXPECT_LT(rel_l2(data, expect), 1e-3);
}

TEST(ResilientFft, DeterministicForFixedSeed) {
  const Dims3 dims{64, 8, 1};
  xfault::ResilienceOptions opt;
  opt.soft_flip_rate = 1e-3;
  opt.seed = 31;
  auto a = random_signal(dims.total(), 1);
  auto b = a;
  const auto ra = xfault::resilient_fft(std::span<xfft::Cf>(a), dims,
                                        xfft::Direction::kForward, opt);
  const auto rb = xfault::resilient_fft(std::span<xfft::Cf>(b), dims,
                                        xfft::Direction::kForward, opt);
  EXPECT_EQ(ra.flips_injected, rb.flips_injected);
  EXPECT_EQ(ra.errors_detected, rb.errors_detected);
  EXPECT_EQ(ra.rows_recomputed, rb.rows_recomputed);
  EXPECT_EQ(a, b);
}

TEST(ResilientFft, InverseRoundTripsUnderInjection) {
  const Dims3 dims{32, 8, 1};
  const auto original = random_signal(dims.total(), 123);
  auto data = original;
  xfault::ResilienceOptions opt;
  opt.soft_flip_rate = 5e-4;
  opt.seed = 8;
  const auto f = xfault::resilient_fft(std::span<xfft::Cf>(data), dims,
                                       xfft::Direction::kForward, opt);
  opt.seed = 9;
  const auto i = xfault::resilient_fft(std::span<xfft::Cf>(data), dims,
                                       xfft::Direction::kInverse, opt);
  EXPECT_TRUE(f.ok());
  EXPECT_TRUE(i.ok());
  EXPECT_LT(rel_l2(data, original), 1e-4);
}

// ---------------------------------------------------------------------------
// FaultDerating::from_fault_map edge cases (hand-built maps, no sampling).
// ---------------------------------------------------------------------------

MachineShape derating_shape() {
  MachineShape s;
  s.clusters = 4;
  s.tcus_per_cluster = 8;
  s.memory_modules = 8;
  s.mms_per_dram_ctrl = 2;
  s.butterfly_levels = 2;
  return s;
}

TEST(FaultDerating, EmptyMapIsHealthy) {
  FaultMap map;
  map.shape = derating_shape();
  const auto d = xsim::FaultDerating::from_fault_map(map);
  EXPECT_TRUE(d.healthy());
  EXPECT_EQ(d.compute, 1.0);
  EXPECT_EQ(d.issue, 1.0);
  EXPECT_EQ(d.ports, 1.0);
  EXPECT_EQ(d.noc, 1.0);
  EXPECT_EQ(d.dram, 1.0);
}

TEST(FaultDerating, AllChannelsDeadDeratesDramToZero) {
  FaultMap map;
  map.shape = derating_shape();
  map.failed_channel.assign(map.shape.dram_channels(), 1);
  const auto d = xsim::FaultDerating::from_fault_map(map);
  EXPECT_EQ(d.dram, 0.0);
  EXPECT_EQ(d.compute, 1.0);  // clusters untouched
  EXPECT_EQ(d.issue, 1.0);
  EXPECT_FALSE(d.healthy());
}

TEST(FaultDerating, AllTcusDeadDeratesIssueAndComputeToZero) {
  FaultMap map;
  map.shape = derating_shape();
  map.dead_tcu.assign(map.shape.tcus(), 1);
  const auto d = xsim::FaultDerating::from_fault_map(map);
  EXPECT_EQ(d.issue, 0.0);
  EXPECT_EQ(d.compute, 0.0);  // no cluster has a live TCU
  EXPECT_EQ(d.ports, 0.0);    // ports follow clusters
  EXPECT_EQ(d.dram, 1.0);
}

TEST(FaultDerating, ExactFractionsFromHandBuiltMap) {
  FaultMap map;
  map.shape = derating_shape();  // 4 clusters x 8 TCUs, 4 channels
  // Kill all of cluster 0 (8 TCUs) plus 4 TCUs of cluster 1: 20/32 live,
  // 3/4 clusters live.
  map.dead_tcu.assign(map.shape.tcus(), 0);
  for (std::size_t t = 0; t < 12; ++t) map.dead_tcu[t] = 1;
  // One of four channels down.
  map.failed_channel.assign(map.shape.dram_channels(), 0);
  map.failed_channel[2] = 1;
  // Half the butterfly links at period 2 (throughput 1/2): mean 3/4.
  map.link_period.assign(map.shape.butterfly_links(), 1);
  for (std::size_t l = 0; l < map.link_period.size() / 2; ++l) {
    map.link_period[l] = 2;
  }
  const auto d = xsim::FaultDerating::from_fault_map(map);
  EXPECT_DOUBLE_EQ(d.issue, 20.0 / 32.0);
  EXPECT_DOUBLE_EQ(d.compute, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(d.ports, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(d.dram, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(d.noc, 0.75);
}

TEST(FaultDerating, ZeroCapacityDeratingRejectedByModel) {
  FaultMap map;
  map.shape = derating_shape();
  map.dead_tcu.assign(map.shape.tcus(), 1);
  const auto d = xsim::FaultDerating::from_fault_map(map);
  MachineConfig c = tiny_config();
  EXPECT_THROW(xsim::FftPerfModel(c, d), xutil::Error);
}

}  // namespace

