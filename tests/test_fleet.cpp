// Fleet-simulator suite: the battery model, SoC-threshold adaptation (exact
// threshold hits, exhaustion mid-run, zero-device fleets), spec expansion
// jitter, LUT fan-in across devices, and the subsystem's load-bearing
// property — the same FleetSpec at 1 and 8 worker threads yields
// byte-identical JSONL, shard files and summary JSON.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "energy/battery.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "hhpim/scheduler.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"
#include "sim/stats.hpp"

namespace hhpim::fleet {
namespace {

using namespace hhpim::literals;

/// A small fleet that runs in milliseconds: one model, low LUT resolution.
FleetSpec small_fleet(int devices = 24, int slices = 6) {
  FleetSpec spec;
  spec.name = "test-fleet";
  spec.devices = devices;
  spec.slices = slices;
  spec.models = {nn::zoo::efficientnet_b0()};
  spec.config.lut_t_entries = 16;
  spec.config.lut_k_blocks = 16;
  return spec;
}

/// Options for the simulator tests below. A helper rather than designated
/// initializers, which would leave every later field to
/// -Wmissing-field-initializers.
FleetOptions fleet_options(unsigned threads, std::size_t shard_size,
                           placement::LutCache* lut_cache) {
  FleetOptions opts;
  opts.threads = threads;
  opts.shard_size = shard_size;
  opts.lut_cache = lut_cache;
  return opts;
}

// --- battery -----------------------------------------------------------------

TEST(Battery, DrainClampsAndReportsExhaustion) {
  energy::BatteryConfig cfg;
  cfg.capacity = Energy::pj(100.0);
  energy::Battery b{cfg};
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
  EXPECT_DOUBLE_EQ(b.drain(Energy::pj(40.0)).as_pj(), 40.0);
  EXPECT_DOUBLE_EQ(b.soc(), 0.6);
  EXPECT_FALSE(b.exhausted());
  // Requested > remaining: the drain truncates — the caller detects
  // died-mid-slice by drained < requested.
  EXPECT_DOUBLE_EQ(b.drain(Energy::pj(80.0)).as_pj(), 60.0);
  EXPECT_TRUE(b.exhausted());
  EXPECT_DOUBLE_EQ(b.drain(Energy::pj(1.0)).as_pj(), 0.0);
  b.recharge(Energy::pj(10.0));
  EXPECT_FALSE(b.exhausted());
  b.recharge(Energy::pj(1000.0));  // clamped to capacity
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
}

TEST(Battery, RejectsBadConfig) {
  energy::BatteryConfig zero;
  zero.capacity = Energy::zero();
  EXPECT_THROW(energy::Battery{zero}, std::invalid_argument);
  energy::BatteryConfig soc;
  soc.initial_soc = 1.5;
  EXPECT_THROW(energy::Battery{soc}, std::invalid_argument);
}

// --- adaptive policy ---------------------------------------------------------

TEST(AdaptivePolicy, HysteresisAndExactThresholds) {
  AdaptivePolicy p{{.low_soc = 0.3, .high_soc = 0.5}};
  EXPECT_EQ(p.update(1.0), DeviceMode::kDynamic);
  EXPECT_EQ(p.update(0.31), DeviceMode::kDynamic);
  // Exactly at the low threshold switches (<=).
  EXPECT_EQ(p.update(0.30), DeviceMode::kLowPower);
  EXPECT_EQ(p.switches(), 1u);
  // Inside the hysteresis band: stays low-power.
  EXPECT_EQ(p.update(0.45), DeviceMode::kLowPower);
  // Exactly at the high threshold switches back (>=).
  EXPECT_EQ(p.update(0.50), DeviceMode::kDynamic);
  EXPECT_EQ(p.switches(), 2u);
  EXPECT_EQ(p.update(0.49), DeviceMode::kDynamic);  // band is sticky both ways
}

TEST(AdaptivePolicy, RejectsBadThresholds) {
  EXPECT_THROW(AdaptivePolicy({.low_soc = 0.6, .high_soc = 0.4}),
               std::invalid_argument);
  EXPECT_THROW(AdaptivePolicy({.low_soc = -0.1, .high_soc = 0.4}),
               std::invalid_argument);
  EXPECT_THROW(AdaptivePolicy({.low_soc = 0.4, .high_soc = 1.1}),
               std::invalid_argument);
  EXPECT_NO_THROW(AdaptivePolicy({.low_soc = 0.4, .high_soc = 0.4}));
}

// --- histogram merge (the shard-aggregation primitive) -----------------------

TEST(HistogramMerge, ExactAcrossSplits) {
  sim::Histogram whole{0.0, 10.0, 10};
  sim::Histogram a{0.0, 10.0, 10};
  sim::Histogram b{0.0, 10.0, 10};
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(i) * 0.13 - 1.0;  // incl. under/overflow
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), whole.total());
  EXPECT_EQ(a.underflow(), whole.underflow());
  EXPECT_EQ(a.overflow(), whole.overflow());
  for (std::size_t i = 0; i < whole.bins().size(); ++i) {
    EXPECT_EQ(a.bins()[i], whole.bins()[i]);
  }
  EXPECT_DOUBLE_EQ(a.quantile(0.5), whole.quantile(0.5));

  // The busy-time accumulator is exact too: any insertion order and any
  // merge order give the same bits.
  std::vector<std::uint64_t> samples;
  SplitMix64 rng{0xb05ULL};
  for (int i = 0; i < 1000; ++i) samples.push_back(rng.next() % 5'000'000'000ULL);
  sim::ExactSummary in_order;
  for (const std::uint64_t v : samples) in_order.add(v);
  std::vector<std::uint64_t> shuffled = samples;
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.next() % (i + 1)]);
  }
  std::vector<sim::ExactSummary> shards(7);
  for (std::size_t i = 0; i < shuffled.size(); ++i) shards[i % 7].add(shuffled[i]);
  sim::ExactSummary reversed;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) reversed.merge(*it);
  EXPECT_EQ(reversed.count(), in_order.count());
  EXPECT_EQ(reversed.min(), in_order.min());
  EXPECT_EQ(reversed.max(), in_order.max());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reversed.mean()),
            std::bit_cast<std::uint64_t>(in_order.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reversed.stddev()),
            std::bit_cast<std::uint64_t>(in_order.stddev()));

  // An empty summary rebuilt from its written parts (min() reads 0) is
  // still a merge identity.
  sim::ExactSummary with_empty = in_order;
  with_empty.merge(sim::ExactSummary::from_parts(0, sim::ExactSummary{}.min(), 0, 0, 0));
  EXPECT_EQ(with_empty.min(), in_order.min());
  EXPECT_EQ(with_empty.count(), in_order.count());

  // It agrees with the floating-point Welford summary it replaces.
  sim::Summary welford;
  for (const std::uint64_t v : samples) welford.add(static_cast<double>(v));
  EXPECT_NEAR(in_order.mean(), welford.mean(), 1e-12 * welford.mean());
  EXPECT_NEAR(in_order.stddev(), welford.stddev(), 1e-9 * welford.stddev());

  // Constant samples have a stddev of exactly 0, not a rounding residue.
  sim::ExactSummary constant;
  for (int i = 0; i < 999; ++i) constant.add(1'234'567'891ULL);
  EXPECT_EQ(constant.stddev(), 0.0);
  EXPECT_EQ(constant.mean(), 1'234'567'891.0);

  // Week-scale slices (up to 1.7e12 ps each) square past 64 bits; the
  // 128-bit sums hold them.
  constexpr std::uint64_t kBig = 1'700'000'000'000ULL;
  sim::ExactSummary big;
  for (int i = 0; i < 10'000; ++i) big.add(i % 2 == 0 ? kBig : kBig - 2);
  EXPECT_EQ(big.mean(), static_cast<double>(kBig - 1));
  // Population stddev is exactly 1; the n-1 form is sqrt(n / (n - 1)).
  EXPECT_NEAR(big.stddev(), std::sqrt(10'000.0 / 9'999.0), 1e-12);
}

TEST(HistogramMerge, ShapeMismatchThrows) {
  sim::Histogram a{0.0, 10.0, 10};
  sim::Histogram bins{0.0, 10.0, 20};
  sim::Histogram range{0.0, 5.0, 10};
  EXPECT_THROW(a.merge(bins), std::invalid_argument);
  EXPECT_THROW(a.merge(range), std::invalid_argument);
}

// --- spec expansion ----------------------------------------------------------

TEST(FleetSpec, ExpandIsDeterministicAndJittered) {
  const FleetSpec spec = small_fleet(32);
  const auto a = spec.expand();
  const auto b = spec.expand();
  ASSERT_EQ(a.size(), 32u);
  std::set<std::uint64_t> seeds;
  std::set<int> phases;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].phase, b[i].phase);
    EXPECT_EQ(static_cast<int>(a[i].scenario), static_cast<int>(b[i].scenario));
    seeds.insert(a[i].seed);
    phases.insert(a[i].phase);
  }
  // Jitter: seeds are (overwhelmingly) distinct, phases spread out.
  EXPECT_EQ(seeds.size(), 32u);
  EXPECT_GT(phases.size(), 1u);
}

TEST(FleetSpec, ValidationRejectsBadSpecs) {
  FleetSpec negative = small_fleet(-1);
  EXPECT_THROW(negative.validate(), std::invalid_argument);
  FleetSpec no_slices = small_fleet(4, 6);
  no_slices.slices = 0;
  EXPECT_THROW(no_slices.validate(), std::invalid_argument);
  FleetSpec trace_mix = small_fleet(4);
  trace_mix.mix = {workload::Scenario::kTrace};
  EXPECT_THROW(trace_mix.validate(), std::invalid_argument);
  // Adaptation requires MRAM + the dynamic policy.
  FleetSpec baseline = small_fleet(4);
  baseline.config.arch = sys::ArchConfig::baseline();
  EXPECT_THROW(baseline.validate(), std::invalid_argument);
  baseline.adapt = false;
  EXPECT_NO_THROW(baseline.validate());
  // ... and the low-power MRAM placement must actually fit every model
  // (rejected here, not from a worker thread mid-run).
  FleetSpec tiny_mram = small_fleet(4);
  tiny_mram.config.arch.mram_kb_per_module = 1;
  EXPECT_THROW(tiny_mram.validate(), std::invalid_argument);
  // The LUT cache is an execution concern (FleetOptions), never the spec's.
  FleetSpec preset_cache = small_fleet(4);
  placement::LutCache cache;
  preset_cache.config.lut_cache = &cache;
  EXPECT_THROW(preset_cache.validate(), std::invalid_argument);
}

TEST(FleetSpec, DeviceLoadsRotateByPhase) {
  FleetSpec spec = small_fleet(1, 8);
  auto specs = spec.expand();
  ASSERT_EQ(specs.size(), 1u);
  DeviceSpec d = specs[0];
  d.scenario = workload::Scenario::kPeriodicSpike;
  d.cfg.spike_period = 8;  // spike at index 0 before rotation
  d.phase = 3;
  const std::vector<int> loads = device_loads(d);
  ASSERT_EQ(loads.size(), 8u);
  // Rotated left by 3: the spike lands at index (0 - 3) mod 8 = 5.
  EXPECT_EQ(loads[5], d.cfg.high);
  EXPECT_EQ(loads[0], d.cfg.low);
}

// --- device edge cases -------------------------------------------------------

TEST(Device, BatteryExhaustedMidRunStopsAndDropsTasks) {
  FleetSpec spec = small_fleet(1, 6);
  // A battery that dies after roughly one busy slice.
  spec.battery.capacity = Energy::mj(10.0);
  auto specs = spec.expand();
  specs[0].scenario = workload::Scenario::kHighConstant;
  placement::LutCache cache;
  Device dev{spec, specs[0], spec.models[0], &cache};
  const DeviceResult r = dev.run(nullptr);
  EXPECT_GE(r.exhausted_at_slice, 0);
  EXPECT_LT(r.slices_executed, r.slices_total);
  EXPECT_GT(r.tasks_dropped, 0u);
  EXPECT_DOUBLE_EQ(r.final_soc, 0.0);
  // Drained energy never exceeds capacity.
  EXPECT_LE(r.energy_pj, r.battery_capacity_pj);
}

TEST(Device, AdaptationPinsLowPowerPlacementUnderLowSoc) {
  FleetSpec spec = small_fleet(1, 8);
  // Start below the low threshold: every slice must run low-power.
  spec.battery.initial_soc = 0.25;
  spec.thresholds = {.low_soc = 0.3, .high_soc = 0.5};
  auto specs = spec.expand();
  specs[0].scenario = workload::Scenario::kLowConstant;
  placement::LutCache cache;
  Device dev{spec, specs[0], spec.models[0], &cache};
  const DeviceResult r = dev.run(nullptr);
  EXPECT_EQ(r.mode_switches, 1u);
  EXPECT_EQ(r.low_power_slices, r.slices_executed);
  // The pinned placement is MRAM-balanced: identical to balanced_mram_split.
  const auto& proc = dev.processor();
  EXPECT_TRUE(proc.placement_override_active());
  const placement::Allocation mram = sys::balanced_mram_split(
      proc.cost_model(), proc.total_weights());
  EXPECT_TRUE(proc.current_allocation() == mram);
}

TEST(Device, NoAdaptMatchesPlainHhpimEnergy) {
  // With adapt off and an effectively infinite battery, a device is exactly
  // a sys::Processor::run_scenario of its jittered trace.
  FleetSpec spec = small_fleet(1, 6);
  spec.adapt = false;
  spec.battery.capacity = Energy::mj(1e9);
  auto specs = spec.expand();
  placement::LutCache cache;
  Device dev{spec, specs[0], spec.models[0], &cache};
  const DeviceResult r = dev.run(nullptr);

  sys::SystemConfig config = spec.config;
  config.lut_cache = &cache;
  sys::Processor proc{config, spec.models[0]};
  const sys::RunStats stats = proc.run_scenario(device_loads(specs[0]));
  // The device sums per-slice ledger deltas, run_scenario takes one
  // end-to-end delta — equal up to FP association, so compare tightly but
  // not bit-exactly (total is ~1e10 pJ).
  EXPECT_NEAR(r.energy_pj, stats.total_energy.as_pj(), 1.0);
  EXPECT_EQ(r.tasks, stats.tasks);
  EXPECT_EQ(r.deadline_violations, stats.deadline_violations);
}

// --- simulator ---------------------------------------------------------------

TEST(FleetSimulator, ZeroDeviceFleet) {
  const FleetSpec spec = small_fleet(0);
  const FleetSimulator sim{fleet_options(4, 256, nullptr)};
  const FleetResult r = sim.run(spec);
  EXPECT_EQ(r.devices.size(), 0u);
  EXPECT_EQ(r.shard_count, 0u);
  EXPECT_EQ(r.aggregate.devices, 0u);
  EXPECT_EQ(r.to_jsonl(), "");
  EXPECT_NE(r.summary_to_json(), "");  // still a valid summary document
}

TEST(FleetSimulator, ByteIdenticalAcrossThreadCounts) {
  const FleetSpec spec = small_fleet(24, 5);
  placement::LutCache c1, c8;
  const FleetSimulator s1{fleet_options(1, 4, &c1)};
  const FleetSimulator s8{fleet_options(8, 4, &c8)};
  const FleetResult r1 = s1.run(spec);
  const FleetResult r8 = s8.run(spec);
  EXPECT_EQ(r1.to_jsonl(), r8.to_jsonl());
  EXPECT_EQ(r1.summary_to_json(), r8.summary_to_json());
  EXPECT_EQ(r1.shard_count, r8.shard_count);
}

TEST(FleetSimulator, DevicesShareLutBuilds) {
  const FleetSpec spec = small_fleet(24, 4);  // one model -> one LUT key
  placement::LutCache cache;
  const FleetSimulator sim{fleet_options(2, 6, &cache)};
  const FleetResult r = sim.run(spec);
  EXPECT_EQ(r.lut_builds, 1u);
  EXPECT_EQ(r.lut_shared, 23u);
}

TEST(FleetSimulator, SummaryIgnoresLutCacheWarmth) {
  // lut_builds/lut_shared are a function of the spec, not of what the cache
  // already holds: a cache pre-warmed by an earlier run must not turn the
  // summary's 1/23 into 0/24.
  const FleetSpec spec = small_fleet(24, 4);
  placement::LutCache cold, warm;
  (void)FleetSimulator{fleet_options(1, 6, &warm)}.run(spec);
  const FleetResult a = FleetSimulator{fleet_options(1, 6, &cold)}.run(spec);
  const FleetResult b = FleetSimulator{fleet_options(8, 6, &warm)}.run(spec);
  EXPECT_EQ(a.summary_to_json(), b.summary_to_json());
  EXPECT_EQ(b.lut_builds, 1u);
  EXPECT_EQ(b.lut_shared, 23u);

  FleetOptions no_memo = fleet_options(1, 6, &warm);
  no_memo.memoize_devices = false;
  EXPECT_EQ(FleetSimulator{no_memo}.run(spec).summary_to_json(), a.summary_to_json());
}

TEST(FleetSimulator, ShardFilesMatchInMemoryJsonl) {
  const FleetSpec spec = small_fleet(10, 4);
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = tmp != nullptr ? tmp : "/tmp";
  placement::LutCache cache;
  FleetOptions opts;
  opts.threads = 1;
  opts.shard_size = 4;
  opts.lut_cache = &cache;
  opts.shard_dir = dir;
  const FleetResult r = FleetSimulator{opts}.run(spec);
  EXPECT_EQ(r.shard_count, 3u);
  std::string concatenated;
  for (std::size_t s = 0; s < r.shard_count; ++s) {
    char name[48];
    std::snprintf(name, sizeof name, "shard-%05zu.jsonl", s);
    std::ifstream in(dir + "/" + name);
    ASSERT_TRUE(in.good()) << name;
    std::ostringstream ss;
    ss << in.rdbuf();
    concatenated += ss.str();
    std::remove((dir + "/" + name).c_str());
  }
  EXPECT_EQ(concatenated, r.to_jsonl());
}

// --- SLO-aware frontier policy (docs/PARETO.md) ------------------------------

/// small_fleet with a fleet-wide latency SLO at 60 % of the slice length —
/// comfortably inside the LUT's feasible region at this resolution, so the
/// frontier tiers resolve on every device.
FleetSpec slo_fleet(int devices = 24, int slices = 6) {
  FleetSpec spec = small_fleet(devices, slices);
  spec.name = "slo-fleet";
  const sys::Processor probe{Device::device_config(spec, nullptr), spec.models[0]};
  spec.latency_slo = Time::ps(probe.slice_length().as_ps() * 3 / 5);
  return spec;
}

TEST(SelectTier, ExactThresholdsMirrorThePolicy) {
  const AdaptiveThresholds thr{.low_soc = 0.3, .high_soc = 0.5};
  // kSaver rides the mode hysteresis, whatever the SoC says.
  EXPECT_EQ(select_tier(DeviceMode::kLowPower, 0.9, thr), FrontierTier::kSaver);
  EXPECT_EQ(select_tier(DeviceMode::kLowPower, 0.1, thr), FrontierTier::kSaver);
  // Exactly at the high threshold buys performance (>=, like update()).
  EXPECT_EQ(select_tier(DeviceMode::kDynamic, 0.50, thr), FrontierTier::kPerformance);
  EXPECT_EQ(select_tier(DeviceMode::kDynamic, 0.499999, thr), FrontierTier::kBalanced);
  EXPECT_EQ(select_tier(DeviceMode::kDynamic, 1.0, thr), FrontierTier::kPerformance);
  EXPECT_EQ(select_tier(DeviceMode::kDynamic, 0.31, thr), FrontierTier::kBalanced);
}

TEST(FleetSpecSlo, DigestGuardAndValidation) {
  const FleetSpec plain = small_fleet();
  FleetSpec slo = small_fleet();
  const std::uint64_t before = slo.content_digest();
  EXPECT_EQ(before, plain.content_digest());

  slo.latency_slo = Time::ms(5.0);
  EXPECT_NE(slo.content_digest(), before);
  slo.latency_slo = Time::zero();
  // The SLO block is fully guarded: unsetting restores the pre-SLO digest,
  // so old snapshots keep restoring onto SLO-capable builds.
  EXPECT_EQ(slo.content_digest(), before);
  slo.slo_overrides.push_back({.id = 0, .latency_slo = Time::ms(2.0)});
  EXPECT_NE(slo.content_digest(), before);

  FleetSpec bad = small_fleet();
  bad.latency_slo = Time::ps(-1);
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.latency_slo = Time::zero();
  bad.slo_overrides = {{.id = 99, .latency_slo = Time::ms(1.0)}};  // id out of range
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  FleetSpec wrong_arch = small_fleet();
  wrong_arch.adapt = false;
  wrong_arch.config.arch = sys::ArchConfig::baseline();
  wrong_arch.latency_slo = Time::ms(5.0);  // SLO needs the HH-PIM LUT
  EXPECT_THROW(wrong_arch.validate(), std::invalid_argument);
}

TEST(FleetSpecSlo, ExpandAddsNoRngDrawsAndOverridesWin) {
  const FleetSpec plain = small_fleet(16);
  FleetSpec slo = small_fleet(16);
  slo.latency_slo = Time::ms(4.0);
  slo.slo_overrides.push_back({.id = 3, .latency_slo = Time::zero()});
  slo.slo_overrides.push_back({.id = 5, .latency_slo = Time::ms(1.0)});

  const auto a = plain.expand();
  const auto b = slo.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The SLO assignment must not disturb the seeded jitter draws: every
    // other per-device field is byte-for-byte the no-SLO expansion.
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].model_index, b[i].model_index);
    EXPECT_EQ(a[i].scenario, b[i].scenario);
    EXPECT_EQ(a[i].phase, b[i].phase);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].join_slice, b[i].join_slice);
    EXPECT_EQ(a[i].leave_slice, b[i].leave_slice);
    EXPECT_EQ(a[i].latency_slo_ps, 0);
    const std::int64_t expect = i == 3   ? 0
                                : i == 5 ? Time::ms(1.0).as_ps()
                                         : Time::ms(4.0).as_ps();
    EXPECT_EQ(b[i].latency_slo_ps, expect) << i;
  }
}

TEST(Device, SloTierFollowsSocAtExactThresholds) {
  // Two identical devices either side of the high-SoC threshold pin
  // different frontier points from slice one: performance (min latency) at
  // exactly 0.50, balanced (the SLO anchor) just below.
  FleetSpec at = slo_fleet(1, 4);
  at.thresholds = {.low_soc = 0.3, .high_soc = 0.5};
  at.battery.initial_soc = 0.5;
  FleetSpec below = at;
  below.battery.initial_soc = 0.499;

  placement::LutCache cache;
  auto at_specs = at.expand();
  auto below_specs = below.expand();
  at_specs[0].scenario = workload::Scenario::kLowConstant;
  below_specs[0].scenario = workload::Scenario::kLowConstant;
  Device d_at{at, at_specs[0], at.models[0], &cache};
  Device d_below{below, below_specs[0], below.models[0], &cache};
  const DeviceResult r_at = d_at.run(nullptr);
  const DeviceResult r_below = d_below.run(nullptr);

  EXPECT_EQ(r_at.latency_slo_ps, at.latency_slo.as_ps());
  // Different tiers -> different pinned allocations -> observably different
  // runs (busy time and drained energy both move; the direction mixes the
  // steady-state gap with the first slice's one-off weight movement, so only
  // the difference itself is pinned — the threshold semantics are unit-tested
  // in SelectTier above).
  EXPECT_NE(r_at.busy_time_ps, r_below.busy_time_ps);
  EXPECT_NE(r_at.energy_pj, r_below.energy_pj);
}

TEST(Device, SloTierSwitchesAsTheBatteryDrains) {
  // Start just above the high threshold: the device opens in kPerformance
  // and any realistic per-slice drain (a few mJ against the 250 mJ default
  // battery) crosses 0.5 within a few slices, dropping it to kBalanced — at
  // least one tier switch, counted separately from mode switches, with no
  // exhaustion risk.
  FleetSpec spec = slo_fleet(1, 8);
  spec.battery.initial_soc = 0.55;
  auto specs = spec.expand();
  specs[0].scenario = workload::Scenario::kHighConstant;
  placement::LutCache cache;
  Device dev{spec, specs[0], spec.models[0], &cache};
  const DeviceResult r = dev.run(nullptr);
  EXPECT_GE(r.tier_switches, 1u);
  EXPECT_GT(r.latency_slo_ps, 0);
}

TEST(FleetSimulator, SloByteIdenticalAcrossThreadsAndMemo) {
  // Mixed population: fleet-wide SLO with a few opted-out devices, so memo
  // keys for SLO and no-SLO lanes coexist in one cache.
  FleetSpec spec = slo_fleet(24, 6);
  spec.slo_overrides.push_back({.id = 2, .latency_slo = Time::zero()});
  spec.slo_overrides.push_back({.id = 7, .latency_slo = Time::zero()});

  placement::LutCache c1, c8, cm1, cm8;
  OutcomeCache m1, m8;
  const FleetResult r1 =
      FleetSimulator{fleet_options(1, 4, &c1)}.run(spec);
  const FleetResult r8 =
      FleetSimulator{fleet_options(8, 4, &c8)}.run(spec);
  FleetOptions memo1;
  memo1.threads = 1;
  memo1.shard_size = 4;
  memo1.lut_cache = &cm1;
  memo1.memoize_devices = true;
  memo1.outcome_cache = &m1;
  FleetOptions memo8 = memo1;
  memo8.threads = 8;
  memo8.lut_cache = &cm8;
  memo8.outcome_cache = &m8;
  const FleetResult rm1 = FleetSimulator{memo1}.run(spec);
  const FleetResult rm8 = FleetSimulator{memo8}.run(spec);

  EXPECT_EQ(r1.to_jsonl(), r8.to_jsonl());
  EXPECT_EQ(r1.to_jsonl(), rm1.to_jsonl());
  EXPECT_EQ(r1.to_jsonl(), rm8.to_jsonl());
  EXPECT_EQ(r1.summary_to_json(), r8.summary_to_json());
  EXPECT_EQ(r1.summary_to_json(), rm1.summary_to_json());
  EXPECT_EQ(r1.summary_to_json(), rm8.summary_to_json());
}

TEST(FleetSimulator, SloFieldsAppearOnlyWhenSet) {
  placement::LutCache plain_cache, slo_cache;
  const FleetResult plain = FleetSimulator{fleet_options(1, 256, &plain_cache)}
                                .run(small_fleet(6, 4));
  const FleetResult slo =
      FleetSimulator{fleet_options(1, 256, &slo_cache)}.run(slo_fleet(6, 4));
  // No-SLO JSONL carries no SLO fields at all — the schema (and the bytes)
  // are exactly the pre-SLO ones.
  EXPECT_EQ(plain.to_jsonl().find("latency_slo_ps"), std::string::npos);
  EXPECT_EQ(plain.to_jsonl().find("tier_switches"), std::string::npos);
  EXPECT_NE(slo.to_jsonl().find("latency_slo_ps"), std::string::npos);
  EXPECT_NE(slo.to_jsonl().find("tier_switches"), std::string::npos);
}

TEST(FleetSimulator, SloSnapshotRoundTripsByteIdentically) {
  const FleetSpec spec = slo_fleet(12, 8);
  placement::LutCache whole_cache, seg_cache;
  const FleetResult whole =
      FleetSimulator{fleet_options(1, 5, &whole_cache)}
          .run(spec);
  const FleetSimulator seg{fleet_options(1, 5, &seg_cache)};
  FleetSnapshot snap = seg.run_to(spec, 3);
  // Round-trip through the binary format: the kTagSlo lane must survive.
  snap = FleetSnapshot::from_bytes(snap.to_bytes());
  const FleetResult resumed = seg.resume(spec, snap);
  EXPECT_EQ(whole.to_jsonl(), resumed.to_jsonl());
  EXPECT_EQ(whole.summary_to_json(), resumed.summary_to_json());
}

TEST(OutcomeCacheSlo, DifferentSlosNeverShareAMemoBucket) {
  // Two devices in identical processor states but with different SLOs (or
  // different tiers at the same SLO) must never replay each other's slices:
  // the first slice's `pre` digest predates the tier override install, so
  // only the key separates them.
  OutcomeCache cache;
  SliceOutcomeKey base{};
  base.reuse_key = 7;
  base.state = 42;
  base.slo_ps = 1'000'000;
  base.n_tasks = 3;
  base.mode = 0;
  base.tier = 0;
  std::vector<std::pair<SliceOutcomeKey, SliceOutcome>> batch;
  batch.push_back({base, SliceOutcome{100.0, 5, 2, 99, 0, false}});
  cache.insert(batch);
  ASSERT_NE(cache.find(base), nullptr);

  SliceOutcomeKey other_slo = base;
  other_slo.slo_ps = 2'000'000;
  SliceOutcomeKey no_slo = base;
  no_slo.slo_ps = 0;
  SliceOutcomeKey other_tier = base;
  other_tier.tier = static_cast<std::uint8_t>(FrontierTier::kPerformance);
  EXPECT_NE(base, other_slo);
  EXPECT_NE(base, no_slo);
  EXPECT_NE(base, other_tier);
  EXPECT_EQ(cache.find(other_slo), nullptr);
  EXPECT_EQ(cache.find(no_slo), nullptr);
  EXPECT_EQ(cache.find(other_tier), nullptr);
}

TEST(FleetSimulator, AggregateCountsAreConsistent) {
  const FleetSpec spec = small_fleet(16, 5);
  placement::LutCache cache;
  const FleetSimulator sim{fleet_options(1, 5, &cache)};
  const FleetResult r = sim.run(spec);
  ASSERT_EQ(r.devices.size(), 16u);
  std::uint64_t tasks = 0, executed = 0;
  for (const DeviceResult& d : r.devices) {
    tasks += d.tasks;
    executed += static_cast<std::uint64_t>(d.slices_executed);
  }
  EXPECT_EQ(r.aggregate.devices, 16u);
  EXPECT_EQ(r.aggregate.tasks, tasks);
  EXPECT_EQ(r.aggregate.executed_slices, executed);
  // Every executed slice contributed one sample to each slice histogram.
  EXPECT_EQ(r.aggregate.busy_frac_hist().total(), executed);
  EXPECT_EQ(r.aggregate.slice_energy_hist().total(), executed);
}

}  // namespace
}  // namespace hhpim::fleet
