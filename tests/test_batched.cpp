// The steady-state fast path's load-bearing property: batched slice
// execution (pim::Cluster::compute_batch + sys::Processor::run_tasks_batched),
// the per-processor decision memo and processor reuse (Processor::reset +
// the runner/fleet pools) all produce output byte-identical to the scalar,
// unmemoized, freshly-constructed path — across architectures, override
// placements, zero-task slices and thread counts.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "energy/power_spec.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "fleet/simulator.hpp"
#include "hhpim/processor.hpp"
#include "hhpim/scheduler.hpp"
#include "nn/zoo.hpp"
#include "pim/cluster.hpp"
#include "placement/lut_cache.hpp"
#include "workload/scenario.hpp"

namespace hhpim {
namespace {

using sys::ArchConfig;
using sys::Processor;
using sys::RunStats;
using sys::SliceStats;
using sys::SystemConfig;

SystemConfig small_config(ArchConfig arch, bool batched, bool memo) {
  SystemConfig c;
  c.arch = arch;
  c.lut_t_entries = 16;
  c.lut_k_blocks = 16;
  c.batched_execution = batched;
  c.memoize_decisions = memo;
  return c;
}

std::vector<int> mixed_loads() {
  // Exercises n = 0, 1, 2 (scalar inside the batched path), the batched
  // tail (>= 3), and the peak load.
  return {10, 4, 0, 1, 7, 2, 10, 0, 3, 5, 8};
}

/// Strict equality — times are integer ps, energies compared bit-for-bit
/// via their double pj value, as the JSON writers would render them.
void expect_identical(const RunStats& a, const RunStats& b) {
  ASSERT_EQ(a.slices.size(), b.slices.size());
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    const SliceStats& x = a.slices[i];
    const SliceStats& y = b.slices[i];
    EXPECT_EQ(x.slice, y.slice) << "slice " << i;
    EXPECT_EQ(x.tasks_executed, y.tasks_executed) << "slice " << i;
    EXPECT_EQ(x.alloc, y.alloc) << "slice " << i;
    EXPECT_EQ(x.movement_time.as_ps(), y.movement_time.as_ps()) << "slice " << i;
    EXPECT_EQ(x.busy_time.as_ps(), y.busy_time.as_ps()) << "slice " << i;
    EXPECT_EQ(x.energy.as_pj(), y.energy.as_pj()) << "slice " << i;
    EXPECT_EQ(x.deadline_violated, y.deadline_violated) << "slice " << i;
  }
  EXPECT_EQ(a.total_energy.as_pj(), b.total_energy.as_pj());
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.deadline_violations, b.deadline_violations);
  EXPECT_EQ(a.total_time.as_ps(), b.total_time.as_ps());
}

RunStats run_arch(ArchConfig arch, bool batched, bool memo,
                  const std::vector<int>& loads) {
  Processor proc{small_config(arch, batched, memo), nn::zoo::efficientnet_b0()};
  return proc.run_scenario(loads);
}

TEST(BatchedExecution, MatchesScalarAcrossArchitectures) {
  for (const ArchConfig& arch : ArchConfig::paper_table1()) {
    SCOPED_TRACE(arch.name);
    const RunStats scalar = run_arch(arch, false, false, mixed_loads());
    const RunStats batched = run_arch(arch, true, false, mixed_loads());
    expect_identical(scalar, batched);
  }
}

TEST(BatchedExecution, DecisionMemoMatchesUnmemoized) {
  for (const ArchConfig& arch : {ArchConfig::hhpim(), ArchConfig::baseline()}) {
    SCOPED_TRACE(arch.name);
    const RunStats plain = run_arch(arch, false, false, mixed_loads());
    const RunStats memoized = run_arch(arch, false, true, mixed_loads());
    expect_identical(plain, memoized);
  }
}

TEST(BatchedExecution, FullFastPathMatchesScalar) {
  const RunStats scalar = run_arch(ArchConfig::hhpim(), false, false, mixed_loads());
  const RunStats fast = run_arch(ArchConfig::hhpim(), true, true, mixed_loads());
  expect_identical(scalar, fast);
}

TEST(BatchedExecution, MatchesScalarUnderPlacementOverride) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  const std::vector<int> loads = mixed_loads();
  RunStats results[2];
  for (int batched = 0; batched < 2; ++batched) {
    Processor proc{small_config(ArchConfig::hhpim(), batched != 0, false), model};
    // Pin the low-power MRAM split (two active spaces, both MRAM — the
    // fleet's adaptation placement), run, then release the override
    // mid-scenario.
    RunStats run;
    const placement::Allocation low_power =
        sys::balanced_mram_split(proc.cost_model(), proc.total_weights());
    proc.set_placement_override(low_power);
    int buffered = 0;
    for (std::size_t k = 0; k <= loads.size(); ++k) {
      if (k == loads.size() / 2) proc.set_placement_override(std::nullopt);
      const int arriving = k < loads.size() ? loads[k] : 0;
      SliceStats s = proc.run_slice(buffered);
      run.tasks += static_cast<std::uint64_t>(s.tasks_executed);
      run.deadline_violations += s.deadline_violated ? 1 : 0;
      run.slices.push_back(std::move(s));
      buffered = arriving;
    }
    run.total_energy = proc.ledger().total();
    results[batched] = std::move(run);
  }
  expect_identical(results[0], results[1]);
}

TEST(BatchedExecution, ZeroAndTinyTaskSlices) {
  // All-zero and sub-batch-threshold loads never enter the replay kernel;
  // the two paths must still agree exactly (and trivially do — pin it).
  const std::vector<int> loads = {0, 0, 1, 0, 2, 0};
  for (const ArchConfig& arch : {ArchConfig::hhpim(), ArchConfig::hybrid()}) {
    SCOPED_TRACE(arch.name);
    expect_identical(run_arch(arch, false, false, loads),
                     run_arch(arch, true, true, loads));
  }
}

TEST(ClusterComputeBatch, MatchesBarrierSynchronizedScalarLoop) {
  using energy::MemoryKind;
  for (const MemoryKind mem : {MemoryKind::kMram, MemoryKind::kSram}) {
    SCOPED_TRACE(mem == MemoryKind::kMram ? "mram" : "sram");
    const energy::PowerSpec spec = energy::PowerSpec::paper_45nm();
    pim::ClusterConfig cc;
    cc.module_count = 4;
    energy::EnergyLedger scalar_ledger, batched_ledger;
    pim::Cluster scalar_cluster{cc, spec, &scalar_ledger};
    pim::Cluster batched_cluster{cc, spec, &batched_ledger};
    // Odd MAC count: modules get unequal shares, so the batch must
    // reproduce per-module gaps exactly.
    const std::uint64_t macs = 4 * 1000 + 3;
    constexpr int kTasks = 9;

    Time scalar_end = Time::ps(100);
    for (int k = 0; k < kTasks; ++k) {
      scalar_end = scalar_cluster.compute(scalar_end, mem, macs);
    }
    const Time batched_end =
        batched_cluster.compute_batch(Time::ps(100), mem, macs, kTasks);

    EXPECT_EQ(scalar_end.as_ps(), batched_end.as_ps());
    scalar_cluster.settle(scalar_end);
    batched_cluster.settle(batched_end);
    EXPECT_EQ(scalar_ledger.total().as_pj(), batched_ledger.total().as_pj());
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(scalar_cluster.module(i).busy_until().as_ps(),
                batched_cluster.module(i).busy_until().as_ps());
      EXPECT_EQ(scalar_cluster.module(i).total_macs(),
                batched_cluster.module(i).total_macs());
    }
  }
}

TEST(ProcessorReset, ResetEqualsFreshConstruction) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  placement::LutCache cache;
  SystemConfig config = small_config(ArchConfig::hhpim(), true, true);
  config.lut_cache = &cache;

  Processor reused{config, model};
  (void)reused.run_scenario({3, 9, 0, 5});  // arbitrary first life
  reused.set_placement_override(
      sys::balanced_mram_split(reused.cost_model(), reused.total_weights()));
  (void)reused.run_slice(2);  // leave override + partial state behind
  reused.reset();

  Processor fresh{config, model};
  expect_identical(fresh.run_scenario(mixed_loads()),
                   reused.run_scenario(mixed_loads()));
  EXPECT_FALSE(reused.placement_override_active());
}

TEST(ProcessorReset, RepeatedResetRunsAreStable) {
  const nn::Model model = nn::zoo::mobilenet_v2();
  SystemConfig config = small_config(ArchConfig::hhpim(), true, true);
  Processor proc{config, model};
  const RunStats first = proc.run_scenario({5, 2, 8});
  for (int i = 0; i < 3; ++i) {
    proc.reset();
    expect_identical(first, proc.run_scenario({5, 2, 8}));
  }
}

TEST(RunnerGrid, ByteIdenticalScalarVsBatchedAtAnyThreadCount) {
  exp::ExperimentSpec spec;
  spec.name = "batched-grid";
  spec.archs = {ArchConfig::hhpim(), ArchConfig::hetero()};
  spec.models = {nn::zoo::efficientnet_b0(), nn::zoo::resnet18()};
  workload::ScenarioConfig wc;
  wc.slices = 5;
  spec.scenarios = {exp::ScenarioSpec::of(workload::Scenario::kPulsing, wc),
                    exp::ScenarioSpec::of(workload::Scenario::kRandom, wc)};
  SystemConfig scalar_cfg;
  scalar_cfg.lut_t_entries = 16;
  scalar_cfg.lut_k_blocks = 16;
  scalar_cfg.batched_execution = false;
  scalar_cfg.memoize_decisions = false;
  SystemConfig fast_cfg = scalar_cfg;
  fast_cfg.batched_execution = true;
  fast_cfg.memoize_decisions = true;

  exp::ExperimentSpec scalar_spec = spec;
  scalar_spec.variants.push_back({"", scalar_cfg});
  exp::ExperimentSpec fast_spec = spec;
  fast_spec.variants.push_back({"", fast_cfg});

  placement::LutCache c1, c2, c3;
  exp::RunnerOptions scalar_opts;  // reuse off: the fully scalar reference
  scalar_opts.threads = 1;
  scalar_opts.lut_cache = &c1;
  scalar_opts.reuse_processors = false;
  exp::RunnerOptions fast_t1;
  fast_t1.threads = 1;
  fast_t1.lut_cache = &c2;
  exp::RunnerOptions fast_t8;
  fast_t8.threads = 8;
  fast_t8.lut_cache = &c3;

  const exp::ResultSet scalar = exp::Runner{scalar_opts}.run(scalar_spec);
  const exp::ResultSet fast1 = exp::Runner{fast_t1}.run(fast_spec);
  const exp::ResultSet fast8 = exp::Runner{fast_t8}.run(fast_spec);

  // The variant label is the only allowed difference — none exists here.
  EXPECT_EQ(scalar.to_json(), fast1.to_json());
  EXPECT_EQ(scalar.to_csv(), fast1.to_csv());
  EXPECT_EQ(fast1.to_json(), fast8.to_json());
  EXPECT_EQ(fast1.to_csv(), fast8.to_csv());
  EXPECT_FALSE(scalar.to_json().empty());
}

TEST(FleetFastPath, ByteIdenticalScalarVsBatchedAndAcrossThreads) {
  fleet::FleetSpec spec;
  spec.name = "batched-fleet";
  spec.devices = 24;
  spec.slices = 6;
  spec.models = {nn::zoo::efficientnet_b0()};
  spec.config.lut_t_entries = 16;
  spec.config.lut_k_blocks = 16;

  fleet::FleetSpec scalar_spec = spec;
  scalar_spec.config.batched_execution = false;
  scalar_spec.config.memoize_decisions = false;

  placement::LutCache c_scalar, c1, c8;
  fleet::FleetOptions scalar_opts;  // scalar, unmemoized, no reuse
  scalar_opts.threads = 1;
  scalar_opts.shard_size = 4;
  scalar_opts.lut_cache = &c_scalar;
  scalar_opts.reuse_processors = false;
  fleet::FleetOptions fast1;
  fast1.threads = 1;
  fast1.shard_size = 4;
  fast1.lut_cache = &c1;
  fleet::FleetOptions fast8 = fast1;
  fast8.threads = 8;
  fast8.lut_cache = &c8;

  const fleet::FleetResult scalar = fleet::FleetSimulator{scalar_opts}.run(scalar_spec);
  const fleet::FleetResult r1 = fleet::FleetSimulator{fast1}.run(spec);
  const fleet::FleetResult r8 = fleet::FleetSimulator{fast8}.run(spec);

  EXPECT_EQ(scalar.to_jsonl(), r1.to_jsonl());
  EXPECT_EQ(scalar.summary_to_json(), r1.summary_to_json());
  EXPECT_EQ(r1.to_jsonl(), r8.to_jsonl());
  EXPECT_EQ(r1.summary_to_json(), r8.summary_to_json());
  EXPECT_NE(r1.to_jsonl(), "");
}

}  // namespace
}  // namespace hhpim
