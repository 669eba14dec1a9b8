// Determinism regression suite.
//
// Every future performance refactor (sharding, batching, faster hot paths)
// must preserve one property: the same scenario with the same seed produces
// bit-identical results. These tests pin that down at two levels — the
// workload generator and a full Processor::run_scenario pass.
#include <gtest/gtest.h>

#include <vector>

#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "workload/scenario.hpp"

namespace hhpim {
namespace {

using workload::Scenario;

TEST(WorkloadDeterminism, SameSeedSameLoads) {
  workload::ScenarioConfig cfg;
  cfg.seed = 0xfeedbeef;
  const auto a = workload::generate(Scenario::kRandom, cfg);
  const auto b = workload::generate(Scenario::kRandom, cfg);
  EXPECT_EQ(a, b);

  cfg.seed = 0xfeedbeef + 1;
  const auto c = workload::generate(Scenario::kRandom, cfg);
  EXPECT_NE(a, c);
}

sys::RunStats run_system_scenario(std::uint64_t seed) {
  sys::SystemConfig cfg;
  cfg.arch = sys::ArchConfig::hhpim();
  cfg.lut_t_entries = 32;
  cfg.lut_k_blocks = 32;
  workload::ScenarioConfig wc;
  wc.seed = seed;
  wc.slices = 10;
  const auto loads = workload::generate(Scenario::kRandom, wc);
  sys::Processor p{cfg, nn::zoo::efficientnet_b0()};
  return p.run_scenario(loads);
}

TEST(SystemDeterminism, RunScenarioIsBitIdentical) {
  const auto a = run_system_scenario(0x5eed2025);
  const auto b = run_system_scenario(0x5eed2025);

  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.deadline_violations, b.deadline_violations);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.total_energy.as_pj(), b.total_energy.as_pj());

  ASSERT_EQ(a.slices.size(), b.slices.size());
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    const auto& sa = a.slices[i];
    const auto& sb = b.slices[i];
    EXPECT_EQ(sa.tasks_executed, sb.tasks_executed) << "slice " << i;
    EXPECT_EQ(sa.alloc, sb.alloc) << "slice " << i;
    EXPECT_EQ(sa.movement_time, sb.movement_time) << "slice " << i;
    EXPECT_EQ(sa.busy_time, sb.busy_time) << "slice " << i;
    EXPECT_EQ(sa.energy.as_pj(), sb.energy.as_pj()) << "slice " << i;
    EXPECT_EQ(sa.deadline_violated, sb.deadline_violated) << "slice " << i;
  }
}

}  // namespace
}  // namespace hhpim
