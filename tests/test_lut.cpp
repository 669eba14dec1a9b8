#include "placement/lut.hpp"

#include <gtest/gtest.h>

#include "nn/model.hpp"
#include "placement/brute_force.hpp"

namespace hhpim::placement {
namespace {

using energy::PowerSpec;

class LutTest : public ::testing::Test {
 protected:
  static CostModel paper_model(double uses = 29.0) {
    return CostModel::build(PowerSpec::paper_45nm(),
                            ClusterShape{4, 64 * 1024, 64 * 1024},
                            ClusterShape{4, 64 * 1024, 64 * 1024}, uses);
  }

  static AllocationLut small_lut(const CostModel& m, std::uint64_t weights,
                                 Time slice, int entries = 32, int blocks = 32) {
    LutParams p;
    p.slice = slice;
    p.total_weights = weights;
    p.t_entries = entries;
    p.k_blocks = blocks;
    return AllocationLut::build(m, p);
  }
};

TEST_F(LutTest, EntriesCoverTheSliceUniformly) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 10000, Time::ms(10.0));
  ASSERT_EQ(lut.entries().size(), 32u);
  EXPECT_EQ(lut.entries().front().t_constraint, Time::ms(10.0) / 32);
  EXPECT_EQ(lut.entries().back().t_constraint, Time::ms(10.0));
}

TEST_F(LutTest, FeasibleEntriesSumToTotalWeights) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 10000, Time::ms(10.0));
  int feasible = 0;
  for (const auto& e : lut.entries()) {
    if (!e.feasible) continue;
    ++feasible;
    EXPECT_EQ(e.alloc.total(), 10000u);
    EXPECT_TRUE(fits(m, e.alloc));
  }
  EXPECT_GT(feasible, 10);
}

TEST_F(LutTest, FeasibleAllocationsMeetTheirConstraint) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 10000, Time::ms(10.0));
  for (const auto& e : lut.entries()) {
    if (!e.feasible) continue;
    EXPECT_LE(task_time(m, e.alloc).as_ns(), e.t_constraint.as_ns() * 1.0001)
        << "tc=" << e.t_constraint.to_string();
  }
}

TEST_F(LutTest, FeasibilityIsMonotoneInTc) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 10000, Time::ms(10.0));
  bool seen_feasible = false;
  for (const auto& e : lut.entries()) {
    if (e.feasible) seen_feasible = true;
    if (seen_feasible) {
      EXPECT_TRUE(e.feasible);
    }
  }
  EXPECT_TRUE(seen_feasible);
}

TEST_F(LutTest, EnergyDecreasesAsConstraintRelaxes) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 50000, Time::ms(40.0));
  const auto& entries = lut.entries();
  const LutEntry* first = nullptr;
  const LutEntry* last = nullptr;
  for (const auto& e : entries) {
    if (e.feasible && first == nullptr) first = &e;
    if (e.feasible) last = &e;
  }
  ASSERT_NE(first, nullptr);
  ASSERT_NE(last, nullptr);
  // The relaxed endpoint is strictly cheaper than the peak (the Fig. 6
  // downward slope), counting retention over each entry's own window.
  EXPECT_LT(last->predicted_task_energy.as_pj(), first->predicted_task_energy.as_pj());
}

TEST_F(LutTest, LookupFloorsAndClamps) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 10000, Time::ms(3.2));
  const Time step = Time::ms(0.1);
  const auto& e = lut.lookup(step * 5 + Time::us(1.0));
  EXPECT_EQ(e.t_constraint, step * 5);
  // Exactly on a grid point returns that point.
  EXPECT_EQ(lut.lookup(step * 7).t_constraint, step * 7);
  // Clamp below and above.
  EXPECT_EQ(lut.lookup(Time::ps(1)).t_constraint, step);
  EXPECT_EQ(lut.lookup(Time::ms(99)).t_constraint, Time::ms(3.2));
}

TEST_F(LutTest, PeakBoundaryExists) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 50000, Time::ms(40.0));
  const Time peak = lut.peak_t_constraint();
  EXPECT_GT(peak, Time::zero());
  EXPECT_LT(peak, Time::ms(40.0));
  // Left of the boundary: infeasible (the paper's grey region).
  EXPECT_FALSE(lut.lookup(peak - Time::ms(40.0) / 32).feasible);
}

TEST_F(LutTest, MatchesBruteForceOnCoarseGrid) {
  // Make blocks == brute-force granularity so both optimize the same
  // discretized problem.
  const CostModel m = paper_model(10.0);
  const std::uint64_t K = 1200;
  const Time slice = Time::us(400.0);
  LutParams p;
  p.slice = slice;
  p.total_weights = K;
  p.t_entries = 16;
  p.k_blocks = 12;  // blocks of 100 weights
  const auto lut = AllocationLut::build(m, p);

  for (const auto& e : lut.entries()) {
    const auto bf = brute_force_placement(m, K, e.t_constraint, 100);
    EXPECT_EQ(e.feasible, bf.feasible) << e.t_constraint.to_string();
    if (e.feasible && bf.feasible) {
      // DP quantizes time upward, so it may be slightly conservative, but
      // never better than brute force and within one block of it.
      const double dp = task_energy(m, e.alloc, e.t_constraint).as_pj();
      const double ref = bf.energy.as_pj();
      EXPECT_GE(dp, ref - 1.0) << e.t_constraint.to_string();
      const double block_margin =
          m.at(Space::kHpMram).dyn_per_weight.as_pj() * 100 * 2;
      EXPECT_LE(dp, ref + block_margin) << e.t_constraint.to_string();
    }
  }
}

TEST_F(LutTest, WhollyInfeasibleTableClampsGracefully) {
  // A slice so short that even the peak placement misses every entry: the
  // paper's grey region covers the whole table. lookup() still floors,
  // lookup_or_peak() reports the miss, peak_t_constraint() saturates.
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 500000, Time::us(1.0));
  for (const auto& e : lut.entries()) {
    EXPECT_FALSE(e.feasible);
    EXPECT_EQ(e.alloc.total(), 0u);
  }
  EXPECT_EQ(lut.lookup_or_peak(Time::us(0.5)), nullptr);
  EXPECT_EQ(lut.peak_t_constraint(), Time::max());
  EXPECT_FALSE(lut.lookup(Time::us(0.9)).feasible);
}

TEST_F(LutTest, ZeroCapacityEverywhereIsInfeasible) {
  // Shapes with no storage at all: every entry infeasible, no crash.
  const CostModel m = CostModel::build(PowerSpec::paper_45nm(), ClusterShape{4, 0, 0},
                                       ClusterShape{4, 0, 0}, 10.0);
  const auto lut = small_lut(m, 1000, Time::ms(1.0), 8, 8);
  for (const auto& e : lut.entries()) EXPECT_FALSE(e.feasible);
  EXPECT_EQ(lut.lookup_or_peak(Time::ms(1.0)), nullptr);
}

TEST_F(LutTest, SingleLayerModelBuildsAndAllocatesExactly) {
  // A one-linear-layer model: weights far below one default block, so the
  // LUT must cope with k_blocks greatly exceeding the weight count.
  nn::Model tiny{"tiny", 1.0};
  tiny.input({16, 1, 1});
  tiny.linear("fc", 8);  // 128 weights
  ASSERT_EQ(tiny.structural_params(), 128u);
  const CostModel m = paper_model(tiny.uses_per_weight());
  const auto lut = small_lut(m, tiny.effective_params(), Time::ms(5.0), 16, 64);
  bool any_feasible = false;
  for (const auto& e : lut.entries()) {
    if (!e.feasible) continue;
    any_feasible = true;
    EXPECT_EQ(e.alloc.total(), 128u);
    EXPECT_TRUE(fits(m, e.alloc));
  }
  EXPECT_TRUE(any_feasible);
}

TEST_F(LutTest, BadParamsThrow) {
  const CostModel m = paper_model();
  LutParams p;
  p.slice = Time::zero();
  p.total_weights = 10;
  EXPECT_THROW(AllocationLut::build(m, p), std::invalid_argument);
  p.slice = Time::ms(1.0);
  p.total_weights = 0;
  EXPECT_THROW(AllocationLut::build(m, p), std::invalid_argument);
}

TEST(PickResolution, RespectsBudget) {
  // 1 % of a 100 ms slice at 1000 cells/us -> 1000 us budget -> 1e6 cells.
  const auto r = pick_resolution(Time::ms(100.0), 0.01, 1000.0);
  EXPECT_GE(r.t_entries, 8);
  EXPECT_LE(r.estimated_us, 1000.0);
  // Double the budget, never a smaller resolution.
  const auto r2 = pick_resolution(Time::ms(200.0), 0.01, 1000.0);
  EXPECT_GE(r2.t_entries, r.t_entries);
}

TEST(PickResolution, CapsAtMaxResolution) {
  const auto r = pick_resolution(Time::s(100.0), 0.5, 1e9, 256);
  EXPECT_LE(r.t_entries, 256);
}

}  // namespace
}  // namespace hhpim::placement
