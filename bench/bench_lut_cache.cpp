// Placement-LUT cache + DP-kernel perf baseline (google-benchmark).
//
// Produces BENCH_lut_cache.json — the repo's first committed perf-trajectory
// datapoint. Regenerate with:
//
//   ./build/bench/bench_lut_cache --benchmark_out=BENCH_lut_cache.json
//       --benchmark_out_format=json   (one command line)
//
// (CI runs the same with --benchmark_min_time=0.01 and uploads the JSON as
// an artifact per PR, so the trajectory accumulates.)
//
// The headline pair is BM_Grid24/cold vs BM_Grid24/warm at 1 and 8 threads:
// the acceptance criterion is warm >= 2x faster end-to-end on the 24-run
// grid (4 Table I architectures x 3 Table IV models x 2 scenarios), because
// the cold path rebuilds the HH-PIM placement LUT for every HH-PIM run while
// the warm path serves all six from three cached builds. Grid outputs are
// byte-identical either way (pinned by tests/test_lut_cache.cpp).
#include <benchmark/benchmark.h>

#include "energy/power_spec.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "hhpim/arch_config.hpp"
#include "nn/zoo.hpp"
#include "placement/knapsack.hpp"
#include "placement/lut.hpp"
#include "placement/lut_cache.hpp"
#include "workload/scenario.hpp"

using namespace hhpim;
using placement::AllocationLut;
using placement::ClusterDpTable;
using placement::ClusterItems;
using placement::CostModel;
using placement::DpItem;
using placement::LutCache;
using placement::LutCacheKey;
using placement::LutParams;

namespace {

constexpr int kLutResolution = 96;  // the bench default (bench_util.hpp)

CostModel paper_model() {
  return CostModel::build(energy::PowerSpec::paper_45nm(),
                          placement::ClusterShape{4, 64 * 1024, 64 * 1024},
                          placement::ClusterShape{4, 64 * 1024, 64 * 1024}, 29.0);
}

LutParams paper_lut_params() {
  LutParams p;
  p.slice = Time::ms(100.0);
  p.total_weights = 95'000;
  p.t_entries = kLutResolution;
  p.k_blocks = kLutResolution;
  return p;
}

// The acceptance grid: 4 archs x 3 models x 2 scenarios = 24 runs; the six
// HH-PIM runs share three distinct (model, arch) LUTs.
exp::ExperimentSpec grid24() {
  exp::ExperimentSpec spec;
  spec.name = "bench-lut-cache";
  const auto table1 = sys::ArchConfig::paper_table1();
  spec.archs.assign(table1.begin(), table1.end());
  spec.models = nn::zoo::paper_models();
  workload::ScenarioConfig wc;
  wc.slices = 6;
  spec.scenarios = {exp::ScenarioSpec::of(workload::Scenario::kPulsing, wc),
                    exp::ScenarioSpec::of(workload::Scenario::kRandom, wc)};
  sys::SystemConfig cfg;
  cfg.lut_t_entries = kLutResolution;
  cfg.lut_k_blocks = kLutResolution;
  spec.variants.push_back({"", cfg});
  return spec;
}

// Cold: LUT sharing off — every HH-PIM run pays its own LUT build, exactly
// the pre-cache behaviour of the experiment runner.
void BM_Grid24_Cold(benchmark::State& state) {
  const exp::ExperimentSpec spec = grid24();
  exp::RunnerOptions opts;
  opts.threads = static_cast<unsigned>(state.range(0));
  opts.share_luts = false;
  const exp::Runner runner{opts};
  for (auto _ : state) {
    const exp::ResultSet results = runner.run(spec);
    benchmark::DoNotOptimize(results.runs().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.run_count()));
}

// Warm: all runs share a pre-populated cache — the steady state of a long
// sweep, every LUT a hit.
void BM_Grid24_Warm(benchmark::State& state) {
  const exp::ExperimentSpec spec = grid24();
  LutCache cache;
  exp::RunnerOptions opts;
  opts.threads = static_cast<unsigned>(state.range(0));
  opts.lut_cache = &cache;
  const exp::Runner runner{opts};
  benchmark::DoNotOptimize(runner.run(spec).runs().size());  // populate
  for (auto _ : state) {
    const exp::ResultSet results = runner.run(spec);
    benchmark::DoNotOptimize(results.runs().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.run_count()));
  state.counters["lut_builds"] = static_cast<double>(cache.stats().misses);
  state.counters["lut_hits"] = static_cast<double>(cache.stats().hits);
}

// One cache miss: the full LUT build (paper-sized model at bench resolution)
// plus key/slot overhead. This is the unit the cache amortizes away.
void BM_LutCacheMiss(benchmark::State& state) {
  const CostModel model = paper_model();
  const LutParams params = paper_lut_params();
  const auto key = LutCacheKey::make(1, 2, model, params);
  for (auto _ : state) {
    LutCache cache;
    benchmark::DoNotOptimize(cache.get_or_build(key, model, params));
  }
}

// One cache hit: lock + lookup + shared_future get. Should be ~microseconds,
// i.e. orders of magnitude under the miss above.
void BM_LutCacheHit(benchmark::State& state) {
  const CostModel model = paper_model();
  const LutParams params = paper_lut_params();
  const auto key = LutCacheKey::make(1, 2, model, params);
  LutCache cache;
  benchmark::DoNotOptimize(cache.get_or_build(key, model, params));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get_or_build(key, model, params));
  }
}

// The DP kernel under the LUT build (single-allocation in-place table with
// feasibility pruning): tracks the per-table cost of Algorithm 1.
void BM_DpKernel(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int t = 16 * k;  // the LUT's internal_steps ratio
  const ClusterItems items = {DpItem{24, 1.5, k}, DpItem{8, 4.0, k}};
  for (auto _ : state) {
    auto table = ClusterDpTable::build(items, t, k);
    benchmark::DoNotOptimize(table.energy(t, k));
  }
  state.SetItemsProcessed(state.iterations() * t * k);
}

}  // namespace

BENCHMARK(BM_Grid24_Cold)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Grid24_Warm)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_LutCacheMiss)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LutCacheHit);
BENCHMARK(BM_DpKernel)->Arg(64)->Arg(96)->Arg(128)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
