// Parallel experiment runner.
//
// Executes the independent RunSpecs of an expanded ExperimentSpec on a fixed
// pool of N worker threads (no work stealing: workers claim the next grid
// index from a shared atomic counter; never more workers than runs). Each
// run executes on a sys::Processor checked out of a pool shared by every
// worker (sys::ProcessorPool; RunnerOptions::reuse_processors, default on; a
// reset() Processor is bit-exchangeable for a fresh one), or constructed
// per run with reuse off. Workers buffer their RunResults locally and place
// them at the runs' grid indices after the claiming loop drains, so no two
// workers write near each other mid-run. Results are bit-identical
// regardless of thread count, completion order or reuse; only wall-clock
// changes.
//
// Thread safety: a Runner is immutable after construction — run()/run_all()
// may be called concurrently from multiple threads (each call spins up its
// own pool). The LutCache the options name must itself be thread-safe
// (placement::LutCache is) and outlive every call that uses it.
//
// Cost: one Processor construction + scenario execution per run —
// O(runs · slices · tasks/slice) simulation work; for HH-PIM runs the LUT
// build (O(t_entries · k_blocks) DP entries) dominates construction unless
// served by the cache.
#pragma once

#include <vector>

#include "exp/result.hpp"
#include "exp/spec.hpp"
#include "hhpim/processor_pool.hpp"

namespace hhpim::placement {
class LutCache;  // placement/lut_cache.hpp — only a pointer is stored here
}

namespace hhpim::exp {

struct RunnerOptions {
  /// Worker threads. 0 = one per hardware thread (min 1); 1 = run inline on
  /// the calling thread (no pool).
  unsigned threads = 0;
  /// Retain per-slice metrics in each RunResult (larger results/JSON).
  bool keep_slices = false;
  /// Share placement LUTs across the grid's runs: HH-PIM runs agreeing on
  /// (model topology, arch, cost model, slice, resolution) build one LUT
  /// instead of one per run. Results are byte-identical with sharing on or
  /// off (pinned by tests/test_lut_cache.cpp); only wall-clock changes.
  bool share_luts = true;
  /// Cache used when `share_luts` (not owned; must outlive the grid run).
  /// nullptr = the process-wide placement::LutCache::process_cache().
  placement::LutCache* lut_cache = nullptr;
  /// Reuse Processors across runs sharing a (config, model) via the
  /// checkout sys::ProcessorPool shared by all workers: repeated grid cells
  /// skip CostModel::build and cluster construction. Results are
  /// byte-identical with reuse on or off; only wall-clock changes.
  bool reuse_processors = true;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {}) : options_(options) {}

  /// Expands and executes the grid. Propagates the first run exception (all
  /// other runs still complete).
  [[nodiscard]] ResultSet run(const ExperimentSpec& spec) const;

  /// Executes pre-expanded runs (possibly a filtered subset of an expanded
  /// grid). Results are returned in the same order as `runs`; each
  /// RunResult::index echoes its RunSpec::index.
  [[nodiscard]] ResultSet run_all(std::vector<RunSpec> runs) const;

  /// Executes one run on the calling thread. Exposed for tests and for
  /// callers embedding single runs in their own loops. `lut_cache` (may be
  /// nullptr = uncached) is consulted unless the RunSpec's SystemConfig
  /// already names a cache of its own. `pool` (may be nullptr = construct a
  /// fresh Processor) supplies a reused Processor for the run's
  /// (config, model).
  [[nodiscard]] static RunResult execute(const RunSpec& spec, bool keep_slices = false,
                                         placement::LutCache* lut_cache = nullptr,
                                         sys::ProcessorPool* pool = nullptr);

  [[nodiscard]] const RunnerOptions& options() const { return options_; }
  /// The cache this runner's options resolve to (nullptr when sharing off).
  [[nodiscard]] placement::LutCache* resolve_lut_cache() const;
  /// The worker count a `threads` request resolves to on this host.
  [[nodiscard]] static unsigned resolve_threads(unsigned requested);
  /// Workers actually spawned for `requested` threads over `runs` runs:
  /// min(resolve_threads(requested), runs), at least 1. Surplus workers
  /// would only contend on the claim counter.
  [[nodiscard]] static unsigned resolve_workers(unsigned requested,
                                                std::size_t runs);

 private:
  RunnerOptions options_;
};

}  // namespace hhpim::exp
