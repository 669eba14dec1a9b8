// The benchmark's three workloads. Each repeats timed rounds of public calls
// into the library — the work one CLI invocation does — and afterwards
// checks the last round's outputs (checks.hpp).
//
//   cli-cold         one round = the default specs of fleet_sim,
//                    experiment_grid and pareto_nas at 2 workers, each with
//                    fresh caches and its output files written;
//   fleet-week       one round = a simulated week (672 slices) of ~20k
//                    devices at 1 worker, JSONL and summary written;
//   fleet-week-ckpt  one round = the same week at ~3k devices, run as
//                    96-slice segments through on-disk FleetSnapshot files.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one round measured. Times are host seconds.
struct RoundResult {
  double wall_s = 0.0;   ///< set-up to last output byte, summed over invocations
  double setup_s = 0.0;  ///< before the first simulated slice, summed likewise
  std::uint64_t slices = 0;  ///< slices executed after set-up
  int invocations = 0;
  double peak_rss_mb = 0.0;  ///< peak resident set of the round's process
  /// Per-layer counters of this round (names as in BENCHMARK.json).
  std::map<std::string, double> counts;
  /// Invocation spans opened by this round (traced runs only).
  std::vector<int> roots;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs timed round `index` (0, 1, ... < kMaxRounds), writing its outputs
  /// under the output directory. Each round draws its own inputs from
  /// (seed, index), so a run's medians sample the workload over many inputs
  /// rather than one. Rounds run in child processes: nothing a round
  /// changes in this object is seen by later rounds or by check().
  virtual RoundResult round(int index, Tracer& tracer) = 0;
  /// Checks the outputs of round `index`, the last one run, and runs each
  /// check's self-test.
  virtual void check(int index, CheckLog& log) = 0;
};

/// Rounds per run are capped so that round inputs never repeat across seeds:
/// round `index` of seed `s` uses the CLIs' seed 0x5eed2025 + s * kMaxRounds
/// + index (round 0 of seed 0 is every CLI's default).
inline constexpr int kMaxRounds = 1000;

/// The workload named `name` (nullptr if unknown). Inputs derive from
/// `seed` and the round index only; `out_dir` must exist.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      const std::string& out_dir);

}  // namespace perfbench
