// Output checks: oracles and properties of the method, applied to what an
// invocation wrote. Every check returns an empty string on success and a
// one-line diagnostic otherwise, and takes its input as plain data so the
// self-tests can hand it a tampered copy and expect a rejection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "placement/cost_model.hpp"
#include "placement/lut.hpp"
#include "placement/pareto.hpp"

namespace perfbench {

/// Operation ledger of one run: every invocation and every check is one
/// attempted operation; a thrown invocation or a failed check is a failure.
class CheckLog {
 public:
  /// Records one operation. `error` empty = success; otherwise it is
  /// printed to stderr under `name`.
  void record(const std::string& name, const std::string& error);
  /// A self-test: `error` is what the check said about a tampered input,
  /// and must be non-empty.
  void record_rejection(const std::string& name, const std::string& error);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Byte identity: names the first differing offset and the lengths.
[[nodiscard]] std::string compare_bytes(const std::string& what, const std::string& got,
                                        const std::string& want);

/// The value of top-level numeric field `key` in a flat JSON object (a
/// JSONL line or the fleet summary). Throws std::runtime_error if absent.
[[nodiscard]] double json_number(const std::string& object, const std::string& key);

/// The fleet summary's counters equal the sums over the JSONL lines:
/// devices, executed_slices, tasks, tasks_dropped, deadline_violations,
/// exhausted_devices, mode_switches, low_power_slices.
[[nodiscard]] std::string check_summary_sums(const std::string& jsonl,
                                             const std::string& summary);

/// One row of the experiment grid's CSV, the fields the paper claim reads.
struct GridRow {
  std::string arch, model, scenario;
  std::uint64_t deadline_violations = 0;
  double total_energy_pj = 0.0;
};
[[nodiscard]] std::vector<GridRow> parse_grid_csv(const std::string& csv);

/// The paper's claim on every (model, scenario) cell: HH-PIM uses less
/// energy than Baseline-PIM and Hybrid-PIM and misses no deadline. Also
/// requires `expected_runs` rows.
[[nodiscard]] std::string check_grid(const std::vector<GridRow>& rows,
                                     std::size_t expected_runs);

/// One row of pareto_nas's CSV: the frontier read-out at the SLO entry.
struct NasRow {
  std::string model, scenario;
  std::size_t frontier_points = 0;
  double anchor_energy_pj = 0.0, perf_energy_pj = 0.0;
  std::int64_t anchor_latency_ps = 0, perf_latency_ps = 0;
};
[[nodiscard]] std::vector<NasRow> parse_nas_csv(const std::string& csv);

/// Every row's frontier is non-empty and its min-energy anchor has energy
/// no higher and latency no lower than the min-latency point.
[[nodiscard]] std::string check_nas_rows(const std::vector<NasRow>& rows,
                                         std::size_t expected_runs);

/// A frontier is non-empty and no point dominates another.
[[nodiscard]] std::string check_frontier(const std::vector<hhpim::placement::ParetoPoint>& f);

/// One LUT entry against the cost model: a feasible entry places exactly
/// `total_weights`, fits every capacity and meets its t_constraint, and so
/// does every point of its non-dominated frontier, whose min-energy point
/// is the entry's own allocation.
[[nodiscard]] std::string check_lut_entry(const hhpim::placement::CostModel& m,
                                          std::uint64_t total_weights,
                                          const hhpim::placement::LutEntry& e);

/// One LUT entry against placement::brute_force_placement at the LUT's
/// block granularity, within the DP-quantization slack of
/// tests/test_pareto.cpp: the DP may not beat the enumeration by more than
/// 1 pJ, nor lose to it by more than two blocks of HP-MRAM dynamic energy.
[[nodiscard]] std::string check_lut_brute_force(const hhpim::placement::CostModel& m,
                                                std::uint64_t total_weights,
                                                int k_blocks,
                                                const hhpim::placement::LutEntry& e);

}  // namespace perfbench
