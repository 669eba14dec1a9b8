// Fleet-wide online aggregates, mergeable across shards and segments.
//
// The aggregate has two halves. The per-slice half (SliceAggregate: the
// busy-fraction and slice-energy histograms and the exact busy-time
// summary) is built from integer adds only, so it is order-free: each
// slice folds in wherever it runs — a memo lane, the exact path, a bounded
// segment — and any merge order gives the same bits. The per-device half
// (counters plus the device_energy_mj / final_soc Summaries) is the one
// order-sensitive part: Summary merges differ in the last floating-point
// bit with order, so devices add in id order within a shard and shards
// merge in shard-index order. Together that keeps the merged aggregate
// byte-identical at any thread count — the same invariant exp::Runner
// gives per-run results.
//
// Units: busy fractions are slice busy time / slice length T (dimensionless,
// robust across devices with different models and hence different T);
// busy times are picoseconds (written as microseconds); energies are
// millijoules. Quantiles come from sim::Histogram::quantile (linear within
// a bin) — resolution is set by AggregateShape, which must be identical
// across everything merged (enforced by Histogram::merge).
#pragma once

#include <cstdint>

#include "fleet/spec.hpp"
#include "sim/stats.hpp"

namespace hhpim::fleet {

struct DeviceResult;  // fleet/device.hpp

/// The per-slice statistics. Every member merges exactly, so partial
/// aggregates — per shard, per segment — combine in any order; a
/// FleetSnapshot carries one between segments.
struct SliceAggregate {
  explicit SliceAggregate(const AggregateShape& shape = {});

  /// Accounts one executed slice: `busy_time_ps` of busy time on a device
  /// whose slice length is `slice_ps`, charging `energy_pj` (requested,
  /// before the battery clamp).
  void add(std::int64_t busy_time_ps, std::int64_t slice_ps, double energy_pj);

  /// Adds `other` in. Shapes must match (throws std::invalid_argument via
  /// Histogram::merge otherwise).
  void merge(const SliceAggregate& other);

  sim::Histogram busy_frac;   ///< busy time / T
  sim::Histogram energy_mj;   ///< per-slice energy, millijoules
  sim::ExactSummary busy_ps;  ///< per-slice busy time, picoseconds
};

class FleetAggregate {
 public:
  explicit FleetAggregate(const AggregateShape& shape = {});

  /// Accounts one finished device (its counters and totals).
  void add_device(const DeviceResult& r);

  /// Adds `other` into this aggregate. Shapes must match (throws
  /// std::invalid_argument via Histogram::merge otherwise). The slice half
  /// merges exactly; the device Summaries are order-sensitive in the last
  /// floating-point bit — merge shards in a fixed order for reproducible
  /// output (the simulator does).
  void merge(const FleetAggregate& other);

  // --- fleet counters -------------------------------------------------------
  std::uint64_t devices = 0;
  std::uint64_t executed_slices = 0;      ///< slices actually run (incl. drain)
  std::uint64_t tasks = 0;
  std::uint64_t tasks_dropped = 0;        ///< arrived after a battery died
  std::uint64_t deadline_violations = 0;
  std::uint64_t exhausted_devices = 0;
  std::uint64_t mode_switches = 0;
  std::uint64_t low_power_slices = 0;
  std::uint64_t host_cycles = 0;          ///< RISC-V host cycles (0 = no host)

  // --- distributions --------------------------------------------------------
  sim::Summary device_energy_mj;  ///< per-device total energy, millijoules
  sim::Summary final_soc;         ///< per-device battery SoC at run end
  SliceAggregate slices;          ///< per-slice histograms and busy time

  [[nodiscard]] const sim::Histogram& busy_frac_hist() const { return slices.busy_frac; }
  [[nodiscard]] const sim::Histogram& slice_energy_hist() const { return slices.energy_mj; }

  /// Fleet-wide slice-latency quantile, in fractions of the slice length T
  /// (q in [0, 1]; e.g. 0.99 -> p99).
  [[nodiscard]] double busy_frac_quantile(double q) const {
    return slices.busy_frac.quantile(q);
  }
  /// Fleet-wide per-slice energy quantile, millijoules.
  [[nodiscard]] double slice_energy_mj_quantile(double q) const {
    return slices.energy_mj.quantile(q);
  }
};

}  // namespace hhpim::fleet
