// One simulated edge device: a sys::Processor + energy::Battery +
// fleet::AdaptivePolicy executing its per-device request stream.
//
// The device runs the slice protocol of sys::Processor::run_scenario
// (arrivals in slice k execute in slice k+1, one trailing drain slice), but
// drives it slice by slice so the battery and the adaptation loop sit in
// the middle:
//
//   per slice boundary:
//     1. observe battery SoC -> AdaptivePolicy::update
//     2. kLowPower  -> Processor::set_placement_override(MRAM-balanced)
//        kDynamic   -> clear the override (HH-PIM LUT placement resumes)
//     3. run the slice, drain the slice's energy from the battery
//     4. battery hit zero mid-slice -> record exhaustion, stop; arrivals
//        that never executed are counted as dropped
//
// Devices are strictly single-threaded and share no mutable state; the only
// cross-device object is the placement::LutCache (immutable entries), which
// is what makes a fleet of thousands cheap: devices with the same model and
// arch resolve to the same LUT build.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "energy/battery.hpp"
#include "fleet/policy.hpp"
#include "fleet/spec.hpp"
#include "hhpim/processor.hpp"
#include "nn/model.hpp"

namespace hhpim::placement {
class LutCache;  // placement/lut_cache.hpp — only a pointer is passed through
}

namespace hhpim::fleet {

class FleetAggregate;   // fleet/aggregate.hpp
struct OutcomeRecorder;  // fleet/outcome_cache.hpp

/// Everything one device run produces; one JSONL line each (the schema is
/// documented in docs/FLEET.md). Times are picoseconds, energies picojoules
/// (matching exp::RunResult); SoC is in [0, 1]. Model and scenario are
/// interned — `model_index` points into FleetResult::model_names (the
/// FleetSpec's resolved model table) and `scenario` is the enum; both
/// resolve to strings only at JSONL-write time, so a million DeviceResults
/// carry no per-device string allocations.
struct DeviceResult {
  std::uint32_t id = 0;
  std::uint32_t model_index = 0;
  workload::Scenario scenario = workload::Scenario::kLowConstant;
  std::uint64_t seed = 0;
  std::int64_t slice_ps = 0;           ///< the device's slice length T

  int slices_total = 0;                ///< planned slices incl. the drain slice
  int slices_executed = 0;             ///< actually run (< total if exhausted)
  std::uint64_t tasks = 0;
  std::uint64_t tasks_dropped = 0;     ///< arrived but never executed
  std::uint64_t deadline_violations = 0;

  double energy_pj = 0.0;              ///< total drained from the battery
  double battery_capacity_pj = 0.0;
  double final_soc = 0.0;
  int exhausted_at_slice = -1;         ///< slice whose drain hit zero; -1 = never

  std::uint32_t mode_switches = 0;
  int low_power_slices = 0;            ///< slices run under the pinned placement

  std::int64_t busy_time_ps = 0;       ///< sum of per-slice busy times
  std::int64_t max_busy_ps = 0;        ///< worst slice
  std::int64_t movement_time_ps = 0;   ///< sum of per-slice movement overheads

  // SLO-aware frontier policy (zero / absent from JSONL when the device has
  // no SLO — docs/PARETO.md).
  std::int64_t latency_slo_ps = 0;     ///< DeviceSpec::latency_slo_ps echo
  std::uint32_t tier_switches = 0;     ///< frontier-tier transitions

  /// RISC-V host cycles retired across all slices (zero / absent from JSONL
  /// unless the firmware enables SystemConfig::host — docs/RISCV.md).
  std::uint64_t host_cycles = 0;
};

/// One device's resumable mid-run state — what a FleetSnapshot stores per
/// device. Captures everything Device::run_steps needs to continue at step
/// `next_k` and still produce byte-identical output: the partial
/// DeviceResult, the policy/battery state and the processor checkpoint blob
/// (Processor::save_state). Its size does not grow with the slices run:
/// executed slices fold into the segment's SliceAggregate as they run.
struct DeviceProgress {
  DeviceResult result;
  int next_k = 0;           ///< next local step (slice) to execute
  bool started = false;     ///< start_progress() ran; result header is valid
  bool done = false;        ///< stream complete (drained, left, or exhausted)
  std::uint8_t mode = 0;    ///< AdaptivePolicy mode (DeviceMode)
  std::uint32_t switches = 0;
  std::uint8_t tier = 255;  ///< FrontierTier applied (255 = none yet; SLO only)
  int buffered = 0;         ///< arrivals awaiting execution in the next slice
  double charge_pj = 0.0;   ///< exact battery charge bits
  std::string proc_state;   ///< Processor::save_state blob (live devices only)
};

class Device {
 public:
  /// `model` must be fleet.resolved_models()[spec.model_index] (the caller
  /// resolves once per run, not once per device); `lut_cache` may be null
  /// (private LUT build). The Processor is constructed here — with a cache,
  /// construction is cheap for every device after the first per model.
  Device(const FleetSpec& fleet, const DeviceSpec& spec, const nn::Model& model,
         placement::LutCache* lut_cache);

  /// Processor-reuse variant (FleetOptions::reuse_processors): runs on
  /// `proc`, a pooled processor built from the same (fleet config, model)
  /// pair, already reset() by the caller. `proc` must outlive the Device.
  /// Results are bit-identical to the owning constructor (reset ==
  /// fresh construction; pinned by tests/test_batched.cpp).
  Device(const FleetSpec& fleet, const DeviceSpec& spec, const nn::Model& model,
         sys::Processor& proc);

  /// Executes the device's whole stream (loads materialized from the spec
  /// with the fleet's envelope applied). Each executed slice is added to
  /// `agg` (may be null) as it runs, then the device itself. Call once.
  DeviceResult run(FleetAggregate* agg);

  // --- segmented execution (fleet checkpoint/restore) ----------------------
  // A whole run is: start_progress once, then run_steps in one or more
  // [next_k, k_end) windows — capture_progress / restore_progress (plus a
  // fresh Device on a reset processor) between windows — until run_steps
  // returns true. The step sequence executed this way is instruction-for-
  // instruction the one run() executes, so output stays byte-identical.

  /// True when the device stays to the horizon and runs the trailing drain
  /// slice; a device leaving early drops its final buffer instead.
  [[nodiscard]] bool has_drain() const;

  /// Steps of this device's whole stream: loads.size() + 1 drain slice for
  /// horizon devices, loads.size() for early leavers.
  [[nodiscard]] int total_steps(const std::vector<int>& loads) const;

  /// Fills p.result's identity/header fields and p's initial lane state
  /// from this (fresh) device. Call exactly once per device stream.
  void start_progress(DeviceProgress& p, const std::vector<int>& loads) const;

  /// Resumes a prior capture_progress onto this device, whose processor
  /// must be fresh/reset() and built from the same reuse key.
  void restore_progress(const DeviceProgress& p);

  /// Captures policy/battery/processor state so a later restore_progress
  /// continues the stream exactly. Only valid between run_steps windows.
  void capture_progress(DeviceProgress& p) const;

  /// Executes local steps [p.next_k, min(k_end, total_steps)) and updates
  /// p. Returns true when the stream completed (drained, left early, or
  /// exhausted). With `agg` non-null, every executed slice is added to it
  /// as it runs (SliceAggregate::add — order-free, so the caller may
  /// fold segments and memo lanes into the same aggregate in any order);
  /// with null, the slices post nowhere. When
  /// `recorder` is non-null, every executed slice appends one
  /// (SliceOutcomeKey, SliceOutcome) pair chained through
  /// Processor::state_digest() — the exact-path side of the fleet's
  /// device-level memo (recorder->reuse_key must be the processor's
  /// sys::processor_reuse_key). Recording changes wall-clock only.
  bool run_steps(DeviceProgress& p, const std::vector<int>& loads, int k_end,
                 FleetAggregate* agg, OutcomeRecorder* recorder);

  /// The SystemConfig a device of `fleet` runs under: the device's firmware
  /// entry with the simulator-resolved LUT cache plugged in. What both
  /// constructors build from — exposed so FleetSimulator's processor pool
  /// constructs identical processors.
  [[nodiscard]] static sys::SystemConfig device_config(
      const FleetSpec& fleet, const DeviceSpec& spec,
      placement::LutCache* lut_cache);

  /// Single-firmware convenience (firmware entry 0 == FleetSpec::config).
  [[nodiscard]] static sys::SystemConfig device_config(
      const FleetSpec& fleet, placement::LutCache* lut_cache);

  [[nodiscard]] const sys::Processor& processor() const { return *proc_; }
  [[nodiscard]] const energy::Battery& battery() const { return battery_; }

 private:
  /// Resolves the three frontier-tier allocations once per device (SLO set
  /// and HH-PIM LUT present; no-ops otherwise — slo_active() stays false).
  void init_slo_tiers();
  [[nodiscard]] bool slo_active() const { return spec_.latency_slo_ps > 0 && slo_ok_; }
  [[nodiscard]] const placement::Allocation& tier_alloc(FrontierTier t) const;

  const FleetSpec& fleet_;
  const DeviceSpec& spec_;
  const nn::Model& model_;
  std::optional<sys::Processor> owned_;  ///< engaged by the owning constructor
  sys::Processor* proc_;                 ///< the processor this device runs on
  energy::Battery battery_;
  AdaptivePolicy policy_;
  placement::Allocation low_power_alloc_;
  // SLO frontier picks, resolved once from the processor's LUT: [balanced,
  // performance, saver] indexed by FrontierTier.
  std::array<placement::Allocation, 3> slo_allocs_{};
  bool slo_ok_ = false;           ///< tiers resolved (LUT had a feasible entry)
  std::uint8_t applied_tier_ = 255;  ///< override installed (255 = none yet)
};

}  // namespace hhpim::fleet
