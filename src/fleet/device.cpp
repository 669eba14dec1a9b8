#include "fleet/device.hpp"

#include <algorithm>

#include "common/serialize.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/outcome_cache.hpp"
#include "hhpim/scheduler.hpp"
#include "placement/pareto.hpp"

namespace hhpim::fleet {

sys::SystemConfig Device::device_config(const FleetSpec& fleet,
                                        const DeviceSpec& spec,
                                        placement::LutCache* lut_cache) {
  sys::SystemConfig c = fleet.resolved_firmware()[spec.firmware_index];
  // The spec's own lut_cache is rejected by FleetSpec::validate(); the
  // simulator's resolved cache (may be null = private builds) is the only
  // one devices ever see.
  c.lut_cache = lut_cache;
  return c;
}

sys::SystemConfig Device::device_config(const FleetSpec& fleet,
                                        placement::LutCache* lut_cache) {
  sys::SystemConfig c = fleet.config;
  c.lut_cache = lut_cache;
  return c;
}

Device::Device(const FleetSpec& fleet, const DeviceSpec& spec,
               const nn::Model& model, placement::LutCache* lut_cache)
    : fleet_(fleet),
      spec_(spec),
      model_(model),
      owned_(std::in_place, device_config(fleet, spec, lut_cache), model),
      proc_(&*owned_),
      battery_(fleet.battery),
      policy_(fleet.thresholds),
      low_power_alloc_(fleet.adapt
                           ? sys::balanced_mram_split(proc_->cost_model(),
                                                      proc_->total_weights())
                           : placement::Allocation{}) {
  init_slo_tiers();
}

Device::Device(const FleetSpec& fleet, const DeviceSpec& spec,
               const nn::Model& model, sys::Processor& proc)
    : fleet_(fleet),
      spec_(spec),
      model_(model),
      proc_(&proc),
      battery_(fleet.battery),
      policy_(fleet.thresholds),
      low_power_alloc_(fleet.adapt
                           ? sys::balanced_mram_split(proc_->cost_model(),
                                                      proc_->total_weights())
                           : placement::Allocation{}) {
  init_slo_tiers();
}

void Device::init_slo_tiers() {
  if (spec_.latency_slo_ps <= 0) return;
  const placement::AllocationLut* lut = proc_->lut();
  if (lut == nullptr) return;  // validate() rejects non-HH-PIM SLO fleets
  const placement::LutEntry* entry =
      lut->lookup_or_peak(Time::ps(spec_.latency_slo_ps));
  if (entry == nullptr || entry->frontier.empty()) return;  // nothing feasible
  // kBalanced: the entry's anchor — min energy subject to the SLO (the
  // legacy knapsack answer for this constraint, bit-exact).
  slo_allocs_[static_cast<std::size_t>(FrontierTier::kBalanced)] = entry->alloc;
  // kPerformance: the fastest point on the same frontier.
  slo_allocs_[static_cast<std::size_t>(FrontierTier::kPerformance)] =
      placement::min_latency_point(entry->frontier).alloc;
  // kSaver: min energy outright — the most relaxed entry's anchor (feasibility
  // is monotone in t_constraint, so the last entry is feasible whenever any
  // is). Deliberately waives the SLO: the battery is dying.
  slo_allocs_[static_cast<std::size_t>(FrontierTier::kSaver)] =
      lut->entries().back().alloc;
  slo_ok_ = true;
}

const placement::Allocation& Device::tier_alloc(FrontierTier t) const {
  return slo_allocs_[static_cast<std::size_t>(t)];
}

bool Device::has_drain() const {
  return spec_.leave_slice < 0 || spec_.leave_slice >= fleet_.slices;
}

int Device::total_steps(const std::vector<int>& loads) const {
  return static_cast<int>(loads.size()) + (has_drain() ? 1 : 0);
}

DeviceResult Device::run(FleetAggregate* agg) {
  std::vector<int> loads;
  device_loads_into(spec_, fleet_.envelope_multipliers(), loads);
  DeviceProgress p;
  start_progress(p, loads);
  run_steps(p, loads, total_steps(loads), agg, nullptr);
  if (agg != nullptr) agg->add_device(p.result);
  return p.result;
}

void Device::start_progress(DeviceProgress& p, const std::vector<int>& loads) const {
  DeviceResult& r = p.result;
  r.id = spec_.id;
  r.model_index = static_cast<std::uint32_t>(spec_.model_index);
  r.scenario = spec_.scenario;
  r.seed = spec_.seed;
  r.slice_ps = proc_->slice_length().as_ps();
  r.slices_total = total_steps(loads);
  r.battery_capacity_pj = battery_.capacity().as_pj();
  r.latency_slo_ps = spec_.latency_slo_ps;
  p.started = true;
}

void Device::capture_progress(DeviceProgress& p) const {
  p.mode = static_cast<std::uint8_t>(policy_.mode());
  p.switches = policy_.switches();
  p.tier = applied_tier_;
  p.charge_pj = battery_.charge().as_pj();
  ByteWriter w;
  proc_->save_state(w);
  p.proc_state = w.take();
}

void Device::restore_progress(const DeviceProgress& p) {
  battery_.restore_charge(Energy::pj(p.charge_pj));
  policy_.restore(static_cast<DeviceMode>(p.mode), p.switches);
  // The override itself rides in the processor blob; only the tier label
  // needs restoring so the next slice doesn't re-install (and recount) it.
  applied_tier_ = p.tier;
  ByteReader r{p.proc_state};
  proc_->load_state(r);
}

bool Device::run_steps(DeviceProgress& p, const std::vector<int>& loads,
                       int k_end, FleetAggregate* agg,
                       OutcomeRecorder* recorder) {
  DeviceResult& r = p.result;
  const int steps = total_steps(loads);
  const int n_loads = static_cast<int>(loads.size());
  if (k_end > steps) k_end = steps;

  // Digest chain for outcome recording: `pre` is the processor state the
  // coming slice starts from. The mode decided below is part of the key,
  // not the digest — the override flip it causes lands in the slice's
  // *post* digest, which seeds the next link.
  std::uint64_t pre = recorder != nullptr ? proc_->state_digest() : 0;

  int buffered = p.buffered;
  int k = p.next_k;
  for (; k < k_end && !p.done; ++k) {
    const int arriving = k < n_loads ? loads[k] : 0;

    if (fleet_.charging.period > 0 && fleet_.charging.window > 0) {
      // Global charging window, applied before the policy observes the SoC
      // (a device wakes into a charged state, it doesn't observe-then-charge).
      const int g = spec_.join_slice + k;
      if (g % fleet_.charging.period < fleet_.charging.window) {
        battery_.recharge(fleet_.charging.energy_per_slice);
      }
    }

    DeviceMode mode = DeviceMode::kDynamic;
    FrontierTier tier = FrontierTier::kBalanced;
    if (slo_active()) {
      // SLO-aware frontier policy: the hysteresis mode still advances (it
      // feeds kSaver and the JSONL mode fields), but the placement pinned is
      // the tier's frontier point, not the dynamic/MRAM toggle. Without
      // adaptation there is no SoC signal — the device holds kBalanced.
      if (fleet_.adapt) {
        mode = policy_.update(battery_.soc());
        tier = select_tier(mode, battery_.soc(), fleet_.thresholds);
      }
      if (static_cast<std::uint8_t>(tier) != applied_tier_) {
        proc_->set_placement_override(tier_alloc(tier));
        if (applied_tier_ != 255) ++r.tier_switches;
        applied_tier_ = static_cast<std::uint8_t>(tier);
      }
    } else if (fleet_.adapt) {
      mode = policy_.update(battery_.soc());
      if (mode == DeviceMode::kLowPower && !proc_->placement_override_active()) {
        proc_->set_placement_override(low_power_alloc_);
      } else if (mode == DeviceMode::kDynamic && proc_->placement_override_active()) {
        proc_->set_placement_override(std::nullopt);
      }
    }

    const sys::SliceStats s = proc_->run_slice(buffered);
    const Energy requested = s.energy;
    const Energy drained = battery_.drain(requested);

    if (recorder != nullptr) {
      // Recorded even for an exhaustion slice: the slice's outcome is
      // independent of the battery (the clamp is replay-side), so the
      // entry is valid for any device reaching this state.
      const std::uint64_t post = proc_->state_digest();
      recorder->recorded.push_back(
          {SliceOutcomeKey{recorder->reuse_key, pre,
                           slo_active() ? spec_.latency_slo_ps : 0,
                           static_cast<std::uint32_t>(buffered),
                           static_cast<std::uint8_t>(mode),
                           slo_active() ? static_cast<std::uint8_t>(tier)
                                        : std::uint8_t{0}},
           SliceOutcome{requested.as_pj(), s.busy_time.as_ps(),
                        s.movement_time.as_ps(), post, s.host_cycles,
                        s.deadline_violated}});
      pre = post;
    }

    ++r.slices_executed;
    r.tasks += static_cast<std::uint64_t>(s.tasks_executed);
    r.deadline_violations += s.deadline_violated ? 1 : 0;
    r.energy_pj += drained.as_pj();
    r.busy_time_ps += s.busy_time.as_ps();
    r.max_busy_ps = std::max(r.max_busy_ps, s.busy_time.as_ps());
    r.movement_time_ps += s.movement_time.as_ps();
    r.host_cycles += s.host_cycles;
    if (mode == DeviceMode::kLowPower) ++r.low_power_slices;
    if (agg != nullptr) {
      agg->slices.add(s.busy_time.as_ps(), r.slice_ps, requested.as_pj());
    }

    if (drained < requested) {
      // The battery died during this slice: the slice's work happened (the
      // device browns out at the boundary, not instantaneously), but nothing
      // after it runs. Arrivals still in flight are dropped.
      r.exhausted_at_slice = s.slice;
      std::uint64_t dropped = static_cast<std::uint64_t>(arriving);
      for (int j = k + 1; j < n_loads; ++j) {
        dropped += static_cast<std::uint64_t>(loads[j]);
      }
      r.tasks_dropped = dropped;
      p.done = true;
    }
    buffered = arriving;
  }

  p.next_k = k;
  p.buffered = buffered;
  if (!p.done && p.next_k >= steps) {
    p.done = true;
    if (!has_drain()) {
      // Early leaver: its final buffer never gets a drain slice — those
      // arrivals are dropped exactly like exhaustion drops in-flight work.
      r.tasks_dropped += static_cast<std::uint64_t>(buffered);
    }
  }
  r.mode_switches = policy_.switches();
  r.final_soc = battery_.soc();
  return p.done;
}

}  // namespace hhpim::fleet
