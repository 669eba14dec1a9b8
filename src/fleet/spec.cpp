#include "fleet/spec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "hhpim/scheduler.hpp"
#include "nn/zoo.hpp"

namespace hhpim::fleet {
namespace {

/// Uniform double in [0, 1) from one SplitMix64 draw (53 mantissa bits).
double to_unit(std::uint64_t u) { return static_cast<double>(u >> 11) * 0x1.0p-53; }

void add_string(Fnv1a& h, const std::string& s) {
  h.add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) h.add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
}

void add_scenario_cfg(Fnv1a& h, const workload::ScenarioConfig& c) {
  h.add(c.slices).add(c.low).add(c.high).add(c.spike_period)
      .add(c.spike_period_frequent).add(c.pulse_width).add(c.seed)
      .add(c.burst_period).add(c.burst_decay).add(c.poisson_mean);
  add_string(h, c.trace_path);
  h.add(static_cast<std::uint64_t>(c.trace.size()));
  for (const int v : c.trace) h.add(v);
}

}  // namespace

std::vector<nn::Model> FleetSpec::resolved_models() const {
  return models.empty() ? nn::zoo::paper_models() : models;
}

std::vector<workload::Scenario> FleetSpec::resolved_mix() const {
  if (!mix.empty()) return mix;
  return {workload::Scenario::kPulsing, workload::Scenario::kRandom,
          workload::Scenario::kPoisson, workload::Scenario::kBurstDecay};
}

std::vector<sys::SystemConfig> FleetSpec::resolved_firmware() const {
  return firmware.empty() ? std::vector<sys::SystemConfig>{config} : firmware;
}

std::vector<double> FleetSpec::envelope_multipliers() const {
  if (!envelope.enabled) return {};
  workload::ScenarioConfig c = envelope.cfg;
  c.slices = slices;
  c.seed = envelope.seed;
  const std::vector<int> raw = workload::generate(envelope.shape, c);
  std::vector<double> m(static_cast<std::size_t>(slices), envelope.min_multiplier);
  const double lo = static_cast<double>(c.low);
  const double hi = static_cast<double>(c.high);
  for (std::size_t g = 0; g < m.size(); ++g) {
    // A trace shape defines its own length; cycle it over the horizon.
    const double r = static_cast<double>(raw[g % raw.size()]);
    const double t =
        hi > lo ? (std::clamp(r, lo, hi) - lo) / (hi - lo) : 1.0;
    m[g] = envelope.min_multiplier +
           t * (envelope.max_multiplier - envelope.min_multiplier);
  }
  return m;
}

std::uint64_t FleetSpec::content_digest() const {
  Fnv1a h;
  add_string(h, name);
  h.add(devices).add(slices).add(seed).add(adapt ? 1 : 0);
  h.add(thresholds.low_soc).add(thresholds.high_soc);
  h.add(battery.capacity.as_pj()).add(battery.initial_soc);
  h.add(histograms.busy_frac_max)
      .add(static_cast<std::uint64_t>(histograms.busy_frac_bins))
      .add(histograms.slice_energy_mj_max)
      .add(static_cast<std::uint64_t>(histograms.slice_energy_bins));
  const std::vector<workload::Scenario> shapes = resolved_mix();
  h.add(static_cast<std::uint64_t>(shapes.size()));
  for (const workload::Scenario s : shapes) h.add(static_cast<int>(s));
  add_scenario_cfg(h, workload);
  // Firmware x model reuse keys digest everything a Processor's behavior
  // depends on (arch, power spec, knobs, model topology/params/macs). The
  // raw lut_cache pointer is process-local, so key with it nulled.
  const std::vector<nn::Model> ms = resolved_models();
  const std::vector<sys::SystemConfig> fws = resolved_firmware();
  h.add(static_cast<std::uint64_t>(ms.size()))
      .add(static_cast<std::uint64_t>(fws.size()));
  for (const sys::SystemConfig& fw : fws) {
    sys::SystemConfig c = fw;
    c.lut_cache = nullptr;
    for (const nn::Model& m : ms) h.add(sys::processor_reuse_key(c, m));
  }
  h.add(lifecycle.join_fraction).add(lifecycle.leave_fraction);
  h.add(static_cast<std::uint64_t>(lifecycle_overrides.size()));
  for (const LifecycleOverride& o : lifecycle_overrides)
    h.add(static_cast<std::uint64_t>(o.id)).add(o.join_slice).add(o.leave_slice);
  h.add(charging.period).add(charging.window)
      .add(charging.energy_per_slice.as_pj());
  h.add(envelope.enabled ? 1 : 0);
  if (envelope.enabled) {
    h.add(static_cast<int>(envelope.shape))
        .add(envelope.min_multiplier)
        .add(envelope.max_multiplier)
        .add(envelope.seed);
    add_scenario_cfg(h, envelope.cfg);
  }
  // SLO fields are fully guarded (no unconditional marker) so a spec without
  // them digests byte-identically to pre-SLO builds — snapshots written
  // before this field existed still restore onto the same spec.
  if (latency_slo > Time::zero() || !slo_overrides.empty()) {
    h.add(latency_slo.as_ps());
    h.add(static_cast<std::uint64_t>(slo_overrides.size()));
    for (const SloOverride& o : slo_overrides)
      h.add(static_cast<std::uint64_t>(o.id)).add(o.latency_slo.as_ps());
  }
  return h.digest();
}

void FleetSpec::validate() const {
  if (devices < 0) throw std::invalid_argument("FleetSpec: devices must be >= 0");
  if (slices <= 0) throw std::invalid_argument("FleetSpec: slices must be > 0");
  for (const workload::Scenario s : resolved_mix()) {
    if (s == workload::Scenario::kTrace) {
      // A fleet draws per-device streams from generators; replaying one
      // fixed trace on every device defeats the jitter. Use a generator
      // shape, or feed the trace through FleetSpec::workload.trace as a
      // custom generator if that ever becomes a need.
      throw std::invalid_argument("FleetSpec: trace-replay cannot be a mix entry");
    }
  }
  for (const sys::SystemConfig& fw : resolved_firmware()) {
    if (fw.lut_cache != nullptr) {
      // The cache is an execution concern: FleetOptions names it, and
      // share_luts decides whether devices use one at all. A cache smuggled
      // in through the SystemConfig would bypass share_luts, so the
      // summary's lut_builds/lut_shared (derived from the spec under
      // share_luts) would describe builds that never happened.
      throw std::invalid_argument(
          "FleetSpec: set the LUT cache via FleetOptions::lut_cache, "
          "not SystemConfig::lut_cache");
    }
    if (adapt && (fw.arch.kind != sys::ArchKind::kHhpim ||
                  fw.arch.mram_kb_per_module == 0)) {
      throw std::invalid_argument(
          "FleetSpec: adaptation needs the HH-PIM arch with MRAM "
          "(set adapt = false for static architectures)");
    }
    if (adapt) {
      // The low-power mode pins balanced_mram_split — reject models whose
      // split does not fit the MRAM capacities here, not from the first
      // worker thread whose device's SoC crosses the threshold mid-run.
      const energy::PowerSpec power = sys::resolved_power_spec(fw);
      for (const nn::Model& m : resolved_models()) {
        const placement::CostModel cost = placement::CostModel::build(
            power, fw.arch.hp_shape(), fw.arch.lp_shape(),
            m.uses_per_weight());
        if (!placement::fits(
                cost, sys::balanced_mram_split(cost, m.effective_params()))) {
          throw std::invalid_argument(
              "FleetSpec: low-power MRAM placement does not fit model '" +
              m.name() + "' (grow mram_kb_per_module or set adapt = false)");
        }
      }
    }
  }
  if (lifecycle.join_fraction < 0.0 || lifecycle.join_fraction > 1.0 ||
      lifecycle.leave_fraction < 0.0 || lifecycle.leave_fraction > 1.0) {
    throw std::invalid_argument(
        "FleetSpec: lifecycle fractions must be in [0, 1]");
  }
  for (const LifecycleOverride& o : lifecycle_overrides) {
    const int leave = o.leave_slice < 0 ? slices : o.leave_slice;
    if (o.id >= static_cast<std::uint32_t>(devices) || o.join_slice < 0 ||
        o.join_slice >= leave || leave > slices) {
      throw std::invalid_argument(
          "FleetSpec: lifecycle override for device " + std::to_string(o.id) +
          " needs 0 <= join < leave <= slices and an in-range id");
    }
  }
  if (latency_slo < Time::zero()) {
    throw std::invalid_argument("FleetSpec: latency_slo must be >= 0");
  }
  for (const SloOverride& o : slo_overrides) {
    if (o.id >= static_cast<std::uint32_t>(devices) ||
        o.latency_slo < Time::zero()) {
      throw std::invalid_argument(
          "FleetSpec: SLO override for device " + std::to_string(o.id) +
          " needs an in-range id and a non-negative latency");
    }
  }
  if (latency_slo > Time::zero() || !slo_overrides.empty()) {
    // The SLO tiers pin Pareto-frontier points, which only the HH-PIM LUT
    // policy carries; fail here, not from the first SLO device constructed.
    for (const sys::SystemConfig& fw : resolved_firmware()) {
      if (fw.arch.kind != sys::ArchKind::kHhpim) {
        throw std::invalid_argument(
            "FleetSpec: latency SLOs need the HH-PIM arch "
            "(frontier points come from the placement LUT)");
      }
    }
  }
  if (charging.period < 0 || charging.window < 0 ||
      charging.window > charging.period ||
      charging.energy_per_slice.as_pj() < 0.0) {
    throw std::invalid_argument(
        "FleetSpec: charging needs 0 <= window <= period and a "
        "non-negative energy per slice");
  }
  if (envelope.enabled) {
    if (!(envelope.min_multiplier >= 0.0) ||
        !(envelope.max_multiplier >= envelope.min_multiplier) ||
        !std::isfinite(envelope.max_multiplier)) {
      throw std::invalid_argument(
          "FleetSpec: envelope needs 0 <= min_multiplier <= max_multiplier "
          "(finite)");
    }
    // Resolve once here so a malformed envelope shape (e.g. an empty
    // trace) throws from validate(), not from the first run.
    (void)envelope_multipliers();
  }
  // Constructor-level validation, surfaced early and once rather than from
  // the first worker thread mid-run.
  (void)energy::Battery{battery};
  (void)AdaptivePolicy{thresholds};
}

std::vector<DeviceSpec> FleetSpec::expand() const {
  validate();
  const std::size_t n_models = resolved_models().size();
  const std::vector<workload::Scenario> shapes = resolved_mix();
  const std::size_t n_firmware = resolved_firmware().size();

  std::vector<DeviceSpec> specs;
  specs.reserve(static_cast<std::size_t>(devices));
  for (int d = 0; d < devices; ++d) {
    // One SplitMix64 stream per device, keyed on (fleet seed, device id):
    // the draws below are independent of every other device's. New draws
    // only ever append to this sequence, and only when their feature is on
    // — a spec without firmware/lifecycle expands byte-identically to
    // pre-lifecycle builds.
    SplitMix64 sm{seed ^ (0xf1ee7u + static_cast<std::uint64_t>(d) *
                                         0x9e3779b97f4a7c15ULL)};
    DeviceSpec s;
    s.id = static_cast<std::uint32_t>(d);
    s.model_index = static_cast<std::size_t>(sm.next() % n_models);
    s.scenario = shapes[sm.next() % shapes.size()];
    s.cfg = workload;
    s.cfg.slices = slices;
    s.cfg.seed = sm.next();
    s.seed = s.cfg.seed;
    s.phase = static_cast<int>(sm.next() % static_cast<std::uint64_t>(slices));
    if (n_firmware > 1) {
      s.firmware_index = static_cast<std::size_t>(sm.next() % n_firmware);
    }
    if (lifecycle.join_fraction > 0.0) {
      const bool joins_late = to_unit(sm.next()) < lifecycle.join_fraction;
      if (joins_late && slices > 1) {
        s.join_slice = 1 + static_cast<int>(
            sm.next() % static_cast<std::uint64_t>(slices - 1));
      }
    }
    if (lifecycle.leave_fraction > 0.0) {
      const bool leaves_early = to_unit(sm.next()) < lifecycle.leave_fraction;
      const int span = slices - s.join_slice;
      if (leaves_early && span > 1) {
        s.leave_slice = s.join_slice + 1 + static_cast<int>(
            sm.next() % static_cast<std::uint64_t>(span - 1));
      }
    }
    specs.push_back(std::move(s));
  }
  for (const LifecycleOverride& o : lifecycle_overrides) {
    specs[o.id].join_slice = o.join_slice;
    specs[o.id].leave_slice = o.leave_slice;
  }
  // SLO assignment is deterministic (no RNG draws): the fleet-wide default,
  // then per-device pins. A spec with neither leaves every latency_slo_ps at
  // 0, so pre-SLO expansions are reproduced byte-identically.
  if (latency_slo > Time::zero()) {
    for (DeviceSpec& s : specs) s.latency_slo_ps = latency_slo.as_ps();
  }
  for (const SloOverride& o : slo_overrides) {
    specs[o.id].latency_slo_ps = o.latency_slo.as_ps();
  }
  for (DeviceSpec& s : specs) {
    if (s.leave_slice < 0 || s.leave_slice > slices) s.leave_slice = slices;
    s.cfg.slices = s.leave_slice - s.join_slice;
  }
  return specs;
}

std::vector<int> device_loads(const DeviceSpec& spec) {
  std::vector<int> loads;
  device_loads_into(spec, loads);
  return loads;
}

void device_loads_into(const DeviceSpec& spec, std::vector<int>& out) {
  workload::generate_into(spec.scenario, spec.cfg, out);
  const auto phase = static_cast<std::size_t>(spec.phase) % out.size();
  std::rotate(out.begin(),
              out.begin() + static_cast<std::vector<int>::difference_type>(phase),
              out.end());
}

void device_loads_into(const DeviceSpec& spec, const std::vector<double>& env,
                       std::vector<int>& out) {
  device_loads_into(spec, out);
  if (env.empty()) return;
  const auto join = static_cast<std::size_t>(spec.join_slice < 0 ? 0 : spec.join_slice);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const double m = env[(join + k) % env.size()];
    out[k] = static_cast<int>(static_cast<double>(out[k]) * m + 0.5);
  }
}

}  // namespace hhpim::fleet
