#include "fleet/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/align.hpp"
#include "common/serialize.hpp"
#include "fleet/outcome_cache.hpp"
#include "hhpim/processor_pool.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim::fleet {

FleetSimulator::FleetSimulator(FleetOptions options) : options_(options) {
  if (options_.shard_size == 0) options_.shard_size = 1;
}

unsigned FleetSimulator::resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned FleetSimulator::resolve_workers(unsigned requested, std::size_t shards) {
  return std::min<unsigned>(resolve_threads(requested),
                            static_cast<unsigned>(std::max<std::size_t>(shards, 1)));
}

std::size_t FleetSimulator::resolve_claim_batch(std::size_t requested,
                                                std::size_t shards,
                                                unsigned workers) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, shards / (static_cast<std::size_t>(workers) * 8));
}

placement::LutCache* FleetSimulator::resolve_lut_cache() const {
  if (!options_.share_luts) return nullptr;
  return options_.lut_cache != nullptr ? options_.lut_cache
                                       : &placement::LutCache::process_cache();
}

OutcomeCache* FleetSimulator::resolve_outcome_cache() const {
  if (!options_.memoize_devices) return nullptr;
  return options_.outcome_cache != nullptr ? options_.outcome_cache
                                           : &OutcomeCache::process_cache();
}

void write_device_line(std::ostream& os, const DeviceResult& r,
                       const std::vector<std::string>& model_names) {
  JsonWriter w{os, JsonWriter::Style::kCompact};
  w.begin_object();
  w.field("device", static_cast<std::uint64_t>(r.id));
  w.field("model", model_names[r.model_index]);
  w.field("scenario", std::string_view{workload::to_string(r.scenario)});
  w.field("seed", r.seed);
  w.field("slice_ps", r.slice_ps);
  w.field("slices_total", r.slices_total);
  w.field("slices_executed", r.slices_executed);
  w.field("tasks", r.tasks);
  w.field("tasks_dropped", r.tasks_dropped);
  w.field("deadline_violations", r.deadline_violations);
  w.field("energy_pj", r.energy_pj);
  w.field("battery_capacity_pj", r.battery_capacity_pj);
  w.field("final_soc", r.final_soc);
  w.field("exhausted_at_slice", r.exhausted_at_slice);
  w.field("mode_switches", static_cast<std::uint64_t>(r.mode_switches));
  w.field("low_power_slices", r.low_power_slices);
  w.field("busy_time_ps", r.busy_time_ps);
  w.field("max_busy_ps", r.max_busy_ps);
  w.field("movement_time_ps", r.movement_time_ps);
  if (r.host_cycles > 0) {
    // Appended only when the firmware co-simulates the RISC-V host, so
    // host-off fleets keep the pre-host line layout byte for byte
    // (pinned by tests/test_host_loop.cpp).
    w.field("host_cycles", r.host_cycles);
  }
  if (r.latency_slo_ps > 0) {
    // Appended only for SLO devices so no-SLO fleets keep the pre-SLO line
    // layout byte for byte (pinned by tests/test_fleet.cpp).
    w.field("latency_slo_ps", r.latency_slo_ps);
    w.field("tier_switches", static_cast<std::uint64_t>(r.tier_switches));
  }
  w.end_object();
  os << '\n';
}

void FleetResult::write_jsonl(std::ostream& os) const {
  for (const DeviceResult& r : devices) write_device_line(os, r, model_names);
}

std::string FleetResult::to_jsonl() const {
  std::ostringstream os;
  write_jsonl(os);
  return os.str();
}

namespace {

void write_summary_stats(JsonWriter& w, const sim::Summary& s) {
  w.begin_object();
  w.field("count", s.count());
  w.field("mean", s.mean());
  w.field("min", s.min());
  w.field("max", s.max());
  w.field("stddev", s.stddev());
  w.end_object();
}

/// The busy-time summary, kept in picoseconds and written in microseconds
/// (Time::as_us's scale). Mean and stddev are derived here, at write time.
void write_busy_us(JsonWriter& w, const sim::ExactSummary& s) {
  constexpr double kUsPerPs = 1e-6;
  w.begin_object();
  w.field("count", s.count());
  w.field("mean", s.mean() * kUsPerPs);
  w.field("min", static_cast<double>(s.min()) * kUsPerPs);
  w.field("max", static_cast<double>(s.max()) * kUsPerPs);
  w.field("stddev", s.stddev() * kUsPerPs);
  w.end_object();
}

void write_quantiles(JsonWriter& w, const sim::Histogram& h) {
  w.begin_object();
  w.field("p50", h.quantile(0.50));
  w.field("p95", h.quantile(0.95));
  w.field("p99", h.quantile(0.99));
  w.field("samples", h.total());
  w.field("overflow", h.overflow());
  w.end_object();
}

}  // namespace

void FleetResult::write_summary_json(std::ostream& os) const {
  JsonWriter w{os};
  w.begin_object();
  w.field("fleet", fleet_name);
  w.field("devices", aggregate.devices);
  w.field("shards", static_cast<std::uint64_t>(shard_count));
  w.field("shard_size", static_cast<std::uint64_t>(shard_size));
  w.field("executed_slices", aggregate.executed_slices);
  w.field("tasks", aggregate.tasks);
  w.field("tasks_dropped", aggregate.tasks_dropped);
  w.field("deadline_violations", aggregate.deadline_violations);
  w.field("exhausted_devices", aggregate.exhausted_devices);
  w.field("mode_switches", aggregate.mode_switches);
  w.field("low_power_slices", aggregate.low_power_slices);
  if (aggregate.host_cycles > 0) {
    // Host-off fleets keep the pre-host summary layout byte for byte.
    w.field("host_cycles", aggregate.host_cycles);
  }
  w.field("lut_builds", lut_builds);
  w.field("lut_shared", lut_shared);
  w.key("device_energy_mj");
  write_summary_stats(w, aggregate.device_energy_mj);
  w.key("final_soc");
  write_summary_stats(w, aggregate.final_soc);
  w.key("busy_us");
  write_busy_us(w, aggregate.slices.busy_ps);
  w.key("busy_frac");
  write_quantiles(w, aggregate.busy_frac_hist());
  w.key("slice_energy_mj");
  write_quantiles(w, aggregate.slice_energy_hist());
  w.end_object();
  os << '\n';
}

std::string FleetResult::summary_to_json() const {
  std::ostringstream os;
  write_summary_json(os);
  return os.str();
}

namespace {

std::string shard_path(const std::string& dir, std::size_t shard) {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%05zu.jsonl", shard);
  return dir + "/" + name;
}

/// The LUT-cache key a Processor built from (cfg, model) resolves through —
/// mirrors the kHhpim branch of the Processor constructor, without
/// constructing one. Only meaningful for an HH-PIM arch.
placement::LutCacheKey device_lut_key(const sys::SystemConfig& cfg,
                                      const nn::Model& model) {
  const placement::CostModel cost = placement::CostModel::build(
      sys::resolved_power_spec(cfg), cfg.arch.hp_shape(), cfg.arch.lp_shape(),
      model.uses_per_weight());
  placement::LutParams lp;
  lp.slice = sys::derived_slice_length(cfg, model);
  lp.total_weights = model.effective_params();
  lp.t_entries = cfg.lut_t_entries;
  lp.k_blocks = cfg.lut_k_blocks;
  return placement::LutCacheKey::make(model.topology_hash(),
                                      cfg.arch.config_hash(), cost, lp);
}

/// The summary's LUT economy, a function of the spec alone: `lut_builds` is
/// the number of distinct LUT-cache keys over the HH-PIM (firmware, model)
/// pairs the devices use — what a cold cache builds, once per key, at any
/// thread count — and `lut_shared` the HH-PIM devices that ran on a build
/// some other device made. Static-arch devices never touch the cache. A
/// warm cache, a segment boundary or a process restart changes neither.
void count_lut_builds(const std::vector<DeviceSpec>& devices,
                      const std::vector<nn::Model>& models,
                      const std::vector<sys::SystemConfig>& firmwares,
                      FleetResult& out) {
  const std::size_t n_models = models.size();
  std::vector<char> used(firmwares.size() * n_models, 0);
  std::uint64_t hhpim_devices = 0;
  for (const DeviceSpec& ds : devices) {
    if (firmwares[ds.firmware_index].arch.kind != sys::ArchKind::kHhpim) continue;
    ++hhpim_devices;
    used[ds.firmware_index * n_models + ds.model_index] = 1;
  }
  std::vector<placement::LutCacheKey> keys;
  for (std::size_t pair = 0; pair < used.size(); ++pair) {
    if (used[pair] == 0) continue;
    const placement::LutCacheKey key =
        device_lut_key(firmwares[pair / n_models], models[pair % n_models]);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
  }
  out.lut_builds = keys.size();
  out.lut_shared = hhpim_devices - keys.size();
}

}  // namespace

FleetResult FleetSimulator::run(const FleetSpec& spec) const {
  FleetResult result;
  (void)run_segment(spec, spec.slices, nullptr, &result);
  return result;
}

FleetSnapshot FleetSimulator::run_to(const FleetSpec& spec, int end_slice,
                                     const FleetSnapshot* from) const {
  const int start = from != nullptr ? from->next_slice : 0;
  if (end_slice <= start || end_slice > spec.slices) {
    throw std::invalid_argument(
        "FleetSimulator::run_to: end_slice must lie in (" +
        std::to_string(start) + ", " + std::to_string(spec.slices) + "]");
  }
  return run_segment(spec, end_slice, from, nullptr);
}

FleetResult FleetSimulator::resume(const FleetSpec& spec,
                                   const FleetSnapshot& from) const {
  FleetResult result;
  (void)run_segment(spec, spec.slices, &from, &result);
  return result;
}

FleetSnapshot FleetSimulator::run_segment(const FleetSpec& spec, int end_slice,
                                          const FleetSnapshot* from,
                                          FleetResult* final_out) const {
  const bool final_segment = final_out != nullptr;
  const std::vector<DeviceSpec> device_specs = spec.expand();
  const std::vector<nn::Model> models = spec.resolved_models();
  const std::vector<sys::SystemConfig> firmwares = spec.resolved_firmware();
  const std::size_t n_models = models.size();
  // The global load envelope, resolved once and shared read-only by every
  // worker (empty = no envelope).
  const std::vector<double> env = spec.envelope_multipliers();
  placement::LutCache* const cache = resolve_lut_cache();
  // The memo lanes run devices that start and finish inside this call. A
  // bounded segment stops devices mid-stream, which a lane cannot park at,
  // so it runs the exact path throughout.
  OutcomeCache* const memo = final_segment ? resolve_outcome_cache() : nullptr;
  const std::size_t n = device_specs.size();
  const std::uint64_t digest =
      from != nullptr || !final_segment ? spec.content_digest() : 0;

  if (from != nullptr) {
    if (from->spec_digest != digest) {
      throw std::runtime_error(
          "snapshot: spec mismatch — the snapshot's content digest differs "
          "from this FleetSpec's (models, firmware, workload, lifecycle, "
          "battery, envelope or seed changed between segments)");
    }
    if (from->devices.size() != n) {
      throw std::runtime_error("snapshot: device count mismatch");
    }
    if (from->next_slice > spec.slices) {
      throw std::runtime_error("snapshot: next_slice beyond the fleet horizon");
    }
  }

  // A bounded segment advances a copy of `from`'s progress (or fresh
  // progress) into the snapshot it returns. The final segment reads `from`
  // in place and, with no snapshot to read (run()), keeps no per-device
  // progress at all.
  FleetSnapshot snap;
  if (!final_segment) {
    snap.spec_digest = digest;
    snap.next_slice = end_slice;
    if (from != nullptr) {
      snap.devices = from->devices;
      snap.slices = from->slices;
    } else {
      snap.devices.resize(n);
      snap.slices = SliceAggregate{spec.histograms};
    }
  }
  // Starts its stream in this call: no earlier segment touched it.
  const auto fresh = [from](std::size_t i) {
    return from == nullptr || !from->devices[i].started;
  };

  const std::size_t shard_size = options_.shard_size;
  const std::size_t shards = n == 0 ? 0 : (n + shard_size - 1) / shard_size;

  if (final_segment) {
    *final_out = FleetResult{.fleet_name = spec.name,
                             .devices = {},
                             .model_names = {},
                             .aggregate = FleetAggregate{spec.histograms},
                             .shard_count = shards,
                             .shard_size = shard_size};
    final_out->model_names.reserve(models.size());
    for (const nn::Model& m : models) final_out->model_names.push_back(m.name());
    if (options_.keep_results) final_out->devices.resize(n);
    // The slices earlier segments executed, already folded.
    if (from != nullptr) final_out->aggregate.slices.merge(from->slices);
  }

  // One slot per shard, each on its own cache line: a worker finishing
  // shard s move-assigns into slot s while a sibling fills s±1 — without
  // the alignment those writes would false-share a line.
  struct alignas(kCacheLine) ShardSlot {
    FleetAggregate agg;
  };
  std::vector<ShardSlot> shard_aggs(shards, ShardSlot{FleetAggregate{spec.histograms}});

  // Per (firmware, model) pair — flattened as firmware * n_models + model,
  // which fully determines a device's processor — its SystemConfig and its
  // processor_reuse_key.
  const std::size_t n_pairs = firmwares.size() * n_models;
  std::vector<sys::SystemConfig> fw_cfgs = firmwares;
  for (sys::SystemConfig& c : fw_cfgs) c.lut_cache = cache;
  std::vector<std::uint64_t> reuse_keys(n_pairs);
  for (std::size_t pair = 0; pair < n_pairs; ++pair) {
    reuse_keys[pair] = sys::processor_reuse_key(fw_cfgs[pair / n_models],
                                                models[pair % n_models]);
  }
  const auto pair_of = [n_models](const DeviceSpec& ds) {
    return ds.firmware_index * n_models + ds.model_index;
  };
  // Processors come from one checkout pool shared by every worker
  // (reuse_processors), so the number constructed is bounded by the peak
  // per-key overlap, not by workers × pairs.
  sys::ProcessorPool pool;
  const bool reuse = options_.reuse_processors;

  // Per-pair constants of the memo lanes, computed once up front. Only
  // pairs some lane device uses get a processor built here — an unused
  // pair's would cost a LUT build for nothing.
  struct PairMemoInfo {
    std::uint64_t init_state = 0;  ///< state_digest() of a fresh processor
    std::int64_t slice_ps = 0;     ///< slice length T
  };
  std::vector<PairMemoInfo> memo_info(memo != nullptr ? n_pairs : 0);
  if (memo != nullptr) {
    std::vector<char> used(n_pairs, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (fresh(i)) used[pair_of(device_specs[i])] = 1;
    }
    for (std::size_t pair = 0; pair < n_pairs; ++pair) {
      if (used[pair] == 0) continue;
      const sys::ProcessorPool::Lease lease = pool.checkout(
          reuse_keys[pair], fw_cfgs[pair / n_models], models[pair % n_models]);
      PairMemoInfo& info = memo_info[pair];
      info.init_state = lease.get().state_digest();
      info.slice_ps = lease.get().slice_length().as_ps();
    }
  }

  // Battery constants shared by every device (the fleet has one
  // BatteryConfig): replay lanes mirror energy::Battery on these raw pJ
  // doubles. spec.expand() already validated the config.
  const double capacity_pj =
      memo != nullptr ? energy::Battery{spec.battery}.capacity().as_pj() : 0.0;
  const double initial_charge_pj =
      memo != nullptr ? energy::Battery{spec.battery}.charge().as_pj() : 0.0;
  const auto k_dynamic = static_cast<std::uint8_t>(DeviceMode::kDynamic);
  const auto k_low_power = static_cast<std::uint8_t>(DeviceMode::kLowPower);
  const bool charging_on = spec.charging.period > 0 && spec.charging.window > 0;
  const double charge_step_pj = spec.charging.energy_per_slice.as_pj();

  // Per-worker scratch, reused across its shards (assign() keeps capacity).
  // The SoA arrays are the hot state of one shard's replay lanes: a memo-hit
  // device advances entirely inside them — no Processor, no Battery, no
  // per-device allocation — and folds each slice into the shard aggregate
  // on the spot (the slice half of FleetAggregate is order-free).
  struct WorkerScratch {
    std::vector<int> exact_loads;          ///< exact-path trace buffer
    std::vector<std::vector<int>> loads;   ///< per-lane trace, buffers reused
    std::vector<std::int32_t> steps;       ///< per-device stream length
    std::vector<std::int32_t> join;        ///< global slice of local step 0
    std::vector<std::uint8_t> drain;       ///< runs the trailing drain slice?
    std::vector<std::uint8_t> replay;      ///< lane still on the memo path?
    std::vector<std::int32_t> posted;      ///< steps folded before parking
    std::vector<double> charge_pj;         ///< Battery::charge mirror
    std::vector<std::uint8_t> mode;        ///< DeviceMode
    std::vector<std::uint32_t> switches;   ///< AdaptivePolicy::switches mirror
    std::vector<std::uint8_t> tier;        ///< applied FrontierTier (255 = none)
    std::vector<std::uint32_t> tier_switches;  ///< Device tier_switches mirror
    std::vector<std::uint64_t> state;      ///< current processor-state digest
    std::vector<std::int32_t> buffered;    ///< arrivals awaiting execution
    std::vector<double> energy_pj;
    std::vector<std::int64_t> busy_ps;
    std::vector<std::int64_t> max_busy_ps;
    std::vector<std::int64_t> movement_ps;
    std::vector<std::uint64_t> host_cycles;
    std::vector<std::uint64_t> tasks;
    std::vector<std::uint64_t> deadline_violations;
    std::vector<std::int32_t> low_power;
    OutcomeRecorder recorder;
    /// The shard's recorded outcomes, published in ONE insert at
    /// shard end: all of a shard's lookups happen in phase 1, before any
    /// phase-2 device records, so batching per shard has the same hit
    /// behavior as per-device inserts at a fraction of the copy-on-write
    /// churn (one snapshot copy per shard with news, not one per device).
    std::vector<std::pair<SliceOutcomeKey, SliceOutcome>> pending;
  };
  // The run's own memo counts, summed per shard: another run sharing the
  // cache never shows up in them.
  std::atomic<std::uint64_t> memo_replayed{0};
  std::atomic<std::uint64_t> memo_exact{0};
  std::atomic<std::uint64_t> memo_hits{0};
  std::atomic<std::uint64_t> memo_misses{0};
  const bool stream = final_segment && !options_.shard_dir.empty();

  auto run_shard = [&](std::size_t s, WorkerScratch& scratch) {
    const std::size_t begin = s * shard_size;
    const std::size_t end = std::min(n, begin + shard_size);
    const std::size_t count = end - begin;
    FleetAggregate agg{spec.histograms};
    // The shard file's bytes, formatted as devices finish (in id order).
    std::ostringstream lines;

    // The shard's current lease: held across consecutive devices of the
    // same reuse key, swapped on a key change, returned at shard end.
    sys::ProcessorPool::Lease held;

    auto emit = [&](std::size_t i, DeviceResult r) {
      if (stream) write_device_line(lines, r, final_out->model_names);
      if (options_.keep_results) final_out->devices[i] = std::move(r);
    };

    std::uint64_t shard_hits = 0;
    std::uint64_t shard_misses = 0;
    if (memo != nullptr) {
      const auto total_slices = static_cast<std::size_t>(spec.slices) + 1;

      if (scratch.loads.size() < count) scratch.loads.resize(count);
      scratch.steps.resize(count);
      scratch.join.resize(count);
      scratch.drain.resize(count);
      scratch.replay.resize(count);
      scratch.posted.assign(count, 0);
      scratch.charge_pj.assign(count, initial_charge_pj);
      scratch.mode.assign(count, k_dynamic);
      scratch.switches.assign(count, 0);
      scratch.tier.assign(count, 255);
      scratch.tier_switches.assign(count, 0);
      scratch.state.resize(count);
      scratch.buffered.assign(count, 0);
      scratch.energy_pj.assign(count, 0.0);
      scratch.busy_ps.assign(count, 0);
      scratch.max_busy_ps.assign(count, 0);
      scratch.movement_ps.assign(count, 0);
      scratch.host_cycles.assign(count, 0);
      scratch.tasks.assign(count, 0);
      scratch.deadline_violations.assign(count, 0);
      scratch.low_power.assign(count, 0);
      for (std::size_t i = 0; i < count; ++i) {
        // Devices an earlier segment started never enter a lane.
        scratch.replay[i] = fresh(begin + i) ? 1 : 0;
        if (scratch.replay[i] == 0) continue;
        const DeviceSpec& ds = device_specs[begin + i];
        device_loads_into(ds, env, scratch.loads[i]);
        scratch.state[i] = memo_info[pair_of(ds)].init_state;
        // Lifecycle window (mirrors Device::has_drain/total_steps): a
        // horizon device runs its arrivals plus the drain slice; an early
        // leaver runs arrivals only and drops its final buffer.
        const bool has_drain = ds.leave_slice < 0 || ds.leave_slice >= spec.slices;
        scratch.drain[i] = has_drain ? 1 : 0;
        scratch.join[i] = ds.join_slice;
        scratch.steps[i] =
            static_cast<std::int32_t>(scratch.loads[i].size()) + (has_drain ? 1 : 0);
      }

      // Phase 1 — slice-major lane advance. Each lane mirrors exactly what
      // Device::run_steps does around run_slice: hysteresis on the
      // pre-drain SoC, then the battery clamp on the outcome's *requested*
      // energy. A cold key or a clamped drain (exhaustion boundary) parks
      // the lane at step k for the exact path: its partial lane state is
      // discarded, but the k slices it already folded into `agg` stay, and
      // the exact path runs those k steps without posting them again.
      for (std::size_t k = 0; k < total_slices; ++k) {
        for (std::size_t i = 0; i < count; ++i) {
          if (scratch.replay[i] == 0) continue;
          if (static_cast<std::int32_t>(k) >= scratch.steps[i]) continue;
          const DeviceSpec& ds = device_specs[begin + i];
          if (charging_on) {
            // Mirrors Battery::recharge on raw pJ doubles, before the
            // policy observes the SoC (same order as Device::run_steps).
            const int g = scratch.join[i] + static_cast<int>(k);
            if (g % spec.charging.period < spec.charging.window) {
              scratch.charge_pj[i] += charge_step_pj;
              if (scratch.charge_pj[i] > capacity_pj) {
                scratch.charge_pj[i] = capacity_pj;
              }
            }
          }
          std::uint8_t slice_tier = 0;
          if (spec.adapt) {
            const double soc = scratch.charge_pj[i] / capacity_pj;
            if (scratch.mode[i] == k_dynamic && soc <= spec.thresholds.low_soc) {
              scratch.mode[i] = k_low_power;
              ++scratch.switches[i];
            } else if (scratch.mode[i] == k_low_power &&
                       soc >= spec.thresholds.high_soc) {
              scratch.mode[i] = k_dynamic;
              ++scratch.switches[i];
            }
            if (ds.latency_slo_ps > 0) {
              // Mirror of the Device's frontier pick — the same pure
              // select_tier on the same (mode, SoC) the hysteresis just saw.
              slice_tier = static_cast<std::uint8_t>(
                  select_tier(static_cast<DeviceMode>(scratch.mode[i]), soc,
                              spec.thresholds));
            }
          }
          if (ds.latency_slo_ps > 0 && slice_tier != scratch.tier[i]) {
            if (scratch.tier[i] != 255) ++scratch.tier_switches[i];
            scratch.tier[i] = slice_tier;
          }
          const SliceOutcome* out = memo->find(
              SliceOutcomeKey{reuse_keys[pair_of(ds)], scratch.state[i],
                              ds.latency_slo_ps,
                              static_cast<std::uint32_t>(scratch.buffered[i]),
                              scratch.mode[i], slice_tier});
          if (out == nullptr) {
            ++shard_misses;
            scratch.replay[i] = 0;  // cold key -> exact path
            scratch.posted[i] = static_cast<std::int32_t>(k);
            continue;
          }
          ++shard_hits;
          const double requested = out->energy_pj;
          const double drained =
              requested < scratch.charge_pj[i] ? requested : scratch.charge_pj[i];
          if (drained < requested) {
            scratch.replay[i] = 0;  // exhaustion boundary -> exact path
            scratch.posted[i] = static_cast<std::int32_t>(k);
            continue;
          }
          scratch.charge_pj[i] -= drained;
          scratch.tasks[i] += static_cast<std::uint64_t>(scratch.buffered[i]);
          scratch.deadline_violations[i] += out->deadline_violated ? 1 : 0;
          scratch.energy_pj[i] += drained;
          scratch.busy_ps[i] += out->busy_ps;
          scratch.max_busy_ps[i] = std::max(scratch.max_busy_ps[i], out->busy_ps);
          scratch.movement_ps[i] += out->movement_ps;
          scratch.host_cycles[i] += out->host_cycles;
          if (scratch.mode[i] == k_low_power) ++scratch.low_power[i];
          agg.slices.add(out->busy_ps, memo_info[pair_of(ds)].slice_ps,
                         out->energy_pj);
          scratch.state[i] = out->post_state;
          scratch.buffered[i] =
              k < scratch.loads[i].size() ? scratch.loads[i][k] : 0;
        }
      }
      scratch.pending.clear();
    }

    // Phase 2 — the device loop, in device order: one add_device per
    // finished device, the order the device Summaries depend on. Slices
    // fold into `agg` wherever they run.
    std::uint64_t shard_replayed = 0;
    std::uint64_t shard_exact = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const DeviceSpec& ds = device_specs[i];
      const std::size_t lane = i - begin;
      const DeviceProgress* const prev = from != nullptr ? &from->devices[i] : nullptr;
      if (prev != nullptr && prev->done) {
        // Finished in an earlier segment (its slices are in
        // from->slices): the final segment adds and emits its stored
        // result at its ordinal position; a bounded one carries it over
        // untouched.
        if (final_segment) {
          agg.add_device(prev->result);
          emit(i, prev->result);
        }
        continue;
      }
      if (!final_segment && ds.join_slice >= end_slice) continue;  // not joined yet
      const bool resumed = !fresh(i);

      if (memo != nullptr && scratch.replay[lane] != 0) {
        // Replayed lane: materialize its DeviceResult from the lane state.
        DeviceResult r;
        r.id = ds.id;
        r.model_index = static_cast<std::uint32_t>(ds.model_index);
        r.scenario = ds.scenario;
        r.seed = ds.seed;
        r.slice_ps = memo_info[pair_of(ds)].slice_ps;
        r.slices_total = scratch.steps[lane];
        r.slices_executed = scratch.steps[lane];
        r.tasks = scratch.tasks[lane];
        // Replayed devices never exhaust; an early leaver still drops its
        // final buffer (no drain slice runs it).
        r.tasks_dropped = scratch.drain[lane] != 0
                              ? 0
                              : static_cast<std::uint64_t>(scratch.buffered[lane]);
        r.deadline_violations = scratch.deadline_violations[lane];
        r.energy_pj = scratch.energy_pj[lane];
        r.battery_capacity_pj = capacity_pj;
        r.final_soc = scratch.charge_pj[lane] / capacity_pj;
        r.exhausted_at_slice = -1;
        r.mode_switches = scratch.switches[lane];
        r.low_power_slices = scratch.low_power[lane];
        r.busy_time_ps = scratch.busy_ps[lane];
        r.max_busy_ps = scratch.max_busy_ps[lane];
        r.movement_time_ps = scratch.movement_ps[lane];
        r.host_cycles = scratch.host_cycles[lane];
        r.latency_slo_ps = ds.latency_slo_ps;
        r.tier_switches = scratch.tier_switches[lane];
        agg.add_device(r);
        ++shard_replayed;
        emit(i, std::move(r));
        continue;
      }

      // The exact path, on a pooled (reset) or a private processor.
      std::vector<int>* loads = &scratch.exact_loads;
      if (memo != nullptr && !resumed) {
        loads = &scratch.loads[lane];  // a parked lane already has its trace
      } else {
        device_loads_into(ds, env, scratch.exact_loads);
      }
      const std::size_t pair = pair_of(ds);
      std::optional<sys::Processor> owned;
      sys::Processor* proc = nullptr;
      if (reuse) {
        if (held.held() && held.key() == reuse_keys[pair]) {
          held.get().reset();
        } else {
          held = pool.checkout(reuse_keys[pair], fw_cfgs[ds.firmware_index],
                               models[ds.model_index]);
        }
        proc = &held.get();
      } else {
        proc = &owned.emplace(fw_cfgs[ds.firmware_index], models[ds.model_index]);
      }
      Device dev{spec, ds, models[ds.model_index], *proc};

      if (!final_segment) {
        // Bounded segment: run up to end_slice, folding its slices into the
        // shard aggregate, and capture what the next segment resumes.
        DeviceProgress& p = snap.devices[i];
        if (resumed) {
          dev.restore_progress(p);
        } else {
          dev.start_progress(p, *loads);
        }
        if (dev.run_steps(p, *loads, end_slice - ds.join_slice, &agg, nullptr)) {
          p.proc_state.clear();  // finished devices carry no processor blob
        } else {
          dev.capture_progress(p);
        }
        continue;
      }

      // Final segment: run the rest of the stream live. A fresh device on
      // the memo path records its outcomes for every device after it.
      DeviceProgress p;
      OutcomeRecorder* recorder = nullptr;
      if (resumed) {
        dev.restore_progress(*prev);
        p.result = prev->result;
        p.next_k = prev->next_k;
        p.buffered = prev->buffered;
      } else {
        dev.start_progress(p, *loads);
        if (memo != nullptr) {
          recorder = &scratch.recorder;
          recorder->reuse_key = reuse_keys[pair];
          recorder->recorded.clear();
          // The lane folded its first `posted` slices in phase 1; by memo
          // soundness these steps repeat them bit for bit, so they run
          // without posting.
          if (scratch.posted[lane] > 0) {
            (void)dev.run_steps(p, *loads, scratch.posted[lane], nullptr, recorder);
          }
        }
      }
      (void)dev.run_steps(p, *loads, dev.total_steps(*loads), &agg, recorder);
      agg.add_device(p.result);
      if (recorder != nullptr) {
        scratch.pending.insert(scratch.pending.end(), recorder->recorded.begin(),
                               recorder->recorded.end());
      }
      ++shard_exact;
      emit(i, std::move(p.result));
    }

    if (stream) {
      // The shard was formatted into a private buffer; the file is written
      // in one call, so no handoff ever blocks a sibling worker.
      const std::string path = shard_path(options_.shard_dir, s);
      std::ofstream out(path, std::ios::binary);
      if (!out) throw std::runtime_error("fleet: cannot open " + path);
      const std::string bytes = lines.str();
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      if (!out) throw std::runtime_error("fleet: write failed for " + path);
    }
    if (memo != nullptr) {
      memo->insert(scratch.pending);
      memo_replayed.fetch_add(shard_replayed, std::memory_order_relaxed);
      memo_exact.fetch_add(shard_exact, std::memory_order_relaxed);
      memo_hits.fetch_add(shard_hits, std::memory_order_relaxed);
      memo_misses.fetch_add(shard_misses, std::memory_order_relaxed);
    }
    shard_aggs[s].agg = std::move(agg);
  };

  const unsigned workers = resolve_workers(options_.threads, shards);
  const std::size_t batch =
      resolve_claim_batch(options_.claim_batch, shards, workers);
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::atomic<std::size_t> next{0};

  auto worker = [&] {
    WorkerScratch scratch;  // per-worker; buffers reused across shards
    for (;;) {
      const std::size_t base = next.fetch_add(batch, std::memory_order_relaxed);
      if (base >= shards) return;
      const std::size_t limit = std::min(shards, base + batch);
      for (std::size_t s = base; s < limit; ++s) {
        try {
          run_shard(s, scratch);
        } catch (...) {
          const std::lock_guard<std::mutex> lock{error_mutex};
          if (!first_error) first_error = std::current_exception();
        }
      }
    }
  };

  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  if (!final_segment) {
    for (const ShardSlot& slot : shard_aggs) snap.slices.merge(slot.agg.slices);
    return snap;
  }

  // Merge in shard-index order: the device Summaries are order-sensitive in
  // the last floating-point bit, so a fixed order keeps output
  // byte-identical at any thread count.
  for (const ShardSlot& slot : shard_aggs) final_out->aggregate.merge(slot.agg);
  if (cache != nullptr) count_lut_builds(device_specs, models, firmwares, *final_out);
  if (memo != nullptr) {
    final_out->memo_replayed_devices = memo_replayed.load(std::memory_order_relaxed);
    final_out->memo_exact_devices = memo_exact.load(std::memory_order_relaxed);
    final_out->memo_hits = memo_hits.load(std::memory_order_relaxed);
    final_out->memo_misses = memo_misses.load(std::memory_order_relaxed);
  }
  return snap;
}

}  // namespace hhpim::fleet
