#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "fleet/device.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace {

using namespace hhpim;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kCliSeed = 0x5eed2025;      // the CLIs' default --seed
constexpr std::uint64_t kEnvelopeSeed = 0xd1a2025;  // fleet_sim's --envelope-seed
constexpr unsigned kCliWorkers = 2;
constexpr int kWeekSlices = 672;
constexpr int kWeekDevices = 20000;
constexpr int kWeekCkptDevices = 3000;
constexpr int kCkptEvery = 96;

/// The seed offset round `index` of workload seed `seed` runs with.
std::uint64_t round_seed(std::uint64_t seed, int index) {
  return seed * static_cast<std::uint64_t>(kMaxRounds) + static_cast<std::uint64_t>(index);
}

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Writes `path` the way the CLIs do: an ofstream, closed (flushed) before
/// returning, so the span ends after the last byte is written.
void write_file(const std::string& path, const std::function<void(std::ostream&)>& writer) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  writer(out);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// One (config, model) pair whose processor owns a placement LUT.
struct LutKey {
  sys::SystemConfig config;  ///< lut_cache already pointing at the invocation's cache
  const nn::Model* model = nullptr;
};

/// Distinct HH-PIM (config, model) pairs, deduplicated by reuse key.
void add_lut_key(std::vector<LutKey>& keys, std::set<std::uint64_t>& seen,
                 const sys::SystemConfig& config, const nn::Model& model) {
  if (config.arch.kind != sys::ArchKind::kHhpim) return;
  if (seen.insert(sys::processor_reuse_key(config, model)).second) {
    keys.push_back({config, &model});
  }
}

/// The cold LUT builds of an invocation (bench/bench_fleet.cpp's
/// `lut_warm_ms` idiom): one Processor per distinct (config, model) against
/// the invocation's fresh cache, which the run then reuses.
void build_luts(const std::vector<LutKey>& keys, Tracer& tracer, RoundResult& rr) {
  for (const LutKey& k : keys) {
    const Scope span{tracer, "placement.lut_build"};
    const sys::Processor proc{k.config, *k.model};
    rr.counts["placement.lut_builds"] += 1;
    if (const placement::AllocationLut* lut = proc.lut()) {
      for (const placement::LutEntry& e : lut->entries()) {
        if (!e.feasible) continue;
        rr.counts["placement.lut_feasible_entries"] += 1;
        rr.counts["placement.frontier_points"] += static_cast<double>(e.frontier.size());
      }
    }
  }
}

void add_cache_stats(const placement::LutCache& cache, RoundResult& rr) {
  const placement::LutCache::Stats s = cache.stats();
  rr.counts["placement.lut_cache_hits"] += static_cast<double>(s.hits);
  rr.counts["placement.lut_cache_misses"] += static_cast<double>(s.misses);
}

/// Opens an invocation: its span and its start time.
struct Invocation {
  Invocation(Tracer& t, const std::string& name, RoundResult& r)
      : tracer(t), rr(r), id(t.begin(name)), t0(Clock::now()) {
    if (id >= 0) rr.roots.push_back(id);
  }
  void setup_done() { t_setup = Clock::now(); }
  /// Closes the invocation after its last output byte.
  void done() {
    const Clock::time_point t_end = Clock::now();
    tracer.end(id);
    rr.wall_s += seconds(t0, t_end);
    rr.setup_s += seconds(t0, t_setup);
    rr.invocations += 1;
  }

  Tracer& tracer;
  RoundResult& rr;
  int id;
  Clock::time_point t0;
  Clock::time_point t_setup;
};

// --- fleet ------------------------------------------------------------------

/// fleet_sim's defaults (examples/fleet_sim.cpp) with the workload seed.
fleet::FleetSpec fleet_sim_spec(std::uint64_t seed) {
  fleet::FleetSpec spec;
  spec.name = "fleet-sim";
  spec.devices = 1000;
  spec.slices = 20;
  spec.seed = kCliSeed + seed;
  spec.battery.capacity = Energy::mj(250.0);
  spec.battery.initial_soc = 1.0;
  spec.thresholds.low_soc = 0.3;
  spec.thresholds.high_soc = 0.5;
  spec.config.lut_t_entries = 96;
  spec.config.lut_k_blocks = 96;
  return spec;
}

/// The CI week smoke (.github/workflows/ci.yml) at LUT 96: charging
/// windows, a diurnal envelope and churn. The seed draws the devices; the
/// envelope keeps fleet_sim's default seed, because it scales every
/// device's load at once and would make the amount of work per week a
/// property of the seed.
fleet::FleetSpec week_spec(std::uint64_t seed, int devices) {
  fleet::FleetSpec spec = fleet_sim_spec(seed);
  spec.devices = devices;
  spec.slices = kWeekSlices;
  spec.battery.capacity = Energy::mj(2000.0);
  spec.charging.period = 96;
  spec.charging.window = 24;
  spec.charging.energy_per_slice = Energy::mj(40.0);
  spec.envelope.enabled = true;
  spec.envelope.shape = workload::Scenario::kPulsing;
  spec.envelope.min_multiplier = 0.5;
  spec.envelope.max_multiplier = 1.5;
  spec.envelope.seed = kEnvelopeSeed;
  spec.lifecycle.join_fraction = 0.2;
  spec.lifecycle.leave_fraction = 0.2;
  return spec;
}

/// A fleet's distinct LUT keys against `cache`. `models` must be the
/// spec's resolved_models() and outlive the keys.
std::vector<LutKey> fleet_lut_keys(const fleet::FleetSpec& spec,
                                   const std::vector<nn::Model>& models,
                                   placement::LutCache& cache) {
  const sys::SystemConfig cfg = fleet::Device::device_config(spec, &cache);
  std::vector<LutKey> keys;
  std::set<std::uint64_t> seen;
  for (const nn::Model& m : models) add_lut_key(keys, seen, cfg, m);
  return keys;
}

fleet::FleetOptions fleet_options(unsigned threads, bool memo) {
  fleet::FleetOptions opts;
  opts.threads = threads;
  opts.memoize_devices = memo;
  return opts;
}

/// Where a fleet invocation writes. Fixed per output directory: rounds run
/// in child processes, and the checks read the last round's files.
struct FleetOutputs {
  std::string jsonl;
  std::string summary;
};
FleetOutputs fleet_outputs(const std::string& dir) {
  return {dir + "/fleet.jsonl", dir + "/fleet-summary.json"};
}

/// One fleet_sim invocation: spec, cold LUT builds, run (one-shot or
/// segmented through snapshot files), JSONL and summary written.
void fleet_invocation(const std::function<fleet::FleetSpec()>& make_spec, unsigned threads,
                      int checkpoint_every, const std::string& dir, Tracer& tracer,
                      RoundResult& rr) {
  const FleetOutputs out = fleet_outputs(dir);
  Invocation inv{tracer, "invocation.fleet_sim", rr};
  {
    fleet::FleetSpec spec;
    std::vector<nn::Model> models;
    {
      const Scope span{tracer, "setup.spec"};
      spec = make_spec();
      models = spec.resolved_models();
    }
    placement::LutCache lut_cache;
    fleet::OutcomeCache outcome_cache;
    fleet::FleetOptions opts = fleet_options(threads, true);
    opts.lut_cache = &lut_cache;
    opts.outcome_cache = &outcome_cache;
    build_luts(fleet_lut_keys(spec, models, lut_cache), tracer, rr);
    inv.setup_done();

    const fleet::FleetSimulator sim{opts};
    fleet::FleetResult result;
    std::vector<std::string> snapshots;
    if (checkpoint_every > 0) {
      fleet::FleetSnapshot snap;
      bool have = false;
      for (int end = checkpoint_every; end < spec.slices; end += checkpoint_every) {
        {
          const Scope span{tracer, "fleet.segment"};
          snap = sim.run_to(spec, end, have ? &snap : nullptr);
        }
        char name[64];
        std::snprintf(name, sizeof name, "/snapshot-%06d.bin", end);
        const std::string path = dir + name;
        {
          const Scope span{tracer, "fleet.snapshot_save"};
          snap.save(path);
        }
        {
          const Scope span{tracer, "fleet.snapshot_load"};
          snap = fleet::FleetSnapshot::load(path);
        }
        snapshots.push_back(path);
        have = true;
      }
      const Scope span{tracer, "fleet.resume"};
      result = have ? sim.resume(spec, snap) : sim.run(spec);
    } else {
      const Scope span{tracer, "fleet.run"};
      result = sim.run(spec);
    }
    {
      const Scope span{tracer, "fleet.write_jsonl"};
      write_file(out.jsonl, [&](std::ostream& os) { result.write_jsonl(os); });
    }
    {
      const Scope span{tracer, "fleet.write_summary"};
      write_file(out.summary, [&](std::ostream& os) { result.write_summary_json(os); });
    }
    inv.done();

    rr.slices += result.aggregate.executed_slices;
    rr.counts["fleet.device_slices"] += static_cast<double>(result.aggregate.executed_slices);
    rr.counts["fleet.memo_hits"] += static_cast<double>(result.memo_hits);
    rr.counts["fleet.memo_misses"] += static_cast<double>(result.memo_misses);
    rr.counts["fleet.memo_replayed_devices"] +=
        static_cast<double>(result.memo_replayed_devices);
    rr.counts["fleet.memo_exact_devices"] += static_cast<double>(result.memo_exact_devices);
    rr.counts["fleet.jsonl_bytes"] += static_cast<double>(std::filesystem::file_size(out.jsonl));
    for (const std::string& path : snapshots) {
      rr.counts["fleet.snapshot_bytes"] += static_cast<double>(std::filesystem::file_size(path));
    }
    add_cache_stats(lut_cache, rr);
  }
}

/// The reference run of a fleet spec at one worker, with the device memo
/// on or off, returning {JSONL, summary}. Its LUT cache is warmed the way
/// an invocation's is: the summary's lut_builds/lut_shared count builds
/// made during the run, so a cold cache here would differ in those two
/// fields alone.
std::pair<std::string, std::string> fleet_oracle(const fleet::FleetSpec& spec, bool memo) {
  placement::LutCache lut_cache;
  {
    const std::vector<nn::Model> models = spec.resolved_models();
    Tracer off{false};
    RoundResult unused;
    build_luts(fleet_lut_keys(spec, models, lut_cache), off, unused);
  }
  fleet::OutcomeCache outcome_cache;
  fleet::FleetOptions opts = fleet_options(1, memo);
  opts.lut_cache = &lut_cache;
  opts.outcome_cache = &outcome_cache;
  const fleet::FleetResult r = fleet::FleetSimulator{opts}.run(spec);
  return {r.to_jsonl(), r.summary_to_json()};
}

/// Flips one byte in the middle of `s`.
std::string tamper_byte(std::string s) {
  if (!s.empty()) s[s.size() / 2] = static_cast<char>(s[s.size() / 2] ^ 0x01);
  return s;
}

void check_fleet_identity(CheckLog& log, const std::string& what, const FleetOutputs& got,
                          const std::pair<std::string, std::string>& want) {
  const std::string jsonl = read_file(got.jsonl);
  const std::string summary = read_file(got.summary);
  log.record(what + " JSONL", compare_bytes("JSONL", jsonl, want.first));
  log.record(what + " summary", compare_bytes("summary", summary, want.second));
  log.record_rejection(what + " JSONL with one flipped byte",
                       compare_bytes("JSONL", tamper_byte(jsonl), want.first));
}

// --- experiment grid and NAS ------------------------------------------------

/// experiment_grid's defaults (examples/experiment_grid.cpp).
exp::ExperimentSpec grid_spec(std::uint64_t seed) {
  workload::ScenarioConfig wc;
  wc.slices = 20;
  exp::ExperimentSpec spec;
  spec.name = "experiment-grid";
  spec.seed = kCliSeed + seed;
  const auto table1 = sys::ArchConfig::paper_table1();
  spec.archs.assign(table1.begin(), table1.end());
  spec.models = nn::zoo::paper_models();
  for (const auto kind : workload::all_scenarios()) {
    spec.scenarios.push_back(exp::ScenarioSpec::of(kind, wc));
  }
  sys::SystemConfig base;
  base.lut_t_entries = 96;
  base.lut_k_blocks = 96;
  spec.variants.push_back({"", base});
  return spec;
}

constexpr int kNasLut = 64;
constexpr double kNasSloFrac = 0.6;

/// pareto_nas's defaults (examples/pareto_nas.cpp).
exp::ExperimentSpec nas_spec(std::uint64_t seed) {
  workload::ScenarioConfig wc;
  wc.slices = 12;
  exp::ExperimentSpec spec;
  spec.name = "pareto-nas";
  spec.seed = kCliSeed + seed;
  spec.archs.push_back(sys::ArchConfig::hhpim());
  for (const nn::Model& base : nn::zoo::paper_models()) {
    for (nn::Model& v : nn::zoo::width_variants(base, {0.50, 0.75, 1.00})) {
      spec.models.push_back(std::move(v));
    }
  }
  for (const auto kind : workload::all_scenarios()) {
    spec.scenarios.push_back(exp::ScenarioSpec::of(kind, wc));
  }
  sys::SystemConfig base_cfg;
  base_cfg.lut_t_entries = kNasLut;
  base_cfg.lut_k_blocks = kNasLut;
  spec.variants.push_back({"", base_cfg});
  return spec;
}

/// The SLO pareto_nas reads a variant's frontier at, and the LUT entry
/// there (nullptr when the LUT has no feasible entry). The entry is owned by
/// `proc`'s LUT.
struct SloEntry {
  Time slo;
  const placement::LutEntry* entry = nullptr;
};
SloEntry slo_entry(const sys::Processor& proc) {
  SloEntry e;
  e.slo = Time::ps(static_cast<std::int64_t>(
      static_cast<double>(proc.slice_length().as_ps()) * kNasSloFrac));
  if (proc.lut() != nullptr) e.entry = proc.lut()->lookup_or_peak(e.slo);
  return e;
}

/// The HH-PIM probe config pareto_nas resolves frontiers with.
sys::SystemConfig nas_probe_config(const exp::ExperimentSpec& spec, placement::LutCache& cache) {
  sys::SystemConfig cfg = spec.variants.front().config;
  cfg.arch = sys::ArchConfig::hhpim();
  cfg.lut_cache = &cache;
  return cfg;
}

/// One variant's frontier read-out (pareto_nas's FrontierMetrics).
struct NasFrontier {
  std::uint64_t params = 0, macs = 0;
  std::int64_t slo_ps = 0;
  std::size_t frontier_points = 0;
  double anchor_energy_pj = 0.0, perf_energy_pj = 0.0;
  std::int64_t anchor_latency_ps = 0, perf_latency_ps = 0;
  std::uint64_t min_sram_weights = 0;
  bool slo_met = false;
};

/// pareto_nas's frontier annotations, one per variant, resolved from the
/// cache the runner used (cache hits: no LUT builds).
std::map<std::string, NasFrontier> nas_frontiers(const exp::ExperimentSpec& spec,
                                                 placement::LutCache& cache) {
  const sys::SystemConfig probe_cfg = nas_probe_config(spec, cache);
  std::map<std::string, NasFrontier> rows;
  for (const nn::Model& m : spec.models) {
    NasFrontier fm;
    fm.params = m.effective_params();
    fm.macs = m.effective_macs();
    const sys::Processor proc{probe_cfg, m};
    const SloEntry at = slo_entry(proc);
    fm.slo_ps = at.slo.as_ps();
    if (at.entry != nullptr && !at.entry->frontier.empty()) {
      const std::vector<placement::ParetoPoint>& front = at.entry->frontier;
      fm.frontier_points = front.size();
      const placement::ParetoPoint anchor = placement::min_energy_point(front);
      fm.anchor_energy_pj = anchor.energy.as_pj();
      fm.anchor_latency_ps = anchor.latency.as_ps();
      const placement::ParetoPoint& perf = placement::min_latency_point(front);
      fm.perf_energy_pj = perf.energy.as_pj();
      fm.perf_latency_ps = perf.latency.as_ps();
      fm.min_sram_weights = front.front().sram_weights;
      for (const placement::ParetoPoint& p : front) {
        fm.min_sram_weights = std::min(fm.min_sram_weights, p.sram_weights);
      }
      fm.slo_met = placement::best_within_slo(front, at.slo) != nullptr;
    }
    rows.emplace(m.name(), fm);
  }
  return rows;
}

/// pareto_nas's CSV: one row per run.
void write_nas_csv(std::ostream& out, const exp::ResultSet& results,
                   const std::map<std::string, NasFrontier>& rows) {
  out << "model,params,macs,scenario,tasks,deadline_violations,total_energy_pj,"
         "busy_time_ps,max_busy_ps,slo_ps,slo_met,frontier_points,"
         "anchor_energy_pj,anchor_latency_ps,perf_energy_pj,perf_latency_ps,"
         "min_sram_weights\n";
  char buf[64];
  const auto f = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string{buf};
  };
  for (const exp::RunResult& r : results.runs()) {
    const NasFrontier& fm = rows.at(r.model);
    out << r.model << ',' << fm.params << ',' << fm.macs << ',' << r.scenario << ','
        << r.tasks << ',' << r.deadline_violations << ',' << f(r.total_energy_pj) << ','
        << r.busy_time_ps << ',' << r.max_busy_ps << ',' << fm.slo_ps << ','
        << (fm.slo_met ? 1 : 0) << ',' << fm.frontier_points << ','
        << f(fm.anchor_energy_pj) << ',' << fm.anchor_latency_ps << ','
        << f(fm.perf_energy_pj) << ',' << fm.perf_latency_ps << ','
        << fm.min_sram_weights << '\n';
  }
}

/// Where experiment_grid ({JSON, CSV}) or pareto_nas ({CSV}) writes.
std::vector<std::string> exp_outputs(bool nas, const std::string& dir) {
  return nas ? std::vector<std::string>{dir + "/nas.csv"}
             : std::vector<std::string>{dir + "/grid.json", dir + "/grid.csv"};
}

/// One experiment_grid (nas == false) or pareto_nas (nas == true)
/// invocation at kCliWorkers workers.
void exp_invocation(bool nas, std::uint64_t seed, const std::string& dir, Tracer& tracer,
                    RoundResult& rr) {
  const std::vector<std::string> paths = exp_outputs(nas, dir);
  Invocation inv{tracer, nas ? "invocation.pareto_nas" : "invocation.experiment_grid", rr};
  {
    exp::ExperimentSpec spec;
    std::vector<exp::RunSpec> runs;
    {
      const Scope span{tracer, "setup.spec"};
      spec = nas ? nas_spec(seed) : grid_spec(seed);
      runs = spec.expand();
    }
    placement::LutCache lut_cache;
    {
      std::vector<LutKey> keys;
      std::set<std::uint64_t> seen;
      for (const exp::RunSpec& r : runs) {
        sys::SystemConfig cfg = r.config;
        cfg.lut_cache = &lut_cache;
        add_lut_key(keys, seen, cfg, r.model);
      }
      build_luts(keys, tracer, rr);
    }
    inv.setup_done();

    exp::RunnerOptions opts;
    opts.threads = kCliWorkers;
    opts.lut_cache = &lut_cache;
    exp::ResultSet results;
    {
      const Scope span{tracer, nas ? "exp.nas_run" : "exp.grid_run"};
      results = exp::Runner{opts}.run_all(std::move(runs));
      results.experiment_name = spec.name;
    }
    if (nas) {
      std::map<std::string, NasFrontier> frontiers;
      {
        const Scope span{tracer, "exp.nas_frontier"};
        frontiers = nas_frontiers(spec, lut_cache);
      }
      const Scope span{tracer, "exp.write"};
      write_file(paths[0], [&](std::ostream& os) { write_nas_csv(os, results, frontiers); });
    } else {
      const Scope span{tracer, "exp.write"};
      write_file(paths[0], [&](std::ostream& os) { results.write_json(os, false); });
      write_file(paths[1], [&](std::ostream& os) { results.write_csv(os); });
    }
    inv.done();

    rr.counts["exp.runs"] += static_cast<double>(results.size());
    for (const exp::RunResult& r : results.runs()) {
      rr.slices += static_cast<std::uint64_t>(r.slices);
    }
    add_cache_stats(lut_cache, rr);
  }
}

/// cli-cold's LUT checks. Every LUT the round built is rebuilt into one
/// cache (the builds are deterministic) and checked entry by entry against
/// the cost model, and on a deterministic sample against brute force; each
/// NAS variant's full frontier at its SLO entry is checked against the CSV.
void check_cli_luts(std::uint64_t seed, const exp::ExperimentSpec& grid,
                    const exp::ExperimentSpec& nas, const std::vector<NasRow>& nas_rows,
                    CheckLog& log) {
  placement::LutCache cache;
  const fleet::FleetSpec fleet_spec = fleet_sim_spec(seed);
  const std::vector<nn::Model> fleet_models = fleet_spec.resolved_models();
  std::vector<LutKey> keys = fleet_lut_keys(fleet_spec, fleet_models, cache);
  std::set<std::uint64_t> seen;
  for (const LutKey& k : keys) seen.insert(sys::processor_reuse_key(k.config, *k.model));
  std::vector<exp::RunSpec> runs = grid.expand();
  const std::vector<exp::RunSpec> nas_runs = nas.expand();
  runs.insert(runs.end(), nas_runs.begin(), nas_runs.end());
  for (const exp::RunSpec& r : runs) {
    sys::SystemConfig cfg = r.config;
    cfg.lut_cache = &cache;
    add_lut_key(keys, seen, cfg, r.model);
  }
  std::string lut_err;
  std::string bf_err;
  const placement::LutEntry* some_feasible = nullptr;
  const placement::CostModel* some_model = nullptr;
  std::uint64_t some_weights = 0;
  std::vector<std::unique_ptr<sys::Processor>> procs;
  for (const LutKey& k : keys) {
    procs.push_back(std::make_unique<sys::Processor>(k.config, *k.model));
    const sys::Processor& proc = *procs.back();
    const placement::AllocationLut* lut = proc.lut();
    if (lut == nullptr) {
      lut_err = "no LUT for " + k.model->name();
      break;
    }
    const std::uint64_t weights = k.model->effective_params();
    const auto& entries = lut->entries();
    for (const placement::LutEntry& e : entries) {
      const std::string err = check_lut_entry(proc.cost_model(), weights, e);
      if (!err.empty() && lut_err.empty()) lut_err = k.model->name() + ": " + err;
      if (e.feasible && some_feasible == nullptr) {
        some_feasible = &e;
        some_model = &proc.cost_model();
        some_weights = weights;
      }
    }
    // Sample: the peak-performance entry, the middle and the most relaxed
    // feasible entry of every LUT.
    std::vector<const placement::LutEntry*> feasible;
    for (const placement::LutEntry& e : entries) {
      if (e.feasible) feasible.push_back(&e);
    }
    if (feasible.empty()) continue;
    for (const std::size_t i : {std::size_t{0}, feasible.size() / 2, feasible.size() - 1}) {
      const std::string err = check_lut_brute_force(proc.cost_model(), weights,
                                                    lut->params().k_blocks, *feasible[i]);
      if (!err.empty() && bf_err.empty()) bf_err = k.model->name() + ": " + err;
    }
  }
  log.record("LUT entries: weights, capacities, time budget, frontier", lut_err);
  log.record("LUT sample vs brute force", bf_err);
  if (some_feasible != nullptr) {
    placement::LutEntry over = *some_feasible;
    over.t_constraint = placement::task_time(*some_model, over.alloc) - Time::ps(1);
    log.record_rejection("LUT entry over its time budget",
                         check_lut_entry(*some_model, some_weights, over));
    placement::LutEntry dominated = *some_feasible;
    placement::ParetoPoint worse = dominated.frontier.front();
    worse.energy = worse.energy + Energy::pj(1.0);
    dominated.frontier.push_back(worse);
    log.record_rejection("frontier with a dominated point",
                         check_lut_entry(*some_model, some_weights, dominated));
  } else {
    log.record("LUT self-tests", "no feasible LUT entry to tamper with");
  }

  // NAS frontiers: each variant's full frontier at the SLO entry.
  std::string front_err;
  const sys::SystemConfig probe_cfg = nas_probe_config(nas, cache);
  for (const nn::Model& m : nas.models) {
    const sys::Processor proc{probe_cfg, m};
    const placement::LutEntry* e = slo_entry(proc).entry;
    std::string err = e == nullptr ? "no feasible entry" : check_frontier(e->frontier);
    for (const NasRow& row : nas_rows) {
      if (err.empty() && row.model == m.name() && row.frontier_points != e->frontier.size()) {
        err = "the CSV's frontier_points disagrees with the LUT";
      }
    }
    if (!err.empty() && front_err.empty()) front_err = m.name() + ": " + err;
  }
  log.record("NAS frontiers non-empty and non-dominated", front_err);
}

// --- workloads ----------------------------------------------------------------

class CliCold final : public Workload {
 public:
  CliCold(std::uint64_t seed, std::string dir)
      : seed_(seed),
        dir_(std::move(dir)),
        fleet_(fleet_outputs(dir_)),
        grid_(exp_outputs(false, dir_)),
        nas_(exp_outputs(true, dir_)) {}

  RoundResult round(int index, Tracer& tracer) override {
    const std::uint64_t seed = round_seed(seed_, index);
    RoundResult rr;
    fleet_invocation([seed] { return fleet_sim_spec(seed); }, kCliWorkers, 0, dir_, tracer, rr);
    exp_invocation(false, seed, dir_, tracer, rr);
    exp_invocation(true, seed, dir_, tracer, rr);
    return rr;
  }

  void check(int index, CheckLog& log) override {
    const std::uint64_t seed = round_seed(seed_, index);
    // Fleet: thread- and memo-independence against the exact path.
    check_fleet_identity(log, "fleet_sim 2 workers vs 1 worker memo off", fleet_,
                         fleet_oracle(fleet_sim_spec(seed), false));

    // Grid: the paper's claim, cell by cell.
    const exp::ExperimentSpec grid = grid_spec(seed);
    const std::vector<GridRow> rows = parse_grid_csv(read_file(grid_[1]));
    log.record("grid HH-PIM below Baseline-PIM and Hybrid-PIM, no misses",
               check_grid(rows, grid.run_count()));
    {
      std::vector<GridRow> tampered = rows;
      const auto hh = std::find_if(tampered.begin(), tampered.end(),
                                   [](const GridRow& r) { return r.arch == "HH-PIM"; });
      const auto base = std::find_if(tampered.begin(), tampered.end(), [&](const GridRow& r) {
        return r.arch == "Baseline-PIM" && r.model == hh->model && r.scenario == hh->scenario;
      });
      hh->total_energy_pj = base->total_energy_pj * 1.01;
      log.record_rejection("grid with an HH-PIM cell costlier than Baseline-PIM",
                           check_grid(tampered, grid.run_count()));
    }
    const std::string grid_json = read_file(grid_[0]);
    log.record("grid JSON run_count",
               json_number(grid_json, "run_count") == static_cast<double>(grid.run_count())
                   ? std::string{}
                   : "grid JSON run_count disagrees with the grid");

    // NAS: the CSV's frontier read-out and every variant's full frontier.
    const exp::ExperimentSpec nas = nas_spec(seed);
    const std::vector<NasRow> nas_rows = parse_nas_csv(read_file(nas_[0]));
    log.record("NAS anchor vs min-latency point", check_nas_rows(nas_rows, nas.run_count()));
    {
      std::vector<NasRow> tampered = nas_rows;
      std::swap(tampered.front().anchor_latency_ps, tampered.front().perf_latency_ps);
      std::swap(tampered.front().anchor_energy_pj, tampered.front().perf_energy_pj);
      log.record_rejection("NAS row with anchor and min-latency point swapped",
                           check_nas_rows(tampered, nas.run_count()));
    }

    check_cli_luts(seed, grid, nas, nas_rows, log);
  }

 private:
  std::uint64_t seed_;
  std::string dir_;
  const FleetOutputs fleet_;
  const std::vector<std::string> grid_, nas_;
};

class FleetWeek final : public Workload {
 public:
  FleetWeek(std::uint64_t seed, std::string dir, bool checkpointed)
      : seed_(seed),
        dir_(std::move(dir)),
        checkpointed_(checkpointed),
        out_(fleet_outputs(dir_)) {}

  [[nodiscard]] fleet::FleetSpec spec(int index) const {
    return week_spec(round_seed(seed_, index),
                     checkpointed_ ? kWeekCkptDevices : kWeekDevices);
  }

  RoundResult round(int index, Tracer& tracer) override {
    RoundResult rr;
    fleet_invocation([this, index] { return spec(index); }, 1,
                     checkpointed_ ? kCkptEvery : 0, dir_, tracer, rr);
    return rr;
  }

  void check(int index, CheckLog& log) override {
    if (checkpointed_) {
      check_fleet_identity(log, "segmented week vs one-shot memo run", out_,
                           fleet_oracle(spec(index), true));
      return;
    }
    const std::string jsonl = read_file(out_.jsonl);
    const std::string summary = read_file(out_.summary);
    log.record("week summary counters equal JSONL sums", check_summary_sums(jsonl, summary));
    {
      std::string tampered = summary;
      const std::string field = "\"tasks\": ";
      const std::size_t at = tampered.find(field);
      if (at == std::string::npos) {
        log.record("week summary self-test", "the summary has no tasks field");
      } else {
        char& digit = tampered[at + field.size()];
        digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
        log.record_rejection("week summary with a changed task count",
                             check_summary_sums(jsonl, tampered));
      }
    }

    // Sampled devices re-run one at a time on the scalar path.
    std::vector<std::string> lines;
    {
      std::istringstream in{jsonl};
      std::string line;
      while (std::getline(in, line)) lines.push_back(line + '\n');
    }
    fleet::FleetSpec scalar = spec(index);
    scalar.config.batched_execution = false;
    scalar.config.memoize_decisions = false;
    const std::vector<fleet::DeviceSpec> devices = scalar.expand();
    const std::vector<nn::Model> models = scalar.resolved_models();
    std::vector<std::string> names;
    for (const nn::Model& m : models) names.push_back(m.name());
    placement::LutCache cache;
    std::string err;
    std::string first_line, first_want;
    constexpr std::size_t kSample = 64;
    const std::size_t stride = std::max<std::size_t>(1, devices.size() / kSample);
    for (std::size_t id = stride / 2; id < devices.size(); id += stride) {
      const fleet::DeviceSpec& d = devices[id];
      fleet::Device device{scalar, d, models[d.model_index], &cache};
      const fleet::DeviceResult r = device.run(nullptr);
      std::ostringstream os;
      fleet::write_device_line(os, r, names);
      const std::string got = id < lines.size() ? lines[id] : std::string{};
      if (first_line.empty()) {
        first_line = got;
        first_want = os.str();
      }
      const std::string e = compare_bytes("device " + std::to_string(id), got, os.str());
      if (!e.empty() && err.empty()) err = e;
    }
    log.record("week sampled devices vs scalar path", err);
    log.record_rejection("week device line with one flipped byte",
                         compare_bytes("device", tamper_byte(first_line), first_want));
  }

 private:
  std::uint64_t seed_;
  std::string dir_;
  bool checkpointed_;
  const FleetOutputs out_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& out_dir) {
  if (name == "cli-cold") return std::make_unique<CliCold>(seed, out_dir);
  if (name == "fleet-week") return std::make_unique<FleetWeek>(seed, out_dir, false);
  if (name == "fleet-week-ckpt") return std::make_unique<FleetWeek>(seed, out_dir, true);
  return nullptr;
}

}  // namespace perfbench
