// Experiment-grid CLI: runs an architecture x model x scenario grid through
// the parallel experiment runner and writes JSON/CSV results.
//
//   ./experiment_grid [--threads=N] [--slices=K] [--lut=R] [--seed=S]
//                     [--models=all|EfficientNet-B0,ResNet-18,...]
//                     [--scenarios=paper|extended|all|name1,name2,...]
//                     [--trace=FILE]        # adds a trace-replay scenario
//                     [--no-lut-cache]      # rebuild LUTs per run (cold path)
//                     [--json=PATH] [--csv=PATH] [--with-slices] [--quiet]
//
// The same spec at any --threads value produces byte-identical JSON/CSV —
// CI diffs --threads=1 against --threads=2 as a determinism smoke check.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "placement/lut_cache.hpp"
#include "nn/zoo.hpp"
#include "workload/scenario.hpp"

using namespace hhpim;

int main(int argc, char** argv) try {
  const Cli cli{argc, argv};
  cli.require_known({"threads", "slices", "lut", "seed", "models", "scenarios",
                     "trace", "no-lut-cache", "json", "csv", "with-slices",
                     "quiet"});
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

  workload::ScenarioConfig wc;
  wc.slices = static_cast<int>(cli.get_int("slices", 20, 1, kIntMax));

  exp::ExperimentSpec spec;
  spec.name = "experiment-grid";
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed2025));
  const auto table1 = sys::ArchConfig::paper_table1();
  spec.archs.assign(table1.begin(), table1.end());

  // Model axis.
  const std::string models_arg = cli.get("models", "all");
  if (models_arg == "all") {
    spec.models = nn::zoo::paper_models();
  } else {
    for (const std::string& name : split(models_arg, ',')) {
      auto m = nn::zoo::find_model(trim(name));
      if (!m.has_value()) {
        std::fprintf(stderr, "unknown model '%s' (known: %s)\n", name.c_str(),
                     nn::zoo::known_model_names().c_str());
        return 1;
      }
      spec.models.push_back(std::move(*m));
    }
  }

  // Scenario axis.
  const std::string scenarios_arg = cli.get("scenarios", "paper");
  std::vector<workload::Scenario> kinds;
  if (scenarios_arg == "paper" || scenarios_arg == "all") {
    const auto s = workload::all_scenarios();
    kinds.assign(s.begin(), s.end());
  }
  if (scenarios_arg == "extended" || scenarios_arg == "all") {
    kinds.push_back(workload::Scenario::kRamp);
    kinds.push_back(workload::Scenario::kBurstDecay);
    kinds.push_back(workload::Scenario::kPoisson);
  }
  if (kinds.empty()) {
    for (const std::string& name : split(scenarios_arg, ',')) {
      const auto s = workload::from_string(trim(name));
      if (!s.has_value()) {
        std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
        return 1;
      }
      kinds.push_back(*s);
    }
  }
  for (const auto kind : kinds) {
    if (kind == workload::Scenario::kTrace) {
      std::fprintf(stderr, "trace-replay needs a file: pass --trace=FILE instead of "
                           "naming it in --scenarios\n");
      return 1;
    }
    spec.scenarios.push_back(exp::ScenarioSpec::of(kind, wc));
  }
  const std::string trace_path = cli.get("trace", "");
  if (!trace_path.empty()) {
    spec.scenarios.push_back(
        exp::ScenarioSpec::fixed("trace:" + trace_path, workload::load_trace(trace_path)));
  }

  // Base config (LUT resolution keeps small grids fast).
  sys::SystemConfig base;
  const auto lut = static_cast<int>(cli.get_int("lut", 96, 1, kIntMax));
  base.lut_t_entries = lut;
  base.lut_k_blocks = lut;
  spec.variants.push_back({"", base});

  exp::RunnerOptions opts;
  opts.threads = static_cast<unsigned>(cli.get_int("threads", 0, 0, 1024));
  opts.keep_slices = cli.get_bool("with-slices", false);
  opts.share_luts = !cli.get_bool("no-lut-cache", false);
  placement::LutCache lut_cache;  // private per invocation, deterministic stats
  opts.lut_cache = &lut_cache;
  const exp::Runner runner{opts};

  const exp::ResultSet results = runner.run(spec);

  if (!cli.get_bool("quiet", false)) {
    const auto cache_stats = lut_cache.stats();
    std::printf("grid: %zu archs x %zu models x %zu scenarios = %zu runs "
                "(%u threads, %d slices; LUT cache: %s, %llu built, %llu shared)\n\n",
                spec.archs.size(), spec.models.size(), spec.scenarios.size(),
                results.size(), exp::Runner::resolve_threads(opts.threads), wc.slices,
                opts.share_luts ? "on" : "off",
                static_cast<unsigned long long>(cache_stats.misses),
                static_cast<unsigned long long>(cache_stats.hits));
    Table t{{"Arch", "Model", "Scenario", "total energy", "mean/slice", "misses",
             "busy (sum)"}};
    for (const auto& r : results.runs()) {
      t.add_row({r.arch, r.model, r.scenario, r.total_energy().to_string(),
                 Energy::pj(r.mean_slice_energy_pj).to_string(),
                 std::to_string(r.deadline_violations),
                 Time::ps(r.busy_time_ps).to_string()});
    }
    std::printf("%s\n", t.render().c_str());
  }

  const std::string json_path = cli.get("json", "");
  if (json_path == "-") {
    results.write_json(std::cout, opts.keep_slices);
  } else if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    results.write_json(out, opts.keep_slices);
    if (!cli.get_bool("quiet", false)) std::printf("wrote %s\n", json_path.c_str());
  }
  const std::string csv_path = cli.get("csv", "");
  if (csv_path == "-") {
    results.write_csv(std::cout);
  } else if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 1;
    }
    results.write_csv(out);
    if (!cli.get_bool("quiet", false)) std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  // Bad input (a malformed number, an unknown flag) fails loudly with the
  // cause, never as a silently different run.
  std::fprintf(stderr, "experiment_grid: %s\n", e.what());
  return 2;
}
