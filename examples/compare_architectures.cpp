// Compares the four Table-I architectures on one scenario across all three
// TinyML models: total energy, energy breakdown, deadline behaviour.
// The 4 x 3 grid is executed by the parallel experiment runner.
//
//   ./compare_architectures [--case=1..6] [--slices=20] [--threads=N]
#include <cstdio>
#include <exception>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "hhpim/metrics.hpp"
#include "nn/zoo.hpp"
#include "workload/scenario.hpp"

using namespace hhpim;

int main(int argc, char** argv) try {
  const Cli cli{argc, argv};
  cli.require_known({"case", "slices", "threads"});
  const int case_idx = static_cast<int>(cli.get_int("case", 5));
  const auto scenario = workload::all_scenarios()[static_cast<std::size_t>(
      std::max(1, std::min(6, case_idx)) - 1)];
  workload::ScenarioConfig wc;
  wc.slices = static_cast<int>(cli.get_int("slices", 20));
  const auto loads = workload::generate(scenario, wc);

  std::printf("scenario: %s (%s), %d slices\nload: %s\n\n", workload::case_name(scenario),
              workload::to_string(scenario), wc.slices,
              workload::sparkline(loads, wc.high).c_str());

  exp::ExperimentSpec spec;
  spec.name = "compare-architectures";
  const auto table1 = sys::ArchConfig::paper_table1();
  spec.archs.assign(table1.begin(), table1.end());
  spec.models = nn::zoo::paper_models();
  spec.scenarios = {exp::ScenarioSpec::fixed(workload::to_string(scenario), loads)};

  exp::RunnerOptions opts;
  opts.threads = static_cast<unsigned>(cli.get_int("threads", 0));
  const exp::ResultSet results = exp::Runner{opts}.run(spec);

  for (const auto& model : spec.models) {
    const exp::RunResult& hh =
        results.at("HH-PIM", model.name(), workload::to_string(scenario));

    Table t{{"Architecture", "total energy", "dynamic", "leakage", "movement",
             "deadline misses", "HH-PIM saves"}};
    for (const auto& arch : table1) {
      const exp::RunResult& r =
          results.at(arch.name, model.name(), workload::to_string(scenario));
      t.add_row({arch.name, r.total_energy().to_string(),
                 Energy::pj(r.dynamic_energy_pj).to_string(),
                 Energy::pj(r.leakage_energy_pj).to_string(),
                 Energy::pj(r.transfer_energy_pj).to_string(),
                 std::to_string(r.deadline_violations),
                 arch.kind == sys::ArchKind::kHhpim
                     ? "-"
                     : format_double(sys::energy_saving_percent(hh.total_energy(),
                                                                r.total_energy()),
                                     2) +
                           " %"});
    }

    std::printf("%s (T = %s):\n%s\n", model.name().c_str(),
                Time::ps(hh.slice_ps).to_string().c_str(), t.render().c_str());
  }
  return 0;
} catch (const std::exception& e) {
  // Bad input (an unknown flag, a malformed value) fails with its cause.
  std::fprintf(stderr, "compare_architectures: %s\n", e.what());
  return 2;
}
