// Quickstart: build an HH-PIM processor for a TinyML model, run a small
// fluctuating workload, and print where the optimizer placed the weights and
// what it cost.
//
//   ./quickstart [--model=effnet|mobilenet|resnet] [--slices=10]
#include <cstdio>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "hhpim/metrics.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "workload/scenario.hpp"

using namespace hhpim;

int main(int argc, char** argv) try {
  const Cli cli{argc, argv};
  cli.require_known({"model", "slices"});
  const std::string which = cli.get("model", "effnet");
  nn::Model model = which == "resnet"      ? nn::zoo::resnet18()
                    : which == "mobilenet" ? nn::zoo::mobilenet_v2()
                                           : nn::zoo::efficientnet_b0();

  std::printf("model: %s  (%llu params, %llu MACs, %.0f%% PIM ops)\n",
              model.name().c_str(),
              static_cast<unsigned long long>(model.effective_params()),
              static_cast<unsigned long long>(model.effective_macs()),
              model.pim_op_ratio() * 100.0);

  // 1. Build the processor (HH-PIM, paper Table I configuration).
  sys::SystemConfig config;
  config.arch = sys::ArchConfig::hhpim();
  sys::Processor proc{config, model};

  std::printf("slice T = %s, peak task time = %s, MRAM-only task time = %s\n",
              proc.slice_length().to_string().c_str(),
              proc.peak_task_time().to_string().c_str(),
              proc.mram_only_task_time().to_string().c_str());

  // 2. Generate a pulsing workload (Fig. 4, Case 5) and run it.
  workload::ScenarioConfig wc;
  wc.slices = static_cast<int>(cli.get_int("slices", 10));
  const auto loads = workload::generate(workload::Scenario::kPulsing, wc);
  std::printf("load:  %s\n", workload::sparkline(loads, wc.high).c_str());

  const sys::RunStats run = proc.run_scenario(loads);

  // 3. Inspect what the dynamic placement did, slice by slice.
  Table t{{"slice", "tasks", "HP-MRAM", "HP-SRAM", "LP-MRAM", "LP-SRAM",
           "energy", "busy", "deadline"}};
  for (const auto& s : run.slices) {
    t.add_row({std::to_string(s.slice), std::to_string(s.tasks_executed),
               std::to_string(s.alloc[placement::Space::kHpMram]),
               std::to_string(s.alloc[placement::Space::kHpSram]),
               std::to_string(s.alloc[placement::Space::kLpMram]),
               std::to_string(s.alloc[placement::Space::kLpSram]),
               s.energy.to_string(), s.busy_time.to_string(),
               s.deadline_violated ? "MISS" : "ok"});
  }
  std::printf("%s", t.render().c_str());

  std::printf("total energy: %s over %s (%llu tasks, %llu deadline misses)\n",
              run.total_energy.to_string().c_str(), run.total_time.to_string().c_str(),
              static_cast<unsigned long long>(run.tasks),
              static_cast<unsigned long long>(run.deadline_violations));

  // 4. Compare against the conventional architectures on the same workload.
  for (const auto& arch : {sys::ArchConfig::baseline(), sys::ArchConfig::hetero(),
                           sys::ArchConfig::hybrid()}) {
    sys::SystemConfig ref = config;
    ref.arch = arch;
    ref.slice = proc.slice_length();  // identical application requirement
    const auto cell = sys::run_cell(ref, model, loads);
    std::printf("vs %-18s: %10s  -> HH-PIM saves %6.2f%%\n", cell.arch.c_str(),
                cell.energy.to_string().c_str(),
                sys::energy_saving_percent(run.total_energy, cell.energy));
  }
  return 0;
} catch (const std::exception& e) {
  // Bad input (an unknown flag, a malformed value) fails with its cause.
  std::fprintf(stderr, "quickstart: %s\n", e.what());
  return 2;
}
