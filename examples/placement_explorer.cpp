// Placement explorer: sweeps t_constraint and dumps the optimizer's choice
// as CSV (the raw data behind the paper's Fig. 6). Pipe into a plotting tool
// of your choice.
//
//   ./placement_explorer [--model=effnet|mobilenet|resnet] [--entries=128]
#include <cstdio>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"

using namespace hhpim;
using placement::Space;

int main(int argc, char** argv) try {
  const Cli cli{argc, argv};
  cli.require_known({"model", "entries"});
  const std::string which = cli.get("model", "effnet");
  const nn::Model model = which == "resnet"      ? nn::zoo::resnet18()
                          : which == "mobilenet" ? nn::zoo::mobilenet_v2()
                                                 : nn::zoo::efficientnet_b0();

  sys::SystemConfig config;
  config.arch = sys::ArchConfig::hhpim();
  config.lut_t_entries = static_cast<int>(cli.get_int("entries", 128));
  config.lut_k_blocks = 128;
  sys::Processor proc{config, model};
  const auto* lut = proc.lut();

  std::printf("# model=%s T_ms=%.3f peak_ms=%.3f mram_only_ms=%.3f\n",
              model.name().c_str(), proc.slice_length().as_ms(),
              proc.peak_task_time().as_ms(), proc.mram_only_task_time().as_ms());
  std::printf("t_constraint_ms,feasible,hp_mram,hp_sram,lp_mram,lp_sram,task_energy_uj\n");
  for (const auto& e : lut->entries()) {
    std::printf("%.4f,%d,%llu,%llu,%llu,%llu,%.3f\n", e.t_constraint.as_ms(),
                e.feasible ? 1 : 0,
                static_cast<unsigned long long>(e.alloc[Space::kHpMram]),
                static_cast<unsigned long long>(e.alloc[Space::kHpSram]),
                static_cast<unsigned long long>(e.alloc[Space::kLpMram]),
                static_cast<unsigned long long>(e.alloc[Space::kLpSram]),
                e.feasible ? e.predicted_task_energy.as_uj() : 0.0);
  }
  return 0;
} catch (const std::exception& e) {
  // Bad input (an unknown flag, a malformed value) fails with its cause.
  std::fprintf(stderr, "placement_explorer: %s\n", e.what());
  return 2;
}
