// Adaptive inference: the paper's motivating scenario — an object-detection
// style workload whose computational demand swings with scene content. Shows
// HH-PIM re-placing weights slice by slice and what each decision costs.
//
//   ./adaptive_inference [--slices=24] [--seed=7]
#include <cstdio>
#include <exception>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "workload/scenario.hpp"

using namespace hhpim;
using placement::Space;

int main(int argc, char** argv) try {
  const Cli cli{argc, argv};
  cli.require_known({"slices", "seed"});
  const int slices = static_cast<int>(cli.get_int("slices", 24));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));

  const nn::Model model = nn::zoo::mobilenet_v2();
  sys::SystemConfig config;
  config.arch = sys::ArchConfig::hhpim();
  sys::Processor proc{config, model};

  // Scene-driven load: a wandering number of detected objects; each object
  // adds an inference (crop classification), clamped to the slice capacity.
  Rng rng{seed};
  std::vector<int> loads;
  int objects = 2;
  for (int i = 0; i < slices; ++i) {
    objects += static_cast<int>(rng.next_in(-2, 2));
    if (rng.next_bool(0.12)) objects += 6;  // a crowd enters the frame
    objects = std::max(0, std::min(10, objects));
    loads.push_back(objects);
  }

  std::printf("adaptive %s on HH-PIM, T = %s\n", model.name().c_str(),
              proc.slice_length().to_string().c_str());
  std::printf("scene load: %s\n\n", workload::sparkline(loads, 10).c_str());
  std::printf("%-6s %-5s  %-34s %-12s %-10s\n", "slice", "objs", "placement (weights)",
              "energy", "moved");

  placement::Allocation prev = proc.current_allocation();
  int buffered = 0;
  for (std::size_t k = 0; k <= loads.size(); ++k) {
    const auto s = proc.run_slice(buffered);
    const auto moved = placement::plan_movement(prev, s.alloc).total();
    char placement[64];
    std::snprintf(placement, sizeof placement, "HPm%6llu HPs%6llu LPm%6llu LPs%6llu",
                  static_cast<unsigned long long>(s.alloc[Space::kHpMram]),
                  static_cast<unsigned long long>(s.alloc[Space::kHpSram]),
                  static_cast<unsigned long long>(s.alloc[Space::kLpMram]),
                  static_cast<unsigned long long>(s.alloc[Space::kLpSram]));
    std::printf("%-6d %-5d  %-34s %-12s %-10llu%s\n", s.slice, s.tasks_executed, placement,
                s.energy.to_string().c_str(), static_cast<unsigned long long>(moved),
                s.deadline_violated ? "  MISS" : "");
    prev = s.alloc;
    buffered = k < loads.size() ? loads[k] : 0;
  }

  std::printf("\ntotal: %s\n", proc.ledger().total().to_string().c_str());
  std::printf("\nper-component energy breakdown:\n%s", proc.ledger().breakdown().c_str());
  return 0;
} catch (const std::exception& e) {
  // Bad input (an unknown flag, a malformed value) fails with its cause.
  std::fprintf(stderr, "adaptive_inference: %s\n", e.what());
  return 2;
}
