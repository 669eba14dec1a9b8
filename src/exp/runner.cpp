#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "energy/ledger.hpp"
#include "hhpim/processor.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim::exp {

unsigned Runner::resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned Runner::resolve_workers(unsigned requested, std::size_t runs) {
  return std::min<unsigned>(resolve_threads(requested),
                            static_cast<unsigned>(std::max<std::size_t>(runs, 1)));
}

placement::LutCache* Runner::resolve_lut_cache() const {
  if (!options_.share_luts) return nullptr;
  return options_.lut_cache != nullptr ? options_.lut_cache
                                       : &placement::LutCache::process_cache();
}

RunResult Runner::execute(const RunSpec& spec, bool keep_slices,
                          placement::LutCache* lut_cache, sys::ProcessorPool* pool) {
  sys::SystemConfig config = spec.config;
  if (config.lut_cache == nullptr) config.lut_cache = lut_cache;
  std::optional<sys::Processor> local;
  sys::ProcessorPool::Lease lease;
  if (pool != nullptr) lease = pool->checkout(config, spec.model);
  sys::Processor& proc =
      pool != nullptr ? lease.get() : local.emplace(config, spec.model);
  const sys::RunStats stats = proc.run_scenario(spec.loads);
  const energy::EnergyLedger& ledger = proc.ledger();

  RunResult r;
  r.index = spec.index;
  r.variant = spec.variant;
  r.arch = spec.arch;
  r.model = spec.model_name;
  r.scenario = spec.scenario;
  r.seed = spec.seed;
  r.slice_ps = proc.slice_length().as_ps();
  r.slices = static_cast<int>(stats.slices.size());
  r.tasks = stats.tasks;
  r.deadline_violations = stats.deadline_violations;
  r.total_energy_pj = stats.total_energy.as_pj();
  r.mean_slice_energy_pj = stats.mean_slice_energy().as_pj();
  r.dynamic_energy_pj = ledger.dynamic_total().as_pj();
  r.leakage_energy_pj = ledger.total(energy::Activity::kLeakage).as_pj();
  r.transfer_energy_pj = ledger.total(energy::Activity::kTransfer).as_pj();
  r.total_time_ps = stats.total_time.as_ps();
  for (const sys::SliceStats& s : stats.slices) {
    r.busy_time_ps += s.busy_time.as_ps();
    r.max_busy_ps = std::max(r.max_busy_ps, s.busy_time.as_ps());
    r.movement_time_ps += s.movement_time.as_ps();
    if (keep_slices) {
      SliceMetrics m;
      m.slice = s.slice;
      m.tasks = s.tasks_executed;
      m.busy_ps = s.busy_time.as_ps();
      m.movement_ps = s.movement_time.as_ps();
      m.energy_pj = s.energy.as_pj();
      m.deadline_violated = s.deadline_violated;
      r.slice_metrics.push_back(m);
    }
  }
  return r;
}

ResultSet Runner::run_all(std::vector<RunSpec> runs) const {
  std::vector<RunResult> results(runs.size());
  const unsigned workers = resolve_workers(options_.threads, runs.size());

  placement::LutCache* const lut_cache = resolve_lut_cache();
  std::exception_ptr first_error;
  sys::ProcessorPool pool;  // shared by all workers (checkout/return is thread-safe)
  sys::ProcessorPool* const pool_ptr = options_.reuse_processors ? &pool : nullptr;
  if (workers <= 1) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      try {
        results[i] = execute(runs[i], options_.keep_slices, lut_cache, pool_ptr);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    const bool keep_slices = options_.keep_slices;
    auto worker = [&] {
      // Results are buffered per worker and placed after the claiming loop
      // drains: while runs execute, no two workers write anywhere near each
      // other. Each result lands at the run's *position* (not
      // RunSpec::index, which echoes the original grid coordinate and may
      // be sparse when the caller passes a filtered subset), so output
      // order always matches input order regardless of completion order.
      std::vector<std::pair<std::size_t, RunResult>> local;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= runs.size()) break;
        try {
          local.emplace_back(i, execute(runs[i], keep_slices, lut_cache, pool_ptr));
        } catch (...) {
          const std::lock_guard<std::mutex> lock{error_mutex};
          if (!first_error) first_error = std::current_exception();
        }
      }
      // Disjoint indices: placement needs no lock, and it happens once per
      // worker, after all simulation work.
      for (auto& [i, r] : local) results[i] = std::move(r);
    };
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return ResultSet{std::move(results)};
}

ResultSet Runner::run(const ExperimentSpec& spec) const {
  ResultSet rs = run_all(spec.expand());
  rs.experiment_name = spec.name;
  return rs;
}

}  // namespace hhpim::exp
