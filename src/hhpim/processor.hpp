// The PIM processor (Fig. 3): clusters + controllers + data allocator +
// energy accounting, executing a scenario of time slices.
//
// Slice protocol (paper §III-A): inferences arriving during slice k are
// buffered and processed in slice k+1, so end-to-end latency stays below 2T.
// At each slice boundary the placement policy decides the allocation; weight
// movement executes first (its overhead was budgeted into t_constraint), then
// the buffered tasks run back-to-back, each split across clusters per the
// allocation — the MRAM share and SRAM share of a module serialize, modules
// and clusters run in parallel.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "energy/ledger.hpp"
#include "energy/power_spec.hpp"
#include "hhpim/arch_config.hpp"
#include "hhpim/scheduler.hpp"
#include "nn/model.hpp"
#include "pim/cluster.hpp"
#include "pim/data_allocator.hpp"
#include "placement/cost_model.hpp"
#include "placement/lut.hpp"
#include "riscv/engine.hpp"
#include "workload/task.hpp"

namespace hhpim {
class ByteWriter;  // common/serialize.hpp
class ByteReader;
}  // namespace hhpim

namespace hhpim::placement {
class LutCache;  // placement/lut_cache.hpp — only a pointer is stored here
}

namespace hhpim::sys {

/// Feature-gated host-core co-simulation (docs/RISCV.md "Host in the loop").
///
/// When enabled, the Processor owns an RV32IM `riscv::BlockEngine` running a
/// per-slice scheduler binary (the paper's Rocket host role): each run_slice
/// re-enters the program at pc 0 with a0 = n_tasks and sp at the top of host
/// RAM, runs it to ECALL, and posts the retired cycles as host energy into
/// the EnergyLedger. Host RAM persists across slices (scheduler state), is
/// folded into state_digest()/save_state(), and rides the processor reuse
/// key — so the fleet's outcome memo and snapshots stay exact. When disabled
/// (the default) every digest, snapshot and output byte is identical to a
/// build without the feature.
struct HostConfig {
  bool enabled = false;
  /// rv_asm source of the scheduler program; empty = the built-in default
  /// (default_host_program()). Must halt with ECALL; any other halt reason
  /// throws std::runtime_error from run_slice (a wedged host is a bug, not
  /// a statistic). Assembled once at construction; assembly errors throw
  /// std::invalid_argument.
  std::string program;
  /// Host RAM size in bytes (program + stack + persistent scheduler state).
  std::uint32_t ram_bytes = 4096;
  /// Host core clock: cycles convert to time as cycles * period.
  double clock_ghz = 1.0;
  /// Host active power while retiring, as a multiple of the resolved HP PE
  /// dynamic power — PowerSpec-derived, so design-space sweeps scale the
  /// host with the hardware around it.
  double power_scale = 2.0;
  /// Per-op-class retired-cycle costs.
  riscv::CycleModel cycles{};
  /// Step budget per slice; exceeding it throws (runaway host program).
  std::uint64_t max_steps_per_slice = 1'000'000;
};

/// The built-in per-slice scheduler: walks the task queue (a0 = n_tasks)
/// doing per-task dispatch arithmetic, persists (last load, descriptor
/// digest) to host RAM at 0x800, and halts with ECALL. Steady-state loads
/// reach a fixed host RAM state after one slice, so the fleet outcome memo
/// keeps hitting with the host enabled.
[[nodiscard]] std::string default_host_program();

struct SystemConfig {
  ArchConfig arch = ArchConfig::hhpim();
  /// Hardware timing/power spec override (raw, unscaled — `time_scale` is
  /// applied on top, exactly as for the default). Empty = the paper's
  /// Tables III/V (PowerSpec::paper_45nm()). Design-space sweeps plug
  /// NvsimLite::make_spec() results in here.
  std::optional<energy::PowerSpec> power;
  /// System time-base stretch vs raw Table III latencies (see
  /// PowerSpec::scaled and DESIGN.md §3). Calibrated default.
  double time_scale = 4.0;
  /// Up-to-N inferences per slice at peak (paper: 10). Sets T.
  int max_inferences_per_slice = 10;
  /// Explicit slice length; zero = derive as max_inferences * peak task time.
  Time slice = Time::zero();
  /// LUT resolution (HH-PIM only).
  int lut_t_entries = 128;
  int lut_k_blocks = 128;
  /// Shared placement-LUT cache (HH-PIM only; not owned, must outlive the
  /// Processor). nullptr = build a private LUT. exp::Runner points every run
  /// of a grid at one cache so a grid over M distinct (model, arch, cost,
  /// resolution) combinations builds M LUTs instead of one per run; results
  /// are byte-identical either way (pinned by tests/test_lut_cache.cpp).
  placement::LutCache* lut_cache = nullptr;
  placement::MovementParams movement{};
  /// Execute each slice's identical buffered tasks through the batched
  /// steady-state kernel (Processor::run_tasks_batched): tasks 1–2 run
  /// scalar, tasks 3..n are applied by replaying task 2's recorded ledger
  /// posts and integer state deltas. Results are bit-identical to the
  /// scalar loop (pinned by tests/test_batched.cpp); only wall-clock
  /// changes. Off = always run the scalar per-task loop (A/B benches).
  bool batched_execution = true;
  /// Memoize placement decisions per (current allocation, n_tasks) pair
  /// within a run — PlacementPolicy::decide is required to be pure (see
  /// scheduler.hpp), so repeated slice states skip the LUT probe and
  /// movement planning. Byte-identical results; off for A/B benches.
  bool memoize_decisions = true;
  /// RISC-V host co-simulation (off by default; see HostConfig).
  HostConfig host{};
};

/// Per-slice measurement record.
struct SliceStats {
  int slice = 0;
  int tasks_executed = 0;
  placement::Allocation alloc;
  Time movement_time;
  Time busy_time;              ///< from slice start to last task completion
  Energy energy;               ///< everything charged during this slice
  bool deadline_violated = false;
  /// Host-core cycles retired this slice (0 unless SystemConfig::host is
  /// enabled). Host energy is already included in `energy`; host time is
  /// bookkeeping overhead and deliberately not part of `busy_time` (the PIM
  /// deadline path).
  std::uint64_t host_cycles = 0;
};

struct RunStats {
  std::vector<SliceStats> slices;
  Energy total_energy;
  std::uint64_t tasks = 0;
  std::uint64_t deadline_violations = 0;
  Time total_time;

  [[nodiscard]] Energy mean_slice_energy() const;
};

/// The effective (scaled) hardware spec a `config` resolves to.
[[nodiscard]] energy::PowerSpec resolved_power_spec(const SystemConfig& config);

/// The slice length T a Processor built from (config, model) will use,
/// computed without constructing the Processor (no clusters, no LUT build).
/// The experiment runner uses this to pin every architecture in a grid cell
/// to the HH-PIM slice before any run starts.
[[nodiscard]] Time derived_slice_length(const SystemConfig& config, const nn::Model& model);

/// Component inventory — our substitute for the paper's Table II (FPGA
/// resource usage has no simulator equivalent; see DESIGN.md).
struct Inventory {
  std::size_t hp_modules = 0, lp_modules = 0;
  std::size_t mram_banks = 0, sram_banks = 0, pes = 0, controllers = 0;
  std::uint64_t mram_bytes = 0, sram_bytes = 0;
  std::size_t instruction_queue_depth = 0;
};

class Processor {
 public:
  Processor(const SystemConfig& config, const nn::Model& model);
  ~Processor();  // out-of-line: HostState is incomplete here

  /// Executes one slice: runs `n_tasks` buffered inferences. Advances the
  /// internal clock by (at least) one slice.
  SliceStats run_slice(int n_tasks);

  /// Online adaptation hook (hhpim::fleet): from the next run_slice on, pin
  /// the placement to `alloc` instead of consulting the constructed policy.
  /// Movement toward the pinned placement is planned and charged exactly
  /// like a policy decision (weights migrate once, then stay). `alloc` must
  /// total the model's weights and fit the architecture's capacities
  /// (throws std::invalid_argument otherwise). Pass std::nullopt to resume
  /// the constructed policy — e.g. HH-PIM's dynamic LUT placement.
  void set_placement_override(const std::optional<placement::Allocation>& alloc);
  [[nodiscard]] bool placement_override_active() const {
    return override_.has_value();
  }

  /// Executes a whole scenario: loads[k] inferences arrive in slice k and
  /// execute in slice k+1; one trailing slice drains the buffer.
  RunStats run_scenario(const std::vector<int>& loads);

  /// Re-arms the processor to its just-constructed state: ledger zeroed,
  /// clusters/banks/PEs/allocators back to pristine power and counter
  /// state, clock and slice index at zero, any placement override and memo
  /// cleared, and the policy's initial residency re-applied. Subsequent
  /// runs produce bit-identical results to a freshly constructed Processor
  /// (pinned by tests/test_batched.cpp) — this is what lets exp::Runner and
  /// fleet::FleetSimulator reuse one Processor per (config, model) per
  /// worker instead of paying CostModel::build + cluster construction per
  /// run. Cost: O(components); no allocation, no LUT work.
  void reset();

  /// FNV digest of every piece of mutable state that determines future
  /// behavior, with times translated relative to the internal clock. Two
  /// processors built from the same processor_reuse_key inputs whose
  /// state_digest() agree at a slice boundary produce bit-identical
  /// SliceStats (and equal successor digests) for equal run_slice inputs —
  /// the invariant the fleet's device-level outcome memo
  /// (fleet::OutcomeCache) is keyed on; pinned by tests/test_outcome_memo.
  /// Cumulative counters, the ledger, now_ and the slice index are excluded
  /// (history / translation-invariant); the decision memo is excluded
  /// because decisions are pure. Meaningful at slice boundaries (after
  /// construction, reset() or run_slice) — mid-operation state is not
  /// digested.
  [[nodiscard]] std::uint64_t state_digest() const;

  /// Checkpoint save: serializes exactly the mutable state state_digest()
  /// walks (allocation, override, cluster/xfer component state with times
  /// relative to the internal clock) plus the slice index — everything a
  /// load_state() needs to resume at a slice boundary. Call only at slice
  /// boundaries (after construction, reset() or run_slice), like
  /// state_digest(). History (cumulative counters, the ledger, now_) is
  /// deliberately not saved: slice energy is window-based and all times are
  /// stored relative, so a restored processor continues bit-identically
  /// with its clock rebased to zero (tests/test_snapshot.cpp pins this).
  void save_state(ByteWriter& w) const;

  /// Inverse of save_state(). Must be called on a freshly constructed or
  /// reset() Processor built from the same processor_reuse_key inputs.
  /// Throws std::runtime_error when the blob's component shape does not
  /// match this processor's (wrong arch/model for the snapshot). The
  /// decision memo starts cold — decisions are pure, so warmth is a
  /// wall-clock concern, never a behavioral one.
  void load_state(ByteReader& r);

  [[nodiscard]] Time slice_length() const { return slice_; }
  [[nodiscard]] const placement::CostModel& cost_model() const { return cost_; }
  [[nodiscard]] const energy::EnergyLedger& ledger() const { return ledger_; }
  [[nodiscard]] const placement::Allocation& current_allocation() const { return current_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  /// The LUT (HH-PIM only; nullptr otherwise).
  [[nodiscard]] const placement::AllocationLut* lut() const;

  /// Total model weights K (the quantity every Allocation must sum to).
  [[nodiscard]] std::uint64_t total_weights() const { return weights_; }

  /// Minimum achievable task time (peak performance point).
  [[nodiscard]] Time peak_task_time() const;
  /// Task time with weights only in MRAM (the H-PIM-style purple point of
  /// Fig. 6); returns zero for architectures without MRAM.
  [[nodiscard]] Time mram_only_task_time() const;

  [[nodiscard]] Inventory inventory() const;

 private:
  void apply_movement(const placement::MovementPlan& plan);
  void apply_residency(const placement::Allocation& alloc);
  /// SliceDecision for a pinned (override) placement; mirrors StaticPolicy
  /// but plans/charges movement from the current residency.
  [[nodiscard]] SliceDecision decide_override(const placement::Allocation& target,
                                              int n_tasks) const;
  /// The slice's decision — memoized per (current allocation, n_tasks) when
  /// `memoize_decisions` is on, computed fresh otherwise.
  [[nodiscard]] const SliceDecision& slice_decision(int n_tasks);
  /// Per-space MAC shares of one task under the current placement. Shares
  /// sum to exactly pim_macs_ (largest-remainder rounding). Returns false
  /// when there is nothing to compute.
  bool task_shares(std::array<std::uint64_t, placement::kSpaceCount>& macs) const;
  /// Runs one task (shares precomputed by task_shares) starting at `start`;
  /// returns its completion time.
  Time run_task(Time start,
                const std::array<std::uint64_t, placement::kSpaceCount>& macs);
  /// Runs the slice's `n_tasks` identical tasks starting at `cursor`:
  /// scalar for n <= 2 (and when batching is off), otherwise via
  /// pim::Cluster::compute_batch (single active space) or the generic
  /// record/replay steady-state kernel (task 1 absorbs boundary state,
  /// task 2 is recorded, tasks 3..n replayed). Bit-identical to the scalar
  /// loop; see docs/PERF.md.
  Time run_tasks_batched(Time cursor, int n_tasks);
  /// Re-runs the host scheduler program for this slice (host enabled only):
  /// zeroes the register file, sets sp/a0, resumes at pc 0, requires an
  /// ECALL halt, posts host energy into the ledger. Returns cycles retired.
  std::uint64_t run_host_slice(int n_tasks);

  [[nodiscard]] pim::Cluster* cluster_of(placement::Space s);

  SystemConfig config_;
  energy::PowerSpec spec_;
  std::uint64_t weights_;       ///< K
  std::uint64_t pim_macs_;      ///< per task
  placement::CostModel cost_;
  Time slice_;
  energy::EnergyLedger ledger_;
  std::optional<pim::Cluster> hp_;
  std::optional<pim::Cluster> lp_;
  std::unique_ptr<pim::DataAllocator> xfer_;   ///< inter-cluster path
  std::unique_ptr<PlacementPolicy> policy_;
  const placement::AllocationLut* lut_view_ = nullptr;
  std::optional<placement::Allocation> override_;  ///< pinned placement, if any
  placement::Allocation current_;
  Time now_ = Time::zero();
  int slice_index_ = 0;

  /// Decision memo: (current allocation, n_tasks) -> SliceDecision. Small
  /// and linearly scanned — steady-state runs cycle through a handful of
  /// (alloc, load) pairs. Cleared by reset() and set_placement_override().
  struct MemoEntry {
    placement::Allocation current;
    int n_tasks = 0;
    SliceDecision decision;
  };
  static constexpr std::size_t kMemoCapacity = 64;
  std::vector<MemoEntry> memo_;
  SliceDecision scratch_decision_;  ///< fallback when the memo is bypassed

  // Scratch buffers for the batched kernel, reused across slices.
  std::vector<energy::RecordedPost> replay_posts_;
  std::vector<pim::ModuleCounters> probe_;

  /// Host co-simulation state (RAM + bus + block engine + initial image);
  /// null unless config.host.enabled.
  struct HostState;
  std::unique_ptr<HostState> host_;
};

/// Digest of every (config, model) field that determines a Processor's
/// behavior — equal keys mean a reset() Processor built from one pair is
/// bit-exchangeable for a fresh Processor built from the other. Used by the
/// shared processor checkout pool (sys::ProcessorPool) of the experiment
/// runner and the fleet simulator.
[[nodiscard]] std::uint64_t processor_reuse_key(const SystemConfig& config,
                                                const nn::Model& model);

}  // namespace hhpim::sys
