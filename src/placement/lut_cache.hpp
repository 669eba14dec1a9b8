// Process-wide, thread-safe cache of placement LUTs.
//
// Building an AllocationLut is the expensive part of constructing an HH-PIM
// sys::Processor (Algorithms 1 & 2 per entry; tens of millions of DP cells
// at the default 128x128 resolution). Experiment grids construct one
// Processor per run, so a grid of N cells over M distinct (model, arch,
// cost, resolution) combinations would build the same LUT N/M times. The
// LutCache deduplicates that: LUTs are immutable after build, so all runs
// that agree on every build input share one instance by shared_ptr.
//
// Keying: a LUT is fully determined by (CostModel, LutParams) — the cache
// key digests every field of both. On top of that, callers fold in a model
// *topology* hash and an architecture-config hash (computed at the hhpim
// layer, where nn::Model and sys::ArchConfig are visible). Those extra
// fields are deliberately conservative: two models with equal weight totals
// but different layer structure hash differently and never share an entry,
// even though today's LUT build would coincide — correctness of sharing is
// keyed on inputs, not on derived quantities.
//
// Concurrency (see docs/PERF.md "Parallel scaling"): the cache is
// read-mostly — a fleet of a million devices resolves to a handful of warm
// entries — so the hit path must not serialize. Completed builds live in a
// SnapshotMap (common/snapshot_map.hpp): a hit is one acquire load + a hash
// lookup, no lock, no reference-count ping-pong on a shared control word.
// On the miss path a promise/shared_future dedups builds: the first
// requester builds outside the lock, concurrent requesters for the same key
// block on the future instead of duplicating the build. A build failure is
// rethrown to every waiter and the slot is removed so a later call can
// retry.
//
// Lifetime/ownership (see docs/ARCHITECTURE.md "Placement-LUT cache"):
// entries are shared_ptr<const AllocationLut>; the cache retains them until
// clear(), and consumers (DynamicLutPolicy) co-own them, so clear() never
// invalidates a running Processor.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/hash.hpp"
#include "common/snapshot_map.hpp"
#include "placement/lut.hpp"

namespace hhpim::placement {

/// Digest of every field of a CostModel (per-space times/energies/leakage/
/// capacities/module counts, uses_per_weight, gate granularity). Two cost
/// models with equal digests produce identical LUTs for identical LutParams.
[[nodiscard]] std::uint64_t cost_model_hash(const CostModel& m);

/// Value-semantic cache key. Equality compares every field, so two keys
/// collide only if all digests and all quantization parameters agree.
struct LutCacheKey {
  std::uint64_t topology_hash = 0;   ///< nn::Model::topology_hash() (0 if N/A)
  std::uint64_t arch_hash = 0;       ///< sys::ArchConfig::config_hash() (0 if N/A)
  std::uint64_t cost_hash = 0;       ///< cost_model_hash(model)
  std::int64_t slice_ps = 0;         ///< LutParams::slice
  std::uint64_t total_weights = 0;   ///< LutParams::total_weights
  int t_entries = 0;                 ///< t_constraint quantization
  int k_blocks = 0;                  ///< block quantization

  [[nodiscard]] bool operator==(const LutCacheKey&) const = default;

  /// Assembles a key from the LUT build inputs plus the caller's
  /// topology/arch digests.
  [[nodiscard]] static LutCacheKey make(std::uint64_t topology_hash,
                                        std::uint64_t arch_hash,
                                        const CostModel& model,
                                        const LutParams& params);

  struct Hash {
    [[nodiscard]] std::size_t operator()(const LutCacheKey& k) const;
  };
};

/// Thread-safe memo of built LUTs. One instance is process-wide
/// (process_cache()); tests and benchmarks construct private instances.
class LutCache {
 public:
  struct Stats {
    /// get_or_build calls served a completed LUT: snapshot fast-path hits
    /// plus waiters whose joined build succeeded. A waiter is counted only
    /// once its future resolves — joining an in-flight build that then
    /// fails is a failed_join, never a hit.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        ///< get_or_build calls that started a build
    std::uint64_t failed_joins = 0;  ///< waiters whose joined build threw
    std::size_t entries = 0;         ///< live slots (completed + in flight)
    std::size_t in_flight = 0;       ///< builds currently running
  };

  LutCache() = default;
  LutCache(const LutCache&) = delete;
  LutCache& operator=(const LutCache&) = delete;

  /// Returns the LUT for `key`, building it from (model, params) on first
  /// use. Warm keys are served lock-free. Blocks while another thread
  /// builds the same key. Throws whatever AllocationLut::build throws (all
  /// waiters see the exception; the failed slot is evicted). Precondition:
  /// (model, params) must be the inputs the key was made from — the cache
  /// trusts the key.
  [[nodiscard]] std::shared_ptr<const AllocationLut> get_or_build(
      const LutCacheKey& key, const CostModel& model, const LutParams& params);

  /// Drops all slots and resets counters. In-flight builds complete
  /// normally for their waiters but are not published; consumers keep
  /// their shared_ptrs alive independently. Note: the SnapshotMap retires
  /// superseded snapshots rather than freeing them, so a cleared entry's
  /// LUT is released only when the cache itself is destroyed (memory stays
  /// proportional to builds actually performed).
  void clear();

  [[nodiscard]] Stats stats() const;

  /// The process-wide instance shared by default across exp::Runner grids.
  [[nodiscard]] static LutCache& process_cache();

 private:
  using Future = std::shared_future<std::shared_ptr<const AllocationLut>>;
  /// `gen` disambiguates in-flight slots under the same key across
  /// clear()/eviction: a failed builder evicts only the slot it inserted,
  /// never a successor's.
  struct Slot {
    Future future;
    std::uint64_t gen = 0;
  };

  /// Completed builds; read lock-free. Published under mu_, so a key is
  /// never both ready and pending.
  SnapshotMap<LutCacheKey, std::shared_ptr<const AllocationLut>, LutCacheKey::Hash>
      ready_;

  mutable std::mutex mu_;  ///< guards pending_ and publishing into ready_
  std::unordered_map<LutCacheKey, Slot, LutCacheKey::Hash> pending_;
  std::uint64_t next_gen_ = 0;

  // Counter increments race only with each other; relaxed is enough.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> failed_joins_{0};
};

}  // namespace hhpim::placement
