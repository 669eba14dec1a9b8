#include "placement/lut_cache.hpp"

#include <exception>
#include <utility>

namespace hhpim::placement {

std::uint64_t cost_model_hash(const CostModel& m) {
  Fnv1a h;
  for (const SpaceCost& c : m.space) {
    h.add(c.time_per_weight.as_ps())
        .add(c.dyn_per_weight.as_pj())
        .add(c.leak_per_weight.as_mw())
        .add(static_cast<std::uint64_t>(c.capacity_weights))
        .add(c.read_latency.as_ps())
        .add(c.write_latency.as_ps())
        .add(c.read_energy.as_pj())
        .add(c.write_energy.as_pj())
        .add(static_cast<std::uint64_t>(c.modules));
  }
  h.add(m.uses_per_weight).add(static_cast<std::uint64_t>(m.gate_granularity_weights));
  return h.digest();
}

LutCacheKey LutCacheKey::make(std::uint64_t topology_hash, std::uint64_t arch_hash,
                              const CostModel& model, const LutParams& params) {
  LutCacheKey k;
  k.topology_hash = topology_hash;
  k.arch_hash = arch_hash;
  k.cost_hash = cost_model_hash(model);
  k.slice_ps = params.slice.as_ps();
  k.total_weights = params.total_weights;
  k.t_entries = params.t_entries;
  k.k_blocks = params.k_blocks;
  return k;
}

std::size_t LutCacheKey::Hash::operator()(const LutCacheKey& k) const {
  Fnv1a h;
  h.add(k.topology_hash)
      .add(k.arch_hash)
      .add(k.cost_hash)
      .add(k.slice_ps)
      .add(k.total_weights)
      .add(k.t_entries)
      .add(k.k_blocks);
  return static_cast<std::size_t>(h.digest());
}

std::shared_ptr<const AllocationLut> LutCache::get_or_build(const LutCacheKey& key,
                                                            const CostModel& model,
                                                            const LutParams& params) {
  // Fast path: the steady state — every warm key resolves here with one
  // acquire load and a lookup in an immutable map. No lock, no shared
  // writes beyond one relaxed counter.
  if (const auto* lut = ready_.find(key)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return *lut;
  }

  // Miss path: dedup through pending_ under the mutex, exactly as before.
  std::promise<std::shared_ptr<const AllocationLut>> promise;
  Future future;
  std::uint64_t my_gen = 0;
  bool builder = false;
  {
    const std::lock_guard<std::mutex> lock{mu_};
    // Re-check the snapshot: a builder may have published between our
    // lock-free probe and acquiring mu_.
    if (const auto* lut = ready_.find(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *lut;
    }
    const auto it = pending_.find(key);
    if (it != pending_.end()) {
      future = it->second.future;  // join the in-flight build; counted below
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      builder = true;
      my_gen = ++next_gen_;
      future = promise.get_future().share();
      pending_.emplace(key, Slot{future, my_gen});
    }
  }

  if (builder) {
    std::shared_ptr<const AllocationLut> lut;
    try {
      lut = std::make_shared<const AllocationLut>(AllocationLut::build(model, params));
    } catch (...) {
      {
        // Evict only our own slot: a concurrent clear() may already have
        // dropped it and a successor may have inserted a healthy build
        // under the same key.
        const std::lock_guard<std::mutex> lock{mu_};
        const auto it = pending_.find(key);
        if (it != pending_.end() && it->second.gen == my_gen) pending_.erase(it);
      }
      promise.set_exception(std::current_exception());
      throw;  // the builder's own call failed; its miss stays a miss
    }
    {
      const std::lock_guard<std::mutex> lock{mu_};
      const auto it = pending_.find(key);
      if (it != pending_.end() && it->second.gen == my_gen) {
        pending_.erase(it);
        // Copy-on-write publish: successors hit the new snapshot lock-free.
        const std::pair<LutCacheKey, std::shared_ptr<const AllocationLut>> entry{key, lut};
        ready_.insert({&entry, 1});
      }
      // gen mismatch: clear() ran mid-build — waiters still get the value,
      // but the slot was dropped, so the build is not published.
    }
    promise.set_value(lut);
    return lut;
  }

  // Waiter: the join is classified by the build's outcome, not counted as a
  // hit up front — a failed build must not inflate hits_.
  try {
    std::shared_ptr<const AllocationLut> lut = future.get();
    hits_.fetch_add(1, std::memory_order_relaxed);
    return lut;
  } catch (...) {
    failed_joins_.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

void LutCache::clear() {
  const std::lock_guard<std::mutex> lock{mu_};
  ready_.clear();
  pending_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  failed_joins_.store(0, std::memory_order_relaxed);
}

LutCache::Stats LutCache::stats() const {
  const std::lock_guard<std::mutex> lock{mu_};
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.failed_joins = failed_joins_.load(std::memory_order_relaxed);
  s.in_flight = pending_.size();
  s.entries = ready_.size() + pending_.size();
  return s;
}

LutCache& LutCache::process_cache() {
  static LutCache cache;
  return cache;
}

}  // namespace hhpim::placement
