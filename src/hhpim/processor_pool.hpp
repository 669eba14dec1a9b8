// Thread-safe checkout pool of reusable sys::Processors, shared by every
// worker of an exp::Runner grid or a fleet::FleetSimulator run.
//
// Processors are keyed by processor_reuse_key(config, model). checkout()
// pops an idle processor (Processor::reset() and construction both happen
// outside the lock) or constructs one, so runs and devices sharing a
// (model, arch, config) stop paying CostModel::build + cluster construction
// each; the Lease returns it on destruction. Sharing one pool bounds
// constructions per key by the peak number of concurrent leases of that
// key — per-worker pools would construct workers × keys processors, which
// is what made oversubscribed workers slower than one. Results are
// bit-identical to fresh construction (pinned by tests/test_batched.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "hhpim/processor.hpp"

namespace hhpim::sys {

class ProcessorPool {
 public:
  /// RAII checkout: returns the processor to the pool when destroyed or
  /// move-assigned over.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    /// The leased processor, in just-constructed state at checkout.
    [[nodiscard]] Processor& get() const { return *proc_; }
    /// True when the lease holds a processor.
    [[nodiscard]] bool held() const { return proc_ != nullptr; }
    /// The processor_reuse_key the processor was checked out under.
    [[nodiscard]] std::uint64_t key() const { return key_; }

   private:
    friend class ProcessorPool;
    Lease(ProcessorPool* pool, std::uint64_t key, std::unique_ptr<Processor> proc);
    ProcessorPool* pool_ = nullptr;
    std::uint64_t key_ = 0;
    std::unique_ptr<Processor> proc_;
  };

  /// A processor for (config, model) in just-constructed state.
  /// `config.lut_cache` must already be resolved by the caller (it is part
  /// of the key). Safe to call from any thread.
  [[nodiscard]] Lease checkout(const SystemConfig& config, const nn::Model& model);

  /// Same, with `key` == processor_reuse_key(config, model) precomputed by
  /// a caller that checks out the same pair many times.
  [[nodiscard]] Lease checkout(std::uint64_t key, const SystemConfig& config,
                               const nn::Model& model);

  /// Idle processors currently pooled (leased ones excluded).
  [[nodiscard]] std::size_t size() const;

 private:
  void give_back(std::uint64_t key, std::unique_ptr<Processor> proc);

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<Processor>>> idle_;
};

}  // namespace hhpim::sys
