// Process-wide, thread-safe memo of whole-device slice outcomes.
//
// Most devices of a fleet share (arch config, model, placement-decision
// stream) and differ only in seed jitter and battery trajectory. A slice's
// outcome — energy requested, busy/movement time, deadline flag, and the
// processor state it leaves behind — is a pure function of the processor's
// behavior-relevant state at the slice boundary (sys::Processor::
// state_digest), the placement mode the adaptation loop picked, and the
// number of buffered tasks. Battery state never enters: the SoC only
// influences a slice *through* the hysteresis mode decision, which is an
// exact field of the key, and the drain clamp is re-applied at replay time.
// That is what lets the fleet replay memoized outcomes byte-identically to
// the scalar Device::run path (pinned by tests/test_outcome_memo.cpp).
//
// Key anatomy (docs/PERF.md "Device-level memoization"):
//   reuse_key  sys::processor_reuse_key(config, model) — which machine
//   state      Processor::state_digest() before the slice — where it is
//   slo_ps     the device's latency SLO (the frontier the policy picks from)
//   n_tasks    the exact buffered-task count (the "load bucket")
//   mode       fleet::DeviceMode for the slice (the "SoC bucket")
//   tier       fleet::FrontierTier pinned for the slice (the "SLO bucket")
// The buckets are exact, not approximations: two devices fall into the same
// bucket only when the simulator would compute bit-identical slices for
// them, so memoization changes wall-clock, never output.
//
// Concurrency: the memo is a SnapshotMap (common/snapshot_map.hpp, the
// protocol is described in docs/PERF.md "Parallel scaling") — a hit is one
// acquire load plus a hash lookup, no lock. The fleet inserts one batch per
// shard with new keys, first writer wins per key; racing inserts of the same
// key are benign because honest writers compute identical values. A pointer
// returned by find() stays valid for the cache's lifetime, even across
// clear(). Hit and miss counts belong to the run that looks up
// (FleetResult::memo_hits/memo_misses), not to the cache.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/snapshot_map.hpp"

namespace hhpim::fleet {

/// Value-semantic memo key; equality compares every field, so outcomes are
/// never shared across distinct machines, states, loads, modes or SLO
/// placements.
///
/// `slo_ps`/`tier` exist because the SLO policy's frontier pick is decided
/// *before* the slice runs: on the first slice the `state` digest predates
/// the override the tier is about to install, so without these fields two
/// devices with different SLOs (or different tiers at the same state) would
/// share a bucket and replay each other's outcomes. Both are 0 whenever the
/// device has no SLO, which keeps pre-SLO keys' contents unchanged.
struct SliceOutcomeKey {
  std::uint64_t reuse_key = 0;  ///< sys::processor_reuse_key(config, model)
  std::uint64_t state = 0;      ///< Processor::state_digest() before the slice
  std::int64_t slo_ps = 0;      ///< DeviceSpec::latency_slo_ps (0 = no SLO)
  std::uint32_t n_tasks = 0;    ///< buffered tasks executed this slice
  std::uint8_t mode = 0;        ///< fleet::DeviceMode for the slice
  std::uint8_t tier = 0;        ///< fleet::FrontierTier pinned (0 when no SLO)

  [[nodiscard]] bool operator==(const SliceOutcomeKey&) const = default;

  struct Hash {
    [[nodiscard]] std::size_t operator()(const SliceOutcomeKey& k) const {
      Fnv1a h;
      h.add(k.reuse_key)
          .add(k.state)
          .add(k.slo_ps)
          .add(static_cast<std::uint64_t>(k.n_tasks))
          .add(static_cast<std::uint64_t>(k.mode))
          .add(static_cast<std::uint64_t>(k.tier));
      return static_cast<std::size_t>(h.digest());
    }
  };
};

/// Everything a replayed slice contributes to a device run. `energy_pj` is
/// the *requested* slice energy (sys::SliceStats::energy) — the battery's
/// drain clamp is re-applied per device at replay time, which is also how
/// exhaustion-boundary slices are detected and routed to the exact path.
struct SliceOutcome {
  double energy_pj = 0.0;
  std::int64_t busy_ps = 0;
  std::int64_t movement_ps = 0;
  std::uint64_t post_state = 0;   ///< state_digest() after the slice
  std::uint64_t host_cycles = 0;  ///< host-core cycles (0 when host disabled)
  bool deadline_violated = false;
};

/// Per-device recording sink for the exact path: Device::run chains
/// state digests across its slices and appends one (key, outcome) pair per
/// slice. The buffer is reused across devices (clear(), capacity retained);
/// the shard appends it to its pending batch when the device completes and
/// inserts that batch once, at shard end.
struct OutcomeRecorder {
  std::uint64_t reuse_key = 0;
  std::vector<std::pair<SliceOutcomeKey, SliceOutcome>> recorded;
};

/// Thread-safe memo of slice outcomes. One instance is process-wide
/// (process_cache()); tests and benchmarks construct private instances.
class OutcomeCache
    : public SnapshotMap<SliceOutcomeKey, SliceOutcome, SliceOutcomeKey::Hash> {
 public:
  /// The process-wide instance FleetSimulator uses by default.
  [[nodiscard]] static OutcomeCache& process_cache() {
    static OutcomeCache cache;
    return cache;
  }
};

}  // namespace hhpim::fleet
