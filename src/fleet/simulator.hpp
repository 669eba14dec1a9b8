// The streaming fleet simulator: N independent devices sharded across a
// fixed worker pool.
//
// Execution model (mirrors exp::Runner, at shard granularity). There is one
// engine: run() is the final segment from slice 0 with no snapshot, and
// run_to()/resume() are its bounded and final segments from a snapshot.
//
//   * expand() derives DeviceSpecs single-threaded; devices are grouped
//     into fixed-size shards (FleetOptions::shard_size). Shard boundaries
//     depend only on the spec and options — never on the thread count.
//   * Workers claim batches of consecutive shard indices from a shared
//     atomic counter (FleetOptions::claim_batch) and walk each shard's
//     devices in id order, accumulating one FleetAggregate per shard. Shard
//     aggregate slots are cache-line aligned so sibling workers never
//     false-share a line, and never more workers than shards are spawned
//     (resolve_workers). Processors come from one sys::ProcessorPool shared
//     by all workers (FleetOptions::reuse_processors).
//   * Each device takes one of four ways through the shard loop:
//       - finished in an earlier segment: its stored result is added to
//         the aggregate (its slices are in the snapshot's SliceAggregate);
//       - started in an earlier segment: restored and run to completion on
//         the exact Device path;
//       - in a bounded segment (run_to): run up to the segment end on the
//         exact path, its slices folded into the returned snapshot's
//         SliceAggregate;
//       - starting and finishing inside this call (all of run()'s): with
//         FleetOptions::memoize_devices, advanced through the device
//         outcome memo (fleet::OutcomeCache) in SoA lanes — a memo hit
//         advances a lane without touching a sys::Processor. Devices that
//         miss (cold keys, exhaustion-boundary slices) fall back to the
//         exact path, recording their outcomes for everyone after them.
//     Every executed slice folds into its shard's aggregate where it runs —
//     a memo lane in phase 1, the exact path, a bounded segment — since
//     the slice statistics merge exactly in any order.
//         Replayed output is byte-identical to the exact path (see
//         docs/PERF.md "Device-level memoization").
//   * When FleetOptions::shard_dir is set, each worker streams its shard's
//     device lines to <dir>/shard-NNNNN.jsonl as the shard completes — a
//     fleet of millions never holds all results in memory
//     (keep_results = false drops them after the shard file is written).
//   * After the pool joins, shard aggregates merge in shard-index order
//     (the per-device Summaries are the one order-sensitive part).
//
// Determinism: device results depend only on the DeviceSpec (loads are
// generated from its scenario config; the only shared objects are the
// placement::LutCache and the OutcomeCache, whose entries are immutable),
// shard contents depend only on shard index, and the merge order is fixed —
// so JSONL shards, to_jsonl() and summary_to_json() are byte-identical at
// any thread count, with the memo on or off, with a cold or a warm LUT
// cache, and one-shot or segmented. tests/test_fleet.cpp and
// tests/test_snapshot.cpp pin this.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fleet/aggregate.hpp"
#include "fleet/device.hpp"
#include "fleet/snapshot.hpp"
#include "fleet/spec.hpp"

namespace hhpim::placement {
class LutCache;  // placement/lut_cache.hpp — only a pointer is stored here
}

namespace hhpim::fleet {

class OutcomeCache;  // fleet/outcome_cache.hpp

struct FleetOptions {
  /// Worker threads. 0 = one per hardware thread (min 1); 1 = run inline.
  unsigned threads = 0;
  /// Devices per shard: the unit of work claiming, JSONL file granularity
  /// and aggregate merging. Smaller shards balance load better; larger
  /// shards mean fewer files. Must be >= 1 (clamped).
  std::size_t shard_size = 256;
  /// Share placement LUTs across devices (devices with the same model/arch
  /// resolve to one build). Results are byte-identical with sharing on or
  /// off; only wall-clock changes.
  bool share_luts = true;
  /// Cache used when `share_luts` (not owned; must outlive the run).
  /// nullptr = the process-wide placement::LutCache::process_cache().
  placement::LutCache* lut_cache = nullptr;
  /// When non-empty: write <shard_dir>/shard-NNNNN.jsonl while the run
  /// progresses (the directory must exist; open/write failures are
  /// reported as std::runtime_error after all shards finish). Each worker
  /// formats its shard into a private memory buffer and writes the file in
  /// one call — stream handoff never blocks a sibling worker.
  std::string shard_dir;
  /// Shards claimed per atomic fetch_add (the work-claiming granularity).
  /// Larger batches cut claim traffic on the shared counter; smaller
  /// batches balance the tail. 0 = auto: ~8 claims per worker
  /// (resolve_claim_batch). Output is byte-identical at any value.
  std::size_t claim_batch = 0;
  /// Retain per-device results in FleetResult::devices. Turn off for very
  /// large fleets streamed to shard files — aggregates are kept either way.
  bool keep_results = true;
  /// Reuse sys::Processors across devices: devices sharing the fleet
  /// config and a model run on a reset() processor instead of paying
  /// CostModel::build + cluster construction each (Processor::reset ==
  /// fresh construction; pinned by tests/test_batched.cpp). Processors
  /// live in a checkout pool shared by all workers, so the number
  /// constructed is bounded by the peak per-model overlap — not by
  /// workers × models as per-worker pools would be. Results are
  /// byte-identical with reuse on or off; only wall-clock changes.
  bool reuse_processors = true;
  /// Device-level outcome memoization (fleet::OutcomeCache): devices whose
  /// per-slice (processor state, mode, load) keys are all warm replay from
  /// SoA hot-state lanes without constructing or running a Processor;
  /// misses fall back to the exact Device::run path and record for later
  /// devices. Output is byte-identical with memoization on or off at any
  /// thread count (pinned by tests/test_outcome_memo.cpp); only wall-clock
  /// changes.
  bool memoize_devices = true;
  /// Cache used when `memoize_devices` (not owned; must outlive the run).
  /// nullptr = the process-wide fleet::OutcomeCache::process_cache().
  OutcomeCache* outcome_cache = nullptr;
};

struct FleetResult {
  std::string fleet_name;
  /// Per-device results in device-id order (empty when !keep_results).
  std::vector<DeviceResult> devices;
  /// The run's model-name table: DeviceResult::model_index points in here
  /// (the FleetSpec's resolved model population, in order). Interning the
  /// name at the spec level is what keeps DeviceResult allocation-free.
  std::vector<std::string> model_names;
  FleetAggregate aggregate;
  std::size_t shard_count = 0;
  std::size_t shard_size = 0;
  /// LUT-cache economy of the fleet, a function of the spec alone (both 0
  /// when share_luts is off): `lut_builds` is the number of distinct
  /// LUT-cache keys over the HH-PIM (firmware, model) pairs the devices use
  /// — what a cold cache builds — and `lut_shared` the HH-PIM devices minus
  /// that number. Neither depends on threads, processor reuse, the memo,
  /// segmenting, or how warm the cache is. builds ≪ devices is the fleet's
  /// whole economy.
  std::uint64_t lut_builds = 0;
  std::uint64_t lut_shared = 0;

  /// Device-memo economy of this call (zero when memoization is off). The
  /// replayed/exact split is deterministic at one thread; hit/miss counts
  /// vary with worker interleaving and cache warmth — which is exactly why
  /// none of these appear in summary_to_json() (the summary must stay
  /// byte-identical at any thread count and with the memo toggled). Devices
  /// that finished in an earlier segment count in neither; devices resumed
  /// from a snapshot count as exact.
  std::uint64_t memo_replayed_devices = 0;  ///< advanced wholly via the memo
  std::uint64_t memo_exact_devices = 0;     ///< ran the exact Device path
  /// This run's own memo lookups, counted per shard: another run sharing
  /// the OutcomeCache never shows up in them.
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;

  /// One compact JSON object per device, '\n'-separated (JSON Lines).
  /// Byte-identical to the concatenation of the run's shard files.
  void write_jsonl(std::ostream& os) const;
  [[nodiscard]] std::string to_jsonl() const;

  /// Fleet-wide aggregate metrics (counters, energy/SoC summaries,
  /// p50/p95/p99 of slice busy fraction and per-slice energy).
  void write_summary_json(std::ostream& os) const;
  [[nodiscard]] std::string summary_to_json() const;
};

/// Writes one device's compact JSONL line (shared by shard streaming and
/// FleetResult::write_jsonl so the bytes agree). `model_names` resolves
/// DeviceResult::model_index (FleetResult::model_names). Appends '\n'.
void write_device_line(std::ostream& os, const DeviceResult& r,
                       const std::vector<std::string>& model_names);

class FleetSimulator {
 public:
  explicit FleetSimulator(FleetOptions options = {});

  /// Expands and executes the fleet: the final segment from slice 0, with
  /// no snapshot. Propagates the first device/shard exception (other
  /// shards still complete).
  [[nodiscard]] FleetResult run(const FleetSpec& spec) const;

  /// Checkpointed execution: advances the fleet through global slices
  /// [from ? from->next_slice : 0, end_slice) and returns the fleet state
  /// at that boundary. `end_slice` must lie in (start, spec.slices]; the
  /// trailing drain slices belong to the final segment (resume). Bounded
  /// segments run the exact Device path (to which the memo path is
  /// byte-identical), folding their slices into the snapshot's
  /// SliceAggregate; no JSONL or device aggregates are produced until
  /// resume(). The snapshot is pinned to
  /// FleetSpec::content_digest() — run_to/resume throw std::runtime_error
  /// on a digest mismatch, std::invalid_argument on a bad window.
  [[nodiscard]] FleetSnapshot run_to(const FleetSpec& spec, int end_slice,
                                     const FleetSnapshot* from = nullptr) const;

  /// Final segment: resumes `from` and runs every device to completion
  /// (remaining arrival slices plus the drain slices). Devices the snapshot
  /// has not started yet go through the outcome memo like run()'s; resumed
  /// devices run the exact path. The FleetResult — devices, aggregate,
  /// JSONL shard files, summary JSON, lut_builds/lut_shared — is
  /// byte-identical to run() on the same spec and options at any thread
  /// count. `from` is read in place, never copied.
  [[nodiscard]] FleetResult resume(const FleetSpec& spec,
                                   const FleetSnapshot& from) const;

  [[nodiscard]] const FleetOptions& options() const { return options_; }
  /// The cache this run will use (nullptr when sharing is off).
  [[nodiscard]] placement::LutCache* resolve_lut_cache() const;
  /// The device-outcome memo this run will use (nullptr when memoization
  /// is off).
  [[nodiscard]] OutcomeCache* resolve_outcome_cache() const;
  [[nodiscard]] static unsigned resolve_threads(unsigned requested);
  /// Workers actually spawned for a `requested` thread count over `shards`
  /// shards: min(resolve_threads(requested), shards), at least 1. Surplus
  /// workers would only contend on the claim counter and error mutex.
  [[nodiscard]] static unsigned resolve_workers(unsigned requested,
                                                std::size_t shards);
  /// The shard-claim batch a `requested` FleetOptions::claim_batch value
  /// resolves to: the request itself, or for 0 (auto) the largest batch
  /// that still gives every worker ~8 claims (min 1).
  [[nodiscard]] static std::size_t resolve_claim_batch(std::size_t requested,
                                                       std::size_t shards,
                                                       unsigned workers);

 private:
  /// The one engine of run/run_to/resume: one segment over global slices
  /// [from ? from->next_slice : 0, end_slice), or to completion when
  /// `final_out` is non-null (end_slice ignored). Returns the end-of-
  /// segment snapshot (empty for the final segment).
  FleetSnapshot run_segment(const FleetSpec& spec, int end_slice,
                            const FleetSnapshot* from,
                            FleetResult* final_out) const;

  FleetOptions options_;
};

}  // namespace hhpim::fleet
