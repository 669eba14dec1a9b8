// Device-level outcome memoization suite: the OutcomeCache key/value
// semantics (exact buckets, first-writer-wins, pointer stability across
// clear()), the processor state digest it keys on, and the subsystem's
// load-bearing property — fleet output with memoization on is byte-identical
// to the scalar Device::run path at any thread count, cold or warm, and
// exhausted devices always take the exact path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim::fleet {
namespace {

/// A small fleet that runs in milliseconds: one model, low LUT resolution.
FleetSpec small_fleet(int devices = 24, int slices = 6) {
  FleetSpec spec;
  spec.name = "memo-fleet";
  spec.devices = devices;
  spec.slices = slices;
  spec.models = {nn::zoo::efficientnet_b0()};
  spec.config.lut_t_entries = 16;
  spec.config.lut_k_blocks = 16;
  return spec;
}

FleetResult run_with(const FleetSpec& spec, unsigned threads,
                     placement::LutCache* luts, OutcomeCache* memo) {
  FleetOptions opts;
  opts.threads = threads;
  opts.shard_size = 4;
  opts.lut_cache = luts;
  opts.memoize_devices = memo != nullptr;
  opts.outcome_cache = memo;
  return FleetSimulator{opts}.run(spec);
}

// --- cache semantics ---------------------------------------------------------

TEST(OutcomeCache, FindInsertClear) {
  OutcomeCache cache;
  const SliceOutcomeKey key{7, 42, 3, 1};
  EXPECT_EQ(cache.find(key), nullptr);  // a miss is null

  std::vector<std::pair<SliceOutcomeKey, SliceOutcome>> batch;
  batch.push_back({key, SliceOutcome{100.0, 5, 2, 99, 0, true}});
  EXPECT_EQ(cache.insert(batch), 1u);
  const SliceOutcome* hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->energy_pj, 100.0);
  EXPECT_EQ(hit->busy_ps, 5);
  EXPECT_EQ(hit->post_state, 99u);
  EXPECT_TRUE(hit->deadline_violated);
  EXPECT_EQ(cache.size(), 1u);

  // First writer wins: a conflicting re-insert adds no key and leaves the
  // value alone.
  batch[0].second.energy_pj = -1.0;
  EXPECT_EQ(cache.insert(batch), 0u);
  EXPECT_EQ(cache.find(key), hit);
  EXPECT_DOUBLE_EQ(hit->energy_pj, 100.0);

  // A batch with one new key republishes; the old pointer stays valid.
  const SliceOutcomeKey other{7, 43, 3, 1};
  batch.push_back({other, SliceOutcome{200.0, 6, 2, 98, 0, false}});
  EXPECT_EQ(cache.insert(batch), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_DOUBLE_EQ(hit->energy_pj, 100.0);
  EXPECT_DOUBLE_EQ(cache.find(other)->energy_pj, 200.0);

  // clear() forgets the keys, but outcomes already handed out stay valid
  // (snapshots are retired, never freed), also across later inserts.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_DOUBLE_EQ(hit->energy_pj, 100.0);
  EXPECT_EQ(cache.insert(batch), 2u);
  EXPECT_DOUBLE_EQ(hit->energy_pj, 100.0);
  EXPECT_DOUBLE_EQ(cache.find(key)->energy_pj, -1.0);  // a new first writer
}

TEST(OutcomeCache, KeysSeparateOnEveryField) {
  OutcomeCache cache;
  const SliceOutcomeKey key{7, 42, 3, 1};
  std::vector<std::pair<SliceOutcomeKey, SliceOutcome>> batch;
  batch.push_back({key, SliceOutcome{}});
  cache.insert(batch);

  ASSERT_NE(cache.find(key), nullptr);
  // Exact buckets: changing any field — machine, state digest, buffered
  // load, or mode — is a different key, never a fuzzy match.
  EXPECT_EQ(cache.find({8, 42, 3, 1}), nullptr);
  EXPECT_EQ(cache.find({7, 43, 3, 1}), nullptr);
  EXPECT_EQ(cache.find({7, 42, 4, 1}), nullptr);
  EXPECT_EQ(cache.find({7, 42, 3, 0}), nullptr);
}

// --- the digest the key is built on ------------------------------------------

TEST(ProcessorDigest, EqualWhenFreshOrReset_DivergesUnderLoad) {
  const FleetSpec spec = small_fleet(1, 4);
  placement::LutCache luts;
  sys::SystemConfig config = spec.config;
  config.lut_cache = &luts;

  sys::Processor a{config, spec.models[0]};
  sys::Processor b{config, spec.models[0]};
  const std::uint64_t fresh = a.state_digest();
  EXPECT_EQ(fresh, b.state_digest());  // same machine, same boundary state

  (void)a.run_slice(2);
  EXPECT_NE(a.state_digest(), fresh);  // residency/occupancy moved

  a.reset();
  EXPECT_EQ(a.state_digest(), fresh);  // reset() == fresh construction
}

// --- fleet byte-identity -----------------------------------------------------

TEST(OutcomeMemo, ByteIdenticalToScalarPathAcrossThreads) {
  const FleetSpec spec = small_fleet(24, 5);
  placement::LutCache ref_luts;
  const FleetResult ref = run_with(spec, 1, &ref_luts, nullptr);
  ASSERT_FALSE(ref.to_jsonl().empty());

  for (const unsigned threads : {1u, 2u, 8u}) {
    placement::LutCache luts;
    OutcomeCache memo;
    const FleetResult r = run_with(spec, threads, &luts, &memo);
    EXPECT_EQ(r.to_jsonl(), ref.to_jsonl()) << "threads=" << threads;
    EXPECT_EQ(r.summary_to_json(), ref.summary_to_json())
        << "threads=" << threads;
    EXPECT_EQ(r.lut_builds, ref.lut_builds) << "threads=" << threads;
    // Every device went one way or the other.
    EXPECT_EQ(r.memo_replayed_devices + r.memo_exact_devices,
              static_cast<std::uint64_t>(spec.devices));
  }
}

TEST(OutcomeMemo, WarmCacheReplaysEveryDeviceByteIdentically) {
  FleetSpec spec = small_fleet(24, 5);
  // Non-exhausting battery: exhaustion-boundary devices are pinned to the
  // exact path by design (see the exhaustion test below), and this test
  // wants the all-replay steady state.
  spec.battery.capacity = Energy::mj(5000.0);
  // One LUT cache for every run: outcome keys embed the lut_cache pointer
  // (sys::processor_reuse_key), so a per-run cache would cold-start the
  // memo each time. Warm it first so no compared run pays a LUT build.
  placement::LutCache luts;
  (void)run_with(spec, 1, &luts, nullptr);
  const FleetResult ref = run_with(spec, 1, &luts, nullptr);

  OutcomeCache memo;
  const FleetResult cold = run_with(spec, 1, &luts, &memo);
  EXPECT_EQ(cold.to_jsonl(), ref.to_jsonl());
  EXPECT_GT(cold.memo_misses, 0u);  // the cache started empty

  const FleetResult warm = run_with(spec, 1, &luts, &memo);
  EXPECT_EQ(warm.to_jsonl(), ref.to_jsonl());
  EXPECT_EQ(warm.summary_to_json(), ref.summary_to_json());
  EXPECT_EQ(warm.memo_replayed_devices,
            static_cast<std::uint64_t>(spec.devices));
  EXPECT_EQ(warm.memo_exact_devices, 0u);
  EXPECT_EQ(warm.memo_misses, 0u);
}

TEST(OutcomeMemo, ExhaustedDevicesTakeExactPath) {
  FleetSpec spec = small_fleet(16, 6);
  // A battery that dies after roughly one busy slice: most of the fleet
  // exhausts mid-run.
  spec.battery.capacity = Energy::mj(10.0);
  // One pre-warmed LUT cache for every run (see
  // WarmCacheReplaysEveryDeviceByteIdentically).
  placement::LutCache luts;
  (void)run_with(spec, 1, &luts, nullptr);
  const FleetResult ref = run_with(spec, 1, &luts, nullptr);
  std::uint64_t exhausted = 0;
  for (const DeviceResult& d : ref.devices) {
    if (d.exhausted_at_slice >= 0) ++exhausted;
  }
  ASSERT_GT(exhausted, 0u);

  OutcomeCache memo;
  const FleetResult cold = run_with(spec, 1, &luts, &memo);
  EXPECT_EQ(cold.to_jsonl(), ref.to_jsonl());

  // Warm run: devices that drain the battery mid-slice must still run the
  // full Device::run path (the replay lane parks when drained < requested),
  // no matter how warm the cache is.
  const FleetResult warm = run_with(spec, 1, &luts, &memo);
  EXPECT_EQ(warm.to_jsonl(), ref.to_jsonl());
  EXPECT_EQ(warm.summary_to_json(), ref.summary_to_json());
  EXPECT_GE(warm.memo_exact_devices, exhausted);
  EXPECT_EQ(warm.memo_replayed_devices + warm.memo_exact_devices,
            static_cast<std::uint64_t>(spec.devices));
}

// --- memo counts --------------------------------------------------------------

// memo_hits/memo_misses count the run's own lookups. Two fleets on disjoint
// models never share a key, so when they share one OutcomeCache and run at
// the same time, each must still report exactly the counts of its solo run
// on a fresh cache — a delta of cache-wide counters would pick up the other
// run's lookups whenever the two overlap.
TEST(FleetSimulator, MemoCountsAreTheRunsOwn) {
  FleetSpec a = small_fleet(512, 24);
  FleetSpec b = small_fleet(512, 24);
  b.models = {nn::zoo::resnet18()};
  placement::LutCache luts;  // one warm LUT cache: only the models differ
  (void)run_with(a, 1, &luts, nullptr);
  (void)run_with(b, 1, &luts, nullptr);

  OutcomeCache solo_a_memo;
  OutcomeCache solo_b_memo;
  const FleetResult solo_a = run_with(a, 1, &luts, &solo_a_memo);
  const FleetResult solo_b = run_with(b, 1, &luts, &solo_b_memo);
  ASSERT_GT(solo_a.memo_hits, 0u);
  ASSERT_GT(solo_a.memo_misses, 0u);
  ASSERT_GT(solo_b.memo_hits, 0u);
  ASSERT_GT(solo_b.memo_misses, 0u);

  OutcomeCache shared;
  std::atomic<int> ready{0};
  FleetResult shared_a;
  FleetResult shared_b;
  auto run_after_barrier = [&](const FleetSpec& spec, FleetResult& out) {
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (ready.load(std::memory_order_acquire) < 2) std::this_thread::yield();
    out = run_with(spec, 1, &luts, &shared);
  };
  std::thread ta{[&] { run_after_barrier(a, shared_a); }};
  std::thread tb{[&] { run_after_barrier(b, shared_b); }};
  ta.join();
  tb.join();

  EXPECT_EQ(shared_a.memo_hits, solo_a.memo_hits);
  EXPECT_EQ(shared_a.memo_misses, solo_a.memo_misses);
  EXPECT_EQ(shared_b.memo_hits, solo_b.memo_hits);
  EXPECT_EQ(shared_b.memo_misses, solo_b.memo_misses);
  EXPECT_EQ(shared_a.to_jsonl(), solo_a.to_jsonl());
  EXPECT_EQ(shared_b.to_jsonl(), solo_b.to_jsonl());
}

}  // namespace
}  // namespace hhpim::fleet
