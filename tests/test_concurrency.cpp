// Concurrency suite for the contention-free hot paths (see docs/PERF.md
// "Parallel scaling"): the lock-free LutCache fast path under mixed
// get_or_build/clear/stats stress, waiter accounting when a joined build
// fails, in-flight visibility in Stats, worker/claim-batch resolution,
// the shared processor checkout pools, and fleet byte-identity across
// thread counts with batched shard claiming on.
//
// All assertions run on the main thread after workers join — worker
// threads only record into their own slots — so the suite is safe under
// the minigtest shim and clean under ThreadSanitizer (the CI `tsan` job
// runs it).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim {
namespace {

placement::CostModel stress_model(double uses = 29.0) {
  return placement::CostModel::build(energy::PowerSpec::paper_45nm(),
                                     placement::ClusterShape{4, 64 * 1024, 64 * 1024},
                                     placement::ClusterShape{4, 64 * 1024, 64 * 1024},
                                     uses);
}

placement::LutParams stress_params(int resolution) {
  placement::LutParams p;
  p.slice = Time::ms(10.0);
  p.total_weights = 10000;
  p.t_entries = resolution;
  p.k_blocks = resolution;
  return p;
}

// --- LutCache: lock-free fast path + waiter accounting -----------------------

// Every get_or_build call resolves to exactly one of {hit, miss (it built),
// failed_join (it joined a build that threw)} — regardless of interleaving.
// 8 threads hammer 3 good keys and 1 always-failing key; the identity
// must hold exactly, and no failing call may ever be counted a hit (the
// pre-fix code counted a waiter as a hit the moment it joined, so a failed
// build inflated hits_).
TEST(LutCacheConcurrency, AccountingIdentityUnderMixedGoodAndFailingKeys) {
  placement::LutCache cache;
  const placement::CostModel m = stress_model();
  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  const int resolutions[] = {8, 12, 16};

  placement::LutParams bad = stress_params(8);
  bad.total_weights = 0;  // AllocationLut::build throws std::invalid_argument
  const auto bad_key = placement::LutCacheKey::make(1, 2, m, bad);

  std::atomic<bool> start{false};
  std::vector<std::uint64_t> ok_calls(kThreads), bad_calls(kThreads),
      wrong_outcome(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kIters; ++i) {
        if (i % 3 == 2) {
          try {
            (void)cache.get_or_build(bad_key, m, bad);
            ++wrong_outcome[static_cast<std::size_t>(t)];  // must always throw
          } catch (const std::invalid_argument&) {
            ++bad_calls[static_cast<std::size_t>(t)];
          }
        } else {
          const int res = resolutions[(t + i) % 3];
          const placement::LutParams p = stress_params(res);
          const auto key = placement::LutCacheKey::make(1, 2, m, p);
          try {
            if (cache.get_or_build(key, m, p) != nullptr) {
              ++ok_calls[static_cast<std::size_t>(t)];
            }
          } catch (...) {
            ++wrong_outcome[static_cast<std::size_t>(t)];  // good keys never throw
          }
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  std::uint64_t ok = 0, failed = 0, wrong = 0;
  for (int t = 0; t < kThreads; ++t) {
    ok += ok_calls[static_cast<std::size_t>(t)];
    failed += bad_calls[static_cast<std::size_t>(t)];
    wrong += wrong_outcome[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(ok + failed, static_cast<std::uint64_t>(kThreads) * kIters);

  const auto s = cache.stats();
  // The identity: every call was a hit, a miss, or a failed join.
  EXPECT_EQ(s.hits + s.misses + s.failed_joins, ok + failed);
  // Good keys build exactly once each; every failing call was a builder
  // (miss) or a failed join — never, ever a hit.
  EXPECT_EQ(s.hits, ok - 3u);
  EXPECT_EQ(s.misses + s.failed_joins, failed + 3u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.in_flight, 0u);
}

// A storm on a single always-failing key: whatever the interleaving, no
// call may be classified a hit, and the slot must never stick.
TEST(LutCacheConcurrency, FailedBuildStormNeverCountsHits) {
  placement::LutCache cache;
  const placement::CostModel m = stress_model();
  placement::LutParams bad = stress_params(8);
  bad.total_weights = 0;
  const auto key = placement::LutCacheKey::make(7, 7, m, bad);

  constexpr int kThreads = 8;
  constexpr int kRounds = 16;
  std::uint64_t threw = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::atomic<bool> start{false};
    std::vector<int> caught(kThreads);
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        while (!start.load(std::memory_order_acquire)) {}
        try {
          (void)cache.get_or_build(key, m, bad);
        } catch (...) {
          caught[static_cast<std::size_t>(t)] = 1;
        }
      });
    }
    start.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    for (int t = 0; t < kThreads; ++t) threw += static_cast<std::uint64_t>(caught[static_cast<std::size_t>(t)]);
  }

  EXPECT_EQ(threw, static_cast<std::uint64_t>(kThreads) * kRounds);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);  // the satellite bug: waiters on failed builds were hits
  EXPECT_EQ(s.misses + s.failed_joins, threw);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

// Stats must reflect a build in flight, and a waiter that joins a
// successful build is a hit only once the future resolves.
TEST(LutCacheConcurrency, StatsReflectInFlightBuilds) {
  placement::LutCache cache;
  const placement::CostModel m = stress_model();
  // Big enough that the builder is still inside AllocationLut::build when
  // the main thread polls (a 128x128 DP takes ~100ms; the poll loop below
  // runs within microseconds of the spawn).
  const placement::LutParams slow = stress_params(128);
  const auto key = placement::LutCacheKey::make(3, 4, m, slow);

  std::thread builder{[&] { (void)cache.get_or_build(key, m, slow); }};
  bool saw_in_flight = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto s = cache.stats();
    if (s.in_flight == 1 && s.entries == 1) {
      saw_in_flight = true;
      break;
    }
    if (s.entries == 1 && s.in_flight == 0) break;  // build already done
  }
  std::thread waiter{[&] { (void)cache.get_or_build(key, m, slow); }};
  builder.join();
  waiter.join();

  EXPECT_TRUE(saw_in_flight);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);  // the waiter (or fast-path hit if it arrived late)
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.in_flight, 0u);
}

// Mixed get_or_build/clear/stats: clear() retires the published snapshot
// instead of freeing it, so a reader that raced past the atomic load keeps
// a valid map; every successful return must be a usable LUT. Counters are
// not asserted (clear() resets them mid-flight by design).
TEST(LutCacheConcurrency, MixedGetClearStatsStress) {
  placement::LutCache cache;
  const placement::CostModel m = stress_model();
  constexpr int kThreads = 6;
  constexpr int kIters = 40;
  const int resolutions[] = {8, 12};

  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> bad_luts(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kIters; ++i) {
        const int res = resolutions[(t + i) % 2];
        const placement::LutParams p = stress_params(res);
        const auto key = placement::LutCacheKey::make(1, 2, m, p);
        const auto lut = cache.get_or_build(key, m, p);
        if (lut == nullptr ||
            lut->entries().size() != static_cast<std::size_t>(res)) {
          ++bad_luts[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  std::thread churner{[&] {
    while (!stop.load(std::memory_order_acquire)) {
      cache.clear();
      (void)cache.stats();
      std::this_thread::yield();
    }
  }};
  start.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  stop.store(true, std::memory_order_release);
  churner.join();

  std::uint64_t bad = 0;
  for (int t = 0; t < kThreads; ++t) bad += bad_luts[static_cast<std::size_t>(t)];
  EXPECT_EQ(bad, 0u);
  // Quiescent now: a final round lands one entry per key again.
  cache.clear();
  const placement::LutParams p = stress_params(8);
  EXPECT_NE(cache.get_or_build(placement::LutCacheKey::make(1, 2, m, p), m, p),
            nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// --- worker / claim-batch resolution -----------------------------------------

TEST(FleetSimulator, WorkerCountClampsToShards) {
  using fleet::FleetSimulator;
  EXPECT_EQ(FleetSimulator::resolve_workers(8, 3), 3u);
  EXPECT_EQ(FleetSimulator::resolve_workers(8, 100), 8u);
  EXPECT_EQ(FleetSimulator::resolve_workers(2, 2), 2u);
  EXPECT_EQ(FleetSimulator::resolve_workers(8, 1), 1u);
  EXPECT_EQ(FleetSimulator::resolve_workers(8, 0), 1u);  // zero-device fleet
  EXPECT_GE(FleetSimulator::resolve_workers(0, 64), 1u); // 0 = hw concurrency
}

TEST(FleetSimulator, ClaimBatchResolution) {
  using fleet::FleetSimulator;
  // Explicit request wins.
  EXPECT_EQ(FleetSimulator::resolve_claim_batch(4, 1000, 8), 4u);
  EXPECT_EQ(FleetSimulator::resolve_claim_batch(1, 1000, 8), 1u);
  // Auto: ~8 claims per worker, never below 1.
  EXPECT_EQ(FleetSimulator::resolve_claim_batch(0, 1024, 8), 16u);
  EXPECT_EQ(FleetSimulator::resolve_claim_batch(0, 10, 8), 1u);
  EXPECT_EQ(FleetSimulator::resolve_claim_batch(0, 0, 1), 1u);
}

TEST(Runner, WorkerCountClampsToRuns) {
  using exp::Runner;
  EXPECT_EQ(Runner::resolve_workers(8, 3), 3u);
  EXPECT_EQ(Runner::resolve_workers(8, 100), 8u);
  EXPECT_EQ(Runner::resolve_workers(8, 0), 1u);
}

// --- shared processor checkout pool ------------------------------------------

TEST(ProcessorPool, ConcurrentCheckoutsAreDistinctAndRecycled) {
  sys::SystemConfig cfg;
  cfg.arch = sys::ArchConfig::hhpim();
  cfg.lut_t_entries = 8;
  cfg.lut_k_blocks = 8;
  const nn::Model model = nn::zoo::efficientnet_b0();
  placement::LutCache cache;
  cfg.lut_cache = &cache;

  sys::ProcessorPool pool;
  constexpr int kLeases = 4;
  {
    // Held simultaneously -> distinct processors, nothing idle.
    std::vector<sys::ProcessorPool::Lease> leases;
    leases.reserve(kLeases);
    for (int i = 0; i < kLeases; ++i) leases.push_back(pool.checkout(cfg, model));
    for (int a = 0; a < kLeases; ++a) {
      for (int b = a + 1; b < kLeases; ++b) {
        EXPECT_NE(&leases[static_cast<std::size_t>(a)].get(),
                  &leases[static_cast<std::size_t>(b)].get());
      }
    }
    EXPECT_EQ(pool.size(), 0u);
  }
  // All returned; sequential checkouts now recycle instead of constructing.
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(kLeases));
  {
    const auto lease = pool.checkout(cfg, model);
    EXPECT_EQ(pool.size(), static_cast<std::size_t>(kLeases) - 1);
  }
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(kLeases));

  // Concurrent checkout/run/return churn: leases never alias.
  constexpr int kThreads = 8;
  std::atomic<bool> start{false};
  std::vector<std::uint64_t> aliased(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < 25; ++i) {
        const auto a = pool.checkout(cfg, model);
        const auto b = pool.checkout(cfg, model);
        if (&a.get() == &b.get()) ++aliased[static_cast<std::size_t>(t)];
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  std::uint64_t alias_total = 0;
  for (int t = 0; t < kThreads; ++t) alias_total += aliased[static_cast<std::size_t>(t)];
  EXPECT_EQ(alias_total, 0u);
}

// --- outcome-cache get-or-insert stress --------------------------------------

// 8 threads race find/insert over an overlapping key range — the
// device-memo access pattern (miss -> run exact -> publish batch) on the
// SnapshotMap template. Honest writers compute identical values, so any hit
// must carry the key's canonical value no matter which thread's insert won,
// and each key is added exactly once. Each worker records into its own
// slots; asserts run after the join (TSan-clean).
TEST(FleetConcurrency, OutcomeCacheConcurrentGetOrInsert) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 64;
  constexpr int kIters = 400;
  fleet::OutcomeCache cache;
  std::atomic<bool> start{false};
  std::vector<std::uint64_t> mismatches(kThreads, 0);
  std::vector<std::uint64_t> hits(kThreads, 0);
  std::vector<std::uint64_t> added(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &start, &mismatches, &hits, &added, t] {
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::vector<std::pair<fleet::SliceOutcomeKey, fleet::SliceOutcome>> batch;
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t k =
            (static_cast<std::uint64_t>(i) + static_cast<std::uint64_t>(t) * 7) % kKeys;
        const fleet::SliceOutcomeKey key{1, k, static_cast<std::uint32_t>(k % 3),
                                         static_cast<std::uint8_t>(k % 2)};
        const fleet::SliceOutcome* hit = cache.find(key);
        if (hit == nullptr) {
          batch.assign(1, {key, fleet::SliceOutcome{static_cast<double>(k),
                                                    static_cast<std::int64_t>(k), 0,
                                                    k ^ 0xabcdULL, 0, false}});
          added[static_cast<std::size_t>(t)] += cache.insert(batch);
        } else {
          ++hits[static_cast<std::size_t>(t)];
          if (hit->post_state != (k ^ 0xabcdULL) ||
              hit->energy_pj != static_cast<double>(k)) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  std::uint64_t total_mismatches = 0;
  std::uint64_t total_hits = 0;
  std::uint64_t total_added = 0;
  for (int t = 0; t < kThreads; ++t) {
    const auto i = static_cast<std::size_t>(t);
    total_mismatches += mismatches[i];
    total_hits += hits[i];
    total_added += added[i];
  }
  EXPECT_EQ(total_mismatches, 0u);
  // Every residue mod kKeys is visited, so the snapshot converges to
  // exactly the canonical key set (first writer wins, no duplicates).
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(total_added, kKeys);
  EXPECT_GT(total_hits, 0u);
}

// --- fleet identity across threads and claim batching ------------------------

TEST(FleetConcurrency, ByteIdenticalAcrossThreadsAndClaimBatches) {
  fleet::FleetSpec spec;
  spec.name = "concurrency-fleet";
  spec.devices = 30;
  spec.slices = 5;
  spec.models = {nn::zoo::efficientnet_b0()};
  spec.config.lut_t_entries = 16;
  spec.config.lut_k_blocks = 16;

  placement::LutCache ref_cache;
  fleet::FleetOptions ref_opts;
  ref_opts.threads = 1;
  ref_opts.shard_size = 4;
  ref_opts.lut_cache = &ref_cache;
  ref_opts.claim_batch = 1;
  const fleet::FleetResult ref = fleet::FleetSimulator{ref_opts}.run(spec);
  ASSERT_FALSE(ref.to_jsonl().empty());

  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::size_t batch : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      placement::LutCache cache;
      fleet::FleetOptions opts;
      opts.threads = threads;
      opts.shard_size = 4;
      opts.lut_cache = &cache;
      opts.claim_batch = batch;
      const fleet::FleetResult r = fleet::FleetSimulator{opts}.run(spec);
      EXPECT_EQ(r.to_jsonl(), ref.to_jsonl())
          << "threads=" << threads << " claim_batch=" << batch;
      EXPECT_EQ(r.summary_to_json(), ref.summary_to_json())
          << "threads=" << threads << " claim_batch=" << batch;
      EXPECT_EQ(r.lut_builds, ref.lut_builds);
    }
  }
}

}  // namespace
}  // namespace hhpim
