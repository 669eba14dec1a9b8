// Checkpoint/restore suite: the headline invariant is "restore changes
// nothing, ever" — a fleet run cut into resumable segments (FleetSimulator::
// run_to + resume, snapshots round-tripped through the binary format between
// segments) produces byte-identical JSONL and summary JSON to the
// uninterrupted run, at any thread count, with device memoization on or off,
// across lifecycle events, charging windows, firmware mixes and load
// envelopes, and on cold or warm caches. Plus: the format's loud-failure
// guarantees (truncated, corrupted, other-version, wrong-spec blobs all
// throw with a diagnostic),
// lifecycle/envelope/charging semantics, and a ~200-spec seeded fuzz sweep
// that dumps the offending seed + spec on any divergence.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim::fleet {
namespace {

/// A small fleet that runs in milliseconds: one model, low LUT resolution.
FleetSpec small_fleet(int devices = 24, int slices = 10) {
  FleetSpec spec;
  spec.name = "snapshot-fleet";
  spec.devices = devices;
  spec.slices = slices;
  spec.models = {nn::zoo::efficientnet_b0()};
  spec.config.lut_t_entries = 16;
  spec.config.lut_k_blocks = 16;
  // Small enough that some devices exhaust mid-run — the sweep below cuts
  // on both sides of the exhaustion boundary.
  spec.battery.capacity = Energy::mj(10.0);
  return spec;
}

struct RunOutput {
  std::string jsonl;
  std::string summary;
};

FleetOptions base_options(unsigned threads, bool memo, placement::LutCache* lut,
                          OutcomeCache* outcome) {
  FleetOptions opt;
  opt.threads = threads;
  opt.shard_size = 7;  // deliberately not a divisor of the device counts
  opt.lut_cache = lut;
  opt.memoize_devices = memo;
  opt.outcome_cache = outcome;
  return opt;
}

/// One uninterrupted run, on fresh caches unless the caller passes warm
/// ones (the output must not tell the difference).
RunOutput run_whole(const FleetSpec& spec, unsigned threads, bool memo,
                    placement::LutCache* lut = nullptr,
                    OutcomeCache* outcome = nullptr) {
  placement::LutCache fresh_lut;
  OutcomeCache fresh_outcome;
  const FleetSimulator sim{
      base_options(threads, memo, lut != nullptr ? lut : &fresh_lut,
                   outcome != nullptr ? outcome : &fresh_outcome)};
  const FleetResult r = sim.run(spec);
  return {r.to_jsonl(), r.summary_to_json()};
}

/// The same run cut at the given global slice boundaries, each snapshot
/// round-tripped through the binary format between segments.
RunOutput run_segmented(const FleetSpec& spec, const std::vector<int>& cuts,
                        unsigned threads, bool memo,
                        placement::LutCache* lut = nullptr,
                        OutcomeCache* outcome = nullptr) {
  placement::LutCache fresh_lut;
  OutcomeCache fresh_outcome;
  const FleetSimulator sim{
      base_options(threads, memo, lut != nullptr ? lut : &fresh_lut,
                   outcome != nullptr ? outcome : &fresh_outcome)};
  FleetSnapshot snap;
  bool have = false;
  for (const int cut : cuts) {
    snap = sim.run_to(spec, cut, have ? &snap : nullptr);
    snap = FleetSnapshot::from_bytes(snap.to_bytes());
    have = true;
  }
  const FleetResult r = have ? sim.resume(spec, snap) : sim.run(spec);
  return {r.to_jsonl(), r.summary_to_json()};
}

/// An "at slice 0" snapshot: nothing executed yet. resume() on it must run
/// the whole fleet — the degenerate split point of the sweep.
FleetSnapshot initial_snapshot(const FleetSpec& spec) {
  FleetSnapshot snap;
  snap.spec_digest = spec.content_digest();
  snap.next_slice = 0;
  snap.devices.resize(static_cast<std::size_t>(spec.devices));
  return snap;
}

// --- round-trip equality: split sweep × threads × memo -----------------------

TEST(Snapshot, SplitSweepMatchesUninterrupted) {
  // 24 devices at shard_size 7: cut-independent, but the sweep's split
  // points land mid-shard and on shard boundaries in *device* space via the
  // exhaustion staggering, and before/at/after exhaustion in slice space.
  // With capacity 10 mJ devices exhaust around slices 3-6.
  const FleetSpec spec = small_fleet(24, 10);
  for (const unsigned threads : {1u, 8u}) {
    for (const bool memo : {true, false}) {
      const RunOutput whole = run_whole(spec, threads, memo);
      for (const int cut : {1, 3, 5, 7, 9, 10}) {
        const RunOutput seg = run_segmented(spec, {cut}, threads, memo);
        EXPECT_EQ(seg.jsonl, whole.jsonl)
            << "cut=" << cut << " threads=" << threads << " memo=" << memo;
        EXPECT_EQ(seg.summary, whole.summary)
            << "cut=" << cut << " threads=" << threads << " memo=" << memo;
      }
    }
  }
}

TEST(Snapshot, ResumeFromInitialSnapshotMatchesRun) {
  const FleetSpec spec = small_fleet(12, 6);
  const RunOutput whole = run_whole(spec, 1, true);

  placement::LutCache lut;
  OutcomeCache outcome;
  const FleetSimulator sim{base_options(1, true, &lut, &outcome)};
  const FleetSnapshot snap =
      FleetSnapshot::from_bytes(initial_snapshot(spec).to_bytes());
  const FleetResult r = sim.resume(spec, snap);
  EXPECT_EQ(r.to_jsonl(), whole.jsonl);
  EXPECT_EQ(r.summary_to_json(), whole.summary);

  // A final segment runs the devices it starts through the memo lanes,
  // exactly as run() does: on the memo warmed above, a battery with no
  // exhaustion boundary replays devices instead of running them.
  FleetSpec roomy = spec;
  roomy.battery.capacity = Energy::mj(5000.0);
  const FleetResult roomy_whole = sim.run(roomy);
  const FleetResult roomy_resumed = sim.resume(roomy, initial_snapshot(roomy));
  EXPECT_EQ(roomy_resumed.to_jsonl(), roomy_whole.to_jsonl());
  EXPECT_EQ(roomy_resumed.summary_to_json(), roomy_whole.summary_to_json());
  EXPECT_GT(roomy_resumed.memo_replayed_devices, 0u);
  EXPECT_EQ(roomy_resumed.memo_replayed_devices + roomy_resumed.memo_exact_devices,
            static_cast<std::uint64_t>(roomy.devices));
}

TEST(Snapshot, ManySegmentsMatchUninterrupted) {
  FleetSpec spec = small_fleet(24, 12);
  spec.lifecycle.join_fraction = 0.4;
  spec.lifecycle.leave_fraction = 0.4;
  spec.charging = {.period = 4, .window = 1, .energy_per_slice = Energy::mj(2.0)};
  spec.envelope.enabled = true;
  spec.envelope.min_multiplier = 0.5;
  spec.envelope.max_multiplier = 1.5;
  for (const unsigned threads : {1u, 8u}) {
    const RunOutput whole = run_whole(spec, threads, true);
    // Every-slice cuts: each device crosses several segment boundaries
    // (including its join/leave slices) and round-trips through bytes at
    // every one of them.
    const RunOutput seg = run_segmented(
        spec, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, threads, true);
    EXPECT_EQ(seg.jsonl, whole.jsonl) << "threads=" << threads;
    EXPECT_EQ(seg.summary, whole.summary) << "threads=" << threads;
  }
}

TEST(Snapshot, WeekScaleSegmentsMatchUninterrupted) {
  // Scaled-down week: 672 slices (7 days x 24 h x 4) as 7 one-day segments.
  // The full 10k-device week runs as a CI smoke; this keeps the shape — long
  // horizon, day-boundary cuts, churn + diurnal envelope — in the inner loop.
  FleetSpec spec = small_fleet(96, 672);
  spec.battery.capacity = Energy::mj(2000.0);
  spec.lifecycle.join_fraction = 0.25;
  spec.lifecycle.leave_fraction = 0.25;
  spec.charging = {.period = 96, .window = 24,
                   .energy_per_slice = Energy::mj(40.0)};
  spec.envelope.enabled = true;
  spec.envelope.shape = workload::Scenario::kPulsing;
  spec.envelope.min_multiplier = 0.25;
  spec.envelope.max_multiplier = 1.25;
  const RunOutput whole = run_whole(spec, 8, true);
  const RunOutput seg =
      run_segmented(spec, {96, 192, 288, 384, 480, 576}, 8, true);
  EXPECT_EQ(seg.jsonl, whole.jsonl);
  EXPECT_EQ(seg.summary, whole.summary);
}

// --- seeded snapshot fuzz ----------------------------------------------------

/// Compact spec dump for one-line repro of a fuzz failure.
std::string describe(const FleetSpec& spec, std::uint64_t fuzz_seed, int cut,
                     unsigned threads, bool memo) {
  std::ostringstream os;
  os << "{\"fuzz_seed\":" << fuzz_seed << ",\"cut\":" << cut
     << ",\"threads\":" << threads << ",\"memo\":" << (memo ? 1 : 0)
     << ",\"devices\":" << spec.devices << ",\"slices\":" << spec.slices
     << ",\"seed\":" << spec.seed << ",\"models\":" << spec.models.size()
     << ",\"firmware\":" << spec.firmware.size()
     << ",\"join_fraction\":" << spec.lifecycle.join_fraction
     << ",\"leave_fraction\":" << spec.lifecycle.leave_fraction
     << ",\"charging\":[" << spec.charging.period << "," << spec.charging.window
     << "," << spec.charging.energy_per_slice.as_pj() << "]"
     << ",\"envelope\":[" << (spec.envelope.enabled ? 1 : 0) << ","
     << static_cast<int>(spec.envelope.shape) << ","
     << spec.envelope.min_multiplier << "," << spec.envelope.max_multiplier
     << "]"
     << ",\"battery_pj\":" << spec.battery.capacity.as_pj()
     << ",\"adapt\":" << (spec.adapt ? 1 : 0) << "}";
  return os.str();
}

TEST(SnapshotFuzz, RandomSpecsRandomCuts) {
  constexpr std::uint64_t kFuzzSeed = 0x5eedf00d2026ULL;
  constexpr int kSpecs = 200;
  SplitMix64 rng{kFuzzSeed};
  SplitMix64 extra{~kFuzzSeed};
  const std::vector<nn::Model> zoo = {nn::zoo::efficientnet_b0(),
                                      nn::zoo::mobilenet_v2()};
  for (int i = 0; i < kSpecs; ++i) {
    FleetSpec spec;
    spec.name = "fuzz";
    spec.devices = static_cast<int>(rng.next() % 13);        // 0..12
    spec.slices = 1 + static_cast<int>(rng.next() % 16);     // 1..16
    spec.seed = rng.next();
    spec.models = {zoo[0]};
    if (rng.next() % 2 == 0) spec.models.push_back(zoo[1]);
    spec.config.lut_t_entries = 16;
    spec.config.lut_k_blocks = 16;
    if (rng.next() % 3 == 0) {
      // Firmware heterogeneity: a second knob generation whose LUT key
      // differs from firmware 0's.
      sys::SystemConfig fw2 = spec.config;
      fw2.lut_t_entries = 24;
      spec.firmware = {spec.config, fw2};
    }
    spec.battery.capacity =
        Energy::mj(5.0 + static_cast<double>(rng.next() % 40));
    spec.lifecycle.join_fraction =
        static_cast<double>(rng.next() % 4) * 0.25;          // 0, .25, .5, .75
    spec.lifecycle.leave_fraction = static_cast<double>(rng.next() % 4) * 0.25;
    if (rng.next() % 3 == 0 && spec.devices > 0) {
      spec.lifecycle_overrides.push_back(
          {.id = 0,
           .join_slice = static_cast<int>(rng.next() %
                                          static_cast<std::uint64_t>(
                                              spec.slices)),
           .leave_slice = -1});
    }
    if (rng.next() % 2 == 0) {
      spec.charging = {
          .period = 1 + static_cast<int>(rng.next() % 6),
          .window = 0,
          .energy_per_slice = Energy::mj(static_cast<double>(rng.next() % 8))};
      spec.charging.window =
          static_cast<int>(rng.next() %
                           static_cast<std::uint64_t>(spec.charging.period + 1));
    }
    if (rng.next() % 2 == 0) {
      spec.envelope.enabled = true;
      const workload::Scenario shapes[] = {workload::Scenario::kPulsing,
                                           workload::Scenario::kRandom,
                                           workload::Scenario::kBurstDecay};
      spec.envelope.shape = shapes[rng.next() % 3];
      spec.envelope.seed = rng.next();
      spec.envelope.min_multiplier = 0.25 * static_cast<double>(rng.next() % 5);
      spec.envelope.max_multiplier =
          spec.envelope.min_multiplier +
          0.25 * static_cast<double>(rng.next() % 5);
    }
    const int cut = 1 + static_cast<int>(
                            rng.next() % static_cast<std::uint64_t>(spec.slices));
    const unsigned threads = rng.next() % 2 == 0 ? 1u : 8u;
    const bool memo = rng.next() % 2 == 0;

    // Further inputs, drawn from their own stream so the specs above stay
    // those of the original sweep: whether the segmented run inherits the
    // whole run's warm LUT and outcome caches (the summary must not notice,
    // lut_builds included), and a final segment from an at-slice-0
    // snapshot on those warm caches (it must equal run()).
    const bool warm = extra.next() % 2 == 0;

    placement::LutCache lut;
    OutcomeCache outcome;
    const RunOutput whole = run_whole(spec, threads, memo, &lut, &outcome);
    placement::LutCache* const seg_lut = warm ? &lut : nullptr;
    OutcomeCache* const seg_outcome = warm ? &outcome : nullptr;
    const RunOutput seg =
        cut == spec.slices  // degenerate: no cut fits
            ? run_segmented(spec, {}, threads, memo, seg_lut, seg_outcome)
            : run_segmented(spec, {cut}, threads, memo, seg_lut, seg_outcome);
    const FleetResult initial =
        FleetSimulator{base_options(threads, memo, &lut, &outcome)}.resume(
            spec, initial_snapshot(spec));
    if (seg.jsonl != whole.jsonl || seg.summary != whole.summary ||
        initial.to_jsonl() != whole.jsonl ||
        initial.summary_to_json() != whole.summary) {
      ADD_FAILURE() << "snapshot fuzz divergence; repro spec #" << i
                    << " (warm=" << warm << "): "
                    << describe(spec, kFuzzSeed, cut, threads, memo);
      return;  // one dump is actionable; 199 more are noise
    }
  }
}

// --- loud failure: window, digest, blob --------------------------------------

std::uint64_t read_u64_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t j = 0; j < 8; ++j) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + j]))
         << (8 * j);
  }
  return v;
}

/// The snapshot checksum: FNV-1a over the payload length, then the payload
/// in little-endian 8-byte words (zero-padded tail).
std::uint64_t payload_checksum(std::string_view payload) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(payload.size()));
  for (std::size_t i = 0; i < payload.size(); i += 8) {
    std::uint64_t chunk = 0;
    for (std::size_t j = 0; j < 8 && i + j < payload.size(); ++j) {
      chunk |= static_cast<std::uint64_t>(static_cast<unsigned char>(payload[i + j]))
               << (8 * j);
    }
    h.add(chunk);
  }
  return h.digest();
}

/// `bytes` with the u64 at `at` replaced by `v` and the checksum redone, so
/// only the payload walk can catch the change.
std::string patch_u64(std::string bytes, std::size_t at, std::uint64_t v) {
  for (std::size_t j = 0; j < 8; ++j) {
    bytes[at + j] = static_cast<char>((v >> (8 * j)) & 0xffu);
  }
  const std::uint64_t sum =
      payload_checksum(std::string_view{bytes}.substr(12, bytes.size() - 20));
  for (std::size_t j = 0; j < 8; ++j) {
    bytes[bytes.size() - 8 + j] = static_cast<char>((sum >> (8 * j)) & 0xffu);
  }
  return bytes;
}

TEST(Snapshot, RejectsBadWindows) {
  const FleetSpec spec = small_fleet(4, 6);
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  EXPECT_THROW((void)sim.run_to(spec, 0), std::invalid_argument);
  EXPECT_THROW((void)sim.run_to(spec, -1), std::invalid_argument);
  EXPECT_THROW((void)sim.run_to(spec, 7), std::invalid_argument);
  const FleetSnapshot snap = sim.run_to(spec, 3);
  EXPECT_THROW((void)sim.run_to(spec, 3, &snap), std::invalid_argument);
  EXPECT_THROW((void)sim.run_to(spec, 2, &snap), std::invalid_argument);
  EXPECT_NO_THROW((void)sim.run_to(spec, 4, &snap));
}

TEST(Snapshot, RejectsSpecMismatch) {
  const FleetSpec spec = small_fleet(4, 6);
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetSnapshot snap = sim.run_to(spec, 3);

  FleetSpec reseeded = spec;
  reseeded.seed ^= 1;
  EXPECT_THROW((void)sim.resume(reseeded, snap), std::runtime_error);
  FleetSpec recharged = spec;
  recharged.charging = {.period = 2, .window = 1,
                        .energy_per_slice = Energy::mj(1.0)};
  EXPECT_THROW((void)sim.run_to(recharged, 5, &snap), std::runtime_error);
  EXPECT_NO_THROW((void)sim.resume(spec, snap));
}

TEST(Snapshot, RoundTripsThroughBytesAndFiles) {
  const FleetSpec spec = small_fleet(6, 6);
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetSnapshot snap = sim.run_to(spec, 3);
  const std::string bytes = snap.to_bytes();
  const FleetSnapshot back = FleetSnapshot::from_bytes(bytes);
  EXPECT_EQ(back.to_bytes(), bytes);
  EXPECT_EQ(back.spec_digest, snap.spec_digest);
  EXPECT_EQ(back.next_slice, 3);
  EXPECT_EQ(back.devices.size(), snap.devices.size());

  const char* tmp = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/hhpim_snapshot_test.bin";
  snap.save(path);
  const FleetSnapshot loaded = FleetSnapshot::load(path);
  EXPECT_EQ(loaded.to_bytes(), bytes);
  std::remove(path.c_str());
}

TEST(Snapshot, FailsLoudlyOnDamagedBlobs) {
  const FleetSpec spec = small_fleet(6, 6);
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const std::string bytes = sim.run_to(spec, 3).to_bytes();

  // Truncation at every prefix length must throw, never misread: the header
  // check, the checksum, or the payload walk catches it.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{11}, std::size_t{12},
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
    EXPECT_THROW((void)FleetSnapshot::from_bytes(bytes.substr(0, keep)),
                 std::runtime_error)
        << "keep=" << keep;
  }

  // A flipped bit anywhere in the payload fails the checksum.
  for (const std::size_t at : {std::size_t{12}, bytes.size() / 2,
                               bytes.size() - 9}) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    EXPECT_THROW((void)FleetSnapshot::from_bytes(corrupt), std::runtime_error)
        << "at=" << at;
  }

  // Wrong magic: not a snapshot at all.
  std::string not_snap = bytes;
  not_snap[0] = static_cast<char>(not_snap[0] ^ 0xff);
  EXPECT_THROW((void)FleetSnapshot::from_bytes(not_snap), std::runtime_error);

  // A future format version is refused even with a valid checksum — the
  // version field (bytes 8..11) is outside the checksummed payload.
  std::string future = bytes;
  future[8] = 99;
  try {
    (void)FleetSnapshot::from_bytes(future);
    FAIL() << "future-version blob was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }

  // Older format versions are refused too, naming both versions: a
  // version-1 payload carries LUT-build counters and a version-2 payload
  // per-slice sample buffers, neither of which this build reads.
  for (const int old_version : {1, 2}) {
    std::string old = bytes;
    old[8] = static_cast<char>(old_version);
    try {
      (void)FleetSnapshot::from_bytes(old);
      FAIL() << "version-" << old_version << " blob was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(old_version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("version 3"), std::string::npos) << what;
    }
  }

  // A count larger than the rest of the payload could hold — here a
  // checksum-valid blob whose device count, or histogram bin count, is
  // 2^40 — is named in the error before anything is allocated for it.
  const AggregateShape shape;
  const std::size_t hist_bins_at = 12 + 8 + 4 + 16;  // header, digest, slice, lo/hi
  const std::size_t devices_at =
      12 + 8 + 4 + 2 * (3 * 8 + 2 * 8) +
      8 * (shape.busy_frac_bins + shape.slice_energy_bins) + 7 * 8;
  ASSERT_EQ(read_u64_at(bytes, hist_bins_at), shape.busy_frac_bins);
  ASSERT_EQ(read_u64_at(bytes, devices_at), 6u);
  for (const std::size_t at : {devices_at, hist_bins_at}) {
    const std::string huge = patch_u64(bytes, at, std::uint64_t{1} << 40);
    try {
      (void)FleetSnapshot::from_bytes(huge);
      FAIL() << "count 2^40 at offset " << at << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("count 1099511627776"), std::string::npos) << what;
    }
  }

  // Trailing garbage after the checksum is not silently ignored.
  EXPECT_THROW((void)FleetSnapshot::from_bytes(bytes + "x"),
               std::runtime_error);
}

TEST(Snapshot, BytesFollowDevicesNotSlices) {
  // Every device stays live to the horizon, so each snapshot holds the same
  // records — a processor blob apiece. Twice the executed slices must not
  // make the snapshot bigger: slices fold into one aggregate.
  FleetSpec spec = small_fleet(12, 40);
  spec.battery.capacity = Energy::mj(1e6);
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const std::size_t at_k = sim.run_to(spec, 10).to_bytes().size();
  const std::size_t at_2k = sim.run_to(spec, 20).to_bytes().size();
  EXPECT_LE(static_cast<double>(at_2k), 1.01 * static_cast<double>(at_k))
      << "k: " << at_k << " B, 2k: " << at_2k << " B";
  EXPECT_GE(static_cast<double>(at_2k), 0.99 * static_cast<double>(at_k))
      << "k: " << at_k << " B, 2k: " << at_2k << " B";
}

// --- lifecycle / envelope / charging semantics -------------------------------

TEST(Lifecycle, JoinStartsAtSpecifiedPhase) {
  FleetSpec spec = small_fleet(4, 10);
  spec.battery.capacity = Energy::mj(1e6);  // nobody exhausts
  spec.lifecycle_overrides.push_back({.id = 1, .join_slice = 4,
                                      .leave_slice = -1});
  const std::vector<DeviceSpec> devices = spec.expand();
  ASSERT_EQ(devices.size(), 4u);
  EXPECT_EQ(devices[1].join_slice, 4);
  EXPECT_EQ(devices[1].leave_slice, 10);
  EXPECT_EQ(devices[1].cfg.slices, 6);  // its trace covers [join, leave)
  EXPECT_EQ(devices[0].join_slice, 0);

  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetResult r = sim.run(spec);
  ASSERT_EQ(r.devices.size(), 4u);
  // The joiner runs its 6 arrival slices + the drain slice; a full-term
  // device runs 10 + 1.
  EXPECT_EQ(r.devices[1].slices_total, 7);
  EXPECT_EQ(r.devices[1].slices_executed, 7);
  EXPECT_EQ(r.devices[0].slices_total, 11);
}

TEST(Lifecycle, LeaveDropsFinalBufferLikeExhaustion) {
  FleetSpec spec = small_fleet(4, 10);
  spec.battery.capacity = Energy::mj(1e6);
  spec.lifecycle_overrides.push_back({.id = 2, .join_slice = 0,
                                      .leave_slice = 6});
  const std::vector<DeviceSpec> devices = spec.expand();
  EXPECT_EQ(devices[2].cfg.slices, 6);

  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetResult r = sim.run(spec);
  const DeviceResult& leaver = r.devices[2];
  // No drain slice: 6 arrival slices only, and the arrivals of slice 5 —
  // buffered for a slice 6 that never runs — count as dropped, exactly the
  // accounting exhaustion uses for never-executed arrivals.
  EXPECT_EQ(leaver.slices_total, 6);
  EXPECT_EQ(leaver.slices_executed, 6);
  EXPECT_EQ(leaver.exhausted_at_slice, -1);
  std::vector<int> loads;
  device_loads_into(devices[2], spec.envelope_multipliers(), loads);
  std::uint64_t arrivals = 0;
  for (const int l : loads) arrivals += static_cast<std::uint64_t>(l);
  EXPECT_EQ(leaver.tasks + leaver.tasks_dropped, arrivals);
  EXPECT_EQ(leaver.tasks_dropped, static_cast<std::uint64_t>(loads.back()));
}

TEST(Lifecycle, ChargingRefillsRespectBatteryClamp) {
  FleetSpec base = small_fleet(6, 12);
  base.battery.capacity = Energy::mj(10.0);

  // Absurdly large refills every slice: the clamp holds SoC at or below 1.0
  // and no device exhausts. Capacity must cover the worst *single* slice —
  // a full-at-every-boundary battery still dies if one slice costs more
  // than the whole pack.
  FleetSpec charged = base;
  charged.battery.capacity = Energy::mj(60.0);
  charged.charging = {.period = 1, .window = 1,
                      .energy_per_slice = Energy::mj(1e6)};
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetResult r = sim.run(charged);
  for (const DeviceResult& d : r.devices) {
    EXPECT_LE(d.final_soc, 1.0);
    EXPECT_EQ(d.exhausted_at_slice, -1);
    EXPECT_EQ(d.slices_executed, d.slices_total);
  }

  // A zero-energy window and a zero-width window are both exact no-ops.
  FleetSpec zero_energy = base;
  zero_energy.charging = {.period = 3, .window = 2,
                          .energy_per_slice = Energy::zero()};
  FleetSpec zero_window = base;
  zero_window.charging = {.period = 3, .window = 0,
                          .energy_per_slice = Energy::mj(5.0)};
  const RunOutput plain = run_whole(base, 1, false);
  EXPECT_EQ(run_whole(zero_energy, 1, false).jsonl, plain.jsonl);
  EXPECT_EQ(run_whole(zero_window, 1, false).jsonl, plain.jsonl);

  // And a real refill strictly helps: fewer exhausted devices, never more.
  FleetSpec real = base;
  real.charging = {.period = 2, .window = 1,
                   .energy_per_slice = Energy::mj(4.0)};
  const FleetResult plain_r = sim.run(base);
  const FleetResult real_r = sim.run(real);
  int plain_exhausted = 0;
  int real_exhausted = 0;
  for (const DeviceResult& d : plain_r.devices) {
    plain_exhausted += d.exhausted_at_slice >= 0 ? 1 : 0;
  }
  for (const DeviceResult& d : real_r.devices) {
    real_exhausted += d.exhausted_at_slice >= 0 ? 1 : 0;
  }
  EXPECT_LE(real_exhausted, plain_exhausted);
}

TEST(Envelope, UnityMultiplierIsByteIdenticalRegressionPin) {
  // envelope.enabled with min == max == 1.0 must reproduce the un-enveloped
  // output byte-for-byte — the pin that keeps the envelope path from
  // perturbing existing fleets.
  const FleetSpec plain = small_fleet(24, 10);
  FleetSpec unity = plain;
  unity.envelope.enabled = true;
  unity.envelope.min_multiplier = 1.0;
  unity.envelope.max_multiplier = 1.0;
  const RunOutput a = run_whole(plain, 8, true);
  const RunOutput b = run_whole(unity, 8, true);
  EXPECT_EQ(b.jsonl, a.jsonl);
  EXPECT_EQ(b.summary, a.summary);
}

TEST(Envelope, ScalesArrivalsAtGlobalSliceIndex) {
  FleetSpec spec = small_fleet(1, 8);
  const std::vector<DeviceSpec> devices = spec.expand();
  DeviceSpec late = devices[0];
  late.join_slice = 3;
  late.leave_slice = 8;
  late.cfg.slices = 5;

  std::vector<int> raw;
  device_loads_into(late, {}, raw);
  ASSERT_EQ(raw.size(), 5u);

  // env doubles global slices >= 4: the device's local step k maps to
  // global slice join + k, so local steps 1.. double, local step 0 does not.
  std::vector<double> env(8, 1.0);
  for (int g = 4; g < 8; ++g) env[static_cast<std::size_t>(g)] = 2.0;
  std::vector<int> scaled;
  device_loads_into(late, env, scaled);
  ASSERT_EQ(scaled.size(), raw.size());
  EXPECT_EQ(scaled[0], raw[0]);
  for (std::size_t k = 1; k < raw.size(); ++k) {
    EXPECT_EQ(scaled[k], raw[k] * 2) << "k=" << k;
  }
}

TEST(Envelope, DefaultExpansionUnchangedByFeatureGates) {
  // A spec using none of the new features must expand exactly as before the
  // lifecycle/firmware draws existed: all devices full-term on firmware 0.
  const FleetSpec spec = small_fleet(32, 10);
  for (const DeviceSpec& d : spec.expand()) {
    EXPECT_EQ(d.join_slice, 0);
    EXPECT_EQ(d.leave_slice, 10);
    EXPECT_EQ(d.firmware_index, 0u);
    EXPECT_EQ(d.cfg.slices, 10);
  }
}

TEST(Envelope, RejectsMalformedSpecs) {
  FleetSpec bad = small_fleet(4, 6);
  bad.envelope.enabled = true;
  bad.envelope.min_multiplier = 2.0;
  bad.envelope.max_multiplier = 1.0;  // min > max
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  FleetSpec frac = small_fleet(4, 6);
  frac.lifecycle.join_fraction = 1.5;
  EXPECT_THROW(frac.validate(), std::invalid_argument);

  FleetSpec over = small_fleet(4, 6);
  over.lifecycle_overrides.push_back({.id = 9, .join_slice = 0,
                                      .leave_slice = -1});  // id out of range
  EXPECT_THROW(over.validate(), std::invalid_argument);

  FleetSpec window = small_fleet(4, 6);
  window.lifecycle_overrides.push_back({.id = 0, .join_slice = 4,
                                        .leave_slice = 2});  // leave <= join
  EXPECT_THROW(window.validate(), std::invalid_argument);

  FleetSpec charge = small_fleet(4, 6);
  charge.charging = {.period = 2, .window = 3,
                     .energy_per_slice = Energy::zero()};  // window > period
  EXPECT_THROW(charge.validate(), std::invalid_argument);
}

TEST(Firmware, MixedFleetIsDeterministicAndSegmentable) {
  FleetSpec spec = small_fleet(24, 8);
  sys::SystemConfig fw2 = spec.config;
  fw2.lut_t_entries = 24;  // a distinct LUT key -> a second logical build
  spec.firmware = {spec.config, fw2};

  const RunOutput t1 = run_whole(spec, 1, true);
  const RunOutput t8 = run_whole(spec, 8, false);
  EXPECT_EQ(t1.jsonl, t8.jsonl);
  EXPECT_EQ(t1.summary, t8.summary);

  const RunOutput seg = run_segmented(spec, {3, 6}, 8, true);
  EXPECT_EQ(seg.jsonl, t1.jsonl);
  EXPECT_EQ(seg.summary, t1.summary);
}

}  // namespace
}  // namespace hhpim::fleet
