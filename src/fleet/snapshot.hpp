// Fleet checkpoint/restore: a FleetSnapshot is the whole fleet's state at a
// global slice boundary, serialized with common/serialize ByteWriter/Reader
// into a versioned, field-tagged, checksummed binary blob.
//
// Produced by FleetSimulator::run_to and consumed by run_to/resume: a
// simulated week can run as N resumable segments — across process restarts
// — whose concatenated output (JSONL shards, summary, FleetResult) is
// byte-identical to one uninterrupted run at any thread count (pinned by
// tests/test_snapshot.cpp). The format fails loudly: truncated, corrupted,
// version-skewed or wrong-spec blobs, and counts that outrun the payload,
// all throw std::runtime_error with a diagnostic — a snapshot is never
// silently misread.
//
// What is stored: per device, its resumable DeviceProgress (a fixed-size
// record plus the processor blob of a live device); per snapshot, one
// SliceAggregate holding every slice executed so far (two histograms and
// the exact busy-time summary). Slice statistics merge exactly, so each
// segment folds its slices in as they run and the next segment continues
// from the carried aggregate — the snapshot's size follows the device
// count, not the slice count.
//
// What is NOT stored: load traces (regenerated from the spec — exact),
// LUT-cache contents (rebuilt per process; the summary's lut_builds and
// lut_shared are a function of the spec alone, so nothing about them needs
// carrying), and OutcomeCache contents (bounded segments run the exact
// path; the final segment may replay not-yet-started devices through the
// memo, whose output the exact path equals by invariant, so a cold memo in
// a fresh process changes wall-clock only).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/aggregate.hpp"
#include "fleet/device.hpp"

namespace hhpim::fleet {

struct FleetSnapshot {
  /// FleetSpec::content_digest() of the originating run; run_to/resume
  /// refuse a snapshot whose digest does not match the spec they're given.
  std::uint64_t spec_digest = 0;
  /// First global slice the next segment executes (== the `end_slice` the
  /// producing run_to was given).
  int next_slice = 0;
  /// The slices every segment before next_slice executed, folded. A
  /// hand-built snapshot must give it the spec's AggregateShape (the
  /// default shape matches a default FleetSpec).
  SliceAggregate slices;
  /// One entry per device, in id order (devices not yet joined included,
  /// with started == false).
  std::vector<DeviceProgress> devices;

  /// Serializes to the versioned binary format (magic, version, tagged
  /// payload, trailing FNV-1a checksum).
  [[nodiscard]] std::string to_bytes() const;

  /// Parses to_bytes() output. Throws std::runtime_error on a bad magic, a
  /// format version other than this build's, a checksum mismatch, a
  /// truncated stream, a count larger than the bytes left could hold, or
  /// an unknown field tag.
  [[nodiscard]] static FleetSnapshot from_bytes(std::string_view bytes);

  /// to_bytes()/from_bytes() through a file. Throw std::runtime_error on
  /// I/O failure.
  void save(const std::string& path) const;
  [[nodiscard]] static FleetSnapshot load(const std::string& path);
};

}  // namespace hhpim::fleet
