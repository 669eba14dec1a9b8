#include "fleet/snapshot.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/serialize.hpp"

namespace hhpim::fleet {
namespace {

// "hhpimsnp", little-endian. Version bumps whenever the payload layout
// changes incompatibly; a reader never guesses at another layout. Version 2
// dropped version 1's LUT-build counters (lut_builds and the counted-key
// list) from the header. Version 3 replaced version 2's per-device sample
// buffers (tag 4, 16 bytes per executed slice) with one slice aggregate in
// the header.
constexpr std::uint64_t kMagic = 0x706e736d69706868ULL;
constexpr std::uint32_t kVersion = 3;

// Per-device field tags. Explicit tags (rather than bare field order) keep
// the format self-describing: a reader meeting a tag it does not know
// throws instead of misinterpreting the bytes that follow.
enum : std::uint16_t {
  kTagFlags = 1,    ///< u8: bit0 started, bit1 done
  kTagResult = 2,   ///< the DeviceResult fixed block
  kTagLane = 3,     ///< next_k, mode, switches, buffered, charge
  // 4 was version 2's per-slice sample buffer; it is not reused.
  kTagProc = 5,     ///< Processor::save_state blob (live devices only)
  kTagDeviceEnd = 6,
  /// SLO lane (latency_slo_ps, tier_switches, applied tier) — written only
  /// when the device carries an SLO, so no-SLO snapshots stay byte-identical
  /// to pre-SLO builds (and readable by them: the tag is self-describing
  /// within this build; older readers fail loudly on it, which is the
  /// intended behavior for a snapshot that genuinely needs the SLO fields).
  kTagSlo = 7,
  /// RISC-V host cycle counter — written only when non-zero, so host-off
  /// snapshots stay byte-identical to pre-host builds (docs/RISCV.md).
  kTagHost = 8,
};

/// FNV-1a over a byte run, 8 bytes per step (little-endian packed, zero
/// padded tail; the length is hashed first so padding cannot collide).
std::uint64_t digest_bytes(std::string_view bytes) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(bytes.size()));
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    std::uint64_t chunk = 0;
    const std::size_t n = bytes.size() - i < 8 ? bytes.size() - i : 8;
    for (std::size_t j = 0; j < n; ++j) {
      chunk |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes[i + j]))
               << (8 * j);
    }
    h.add(chunk);
  }
  return h.digest();
}

/// Throws unless `count` items of at least `min_bytes` each fit in what is
/// left of the payload — checked before anything is reserved, so a damaged
/// count fails with a diagnostic instead of a giant allocation.
void check_count(const ByteReader& r, std::uint64_t count, std::size_t min_bytes,
                 const char* what) {
  if (count > r.remaining() / min_bytes) {
    throw std::runtime_error("snapshot: " + std::string(what) + " count " +
                             std::to_string(count) + " exceeds the " +
                             std::to_string(r.remaining()) +
                             " payload bytes left at offset " +
                             std::to_string(r.position()));
  }
}

void write_wide(ByteWriter& w, sim::ExactSummary::Wide v) {
  w.u64(static_cast<std::uint64_t>(v));
  w.u64(static_cast<std::uint64_t>(v >> 64));
}

sim::ExactSummary::Wide read_wide(ByteReader& r) {
  const std::uint64_t lo = r.u64();
  return static_cast<sim::ExactSummary::Wide>(r.u64()) << 64 | lo;
}

void write_histogram(ByteWriter& w, const sim::Histogram& h) {
  w.f64(h.lo());
  w.f64(h.hi());
  w.u64(static_cast<std::uint64_t>(h.bins().size()));
  for (const std::uint64_t b : h.bins()) w.u64(b);
  w.u64(h.underflow());
  w.u64(h.overflow());
}

sim::Histogram read_histogram(ByteReader& r) {
  const double lo = r.f64();
  const double hi = r.f64();
  const std::uint64_t n = r.u64();
  if (!(hi > lo) || n == 0) {
    throw std::runtime_error("snapshot: malformed histogram shape at offset " +
                             std::to_string(r.position()));
  }
  check_count(r, n, 8, "histogram bin");
  std::vector<std::uint64_t> bins(static_cast<std::size_t>(n));
  for (std::uint64_t& b : bins) b = r.u64();
  const std::uint64_t underflow = r.u64();
  const std::uint64_t overflow = r.u64();
  return sim::Histogram::from_counts(lo, hi, std::move(bins), underflow, overflow);
}

void write_slices(ByteWriter& w, const SliceAggregate& a) {
  write_histogram(w, a.busy_frac);
  write_histogram(w, a.energy_mj);
  w.u64(a.busy_ps.count());
  w.u64(a.busy_ps.min());
  w.u64(a.busy_ps.max());
  write_wide(w, a.busy_ps.sum());
  write_wide(w, a.busy_ps.sum_sq());
}

SliceAggregate read_slices(ByteReader& r) {
  SliceAggregate a;
  a.busy_frac = read_histogram(r);
  a.energy_mj = read_histogram(r);
  const std::uint64_t count = r.u64();
  const std::uint64_t min = r.u64();
  const std::uint64_t max = r.u64();
  const sim::ExactSummary::Wide sum = read_wide(r);
  a.busy_ps = sim::ExactSummary::from_parts(count, min, max, sum, read_wide(r));
  return a;
}

void write_device(ByteWriter& w, const DeviceProgress& p) {
  w.u16(kTagFlags);
  w.u8(static_cast<std::uint8_t>((p.started ? 1u : 0u) | (p.done ? 2u : 0u)));

  w.u16(kTagResult);
  const DeviceResult& r = p.result;
  w.u32(r.id);
  w.u32(r.model_index);
  w.u8(static_cast<std::uint8_t>(r.scenario));
  w.u64(r.seed);
  w.i64(r.slice_ps);
  w.i32(r.slices_total);
  w.i32(r.slices_executed);
  w.u64(r.tasks);
  w.u64(r.tasks_dropped);
  w.u64(r.deadline_violations);
  w.f64(r.energy_pj);
  w.f64(r.battery_capacity_pj);
  w.f64(r.final_soc);
  w.i32(r.exhausted_at_slice);
  w.u32(r.mode_switches);
  w.i32(r.low_power_slices);
  w.i64(r.busy_time_ps);
  w.i64(r.max_busy_ps);
  w.i64(r.movement_time_ps);

  w.u16(kTagLane);
  w.i32(p.next_k);
  w.u8(p.mode);
  w.u32(p.switches);
  w.i32(p.buffered);
  w.f64(p.charge_pj);

  if (!p.proc_state.empty()) {
    w.u16(kTagProc);
    w.blob(p.proc_state);
  }
  if (p.result.latency_slo_ps > 0 || p.result.tier_switches != 0 || p.tier != 255) {
    w.u16(kTagSlo);
    w.i64(p.result.latency_slo_ps);
    w.u32(p.result.tier_switches);
    w.u8(p.tier);
  }
  if (p.result.host_cycles != 0) {
    w.u16(kTagHost);
    w.u64(p.result.host_cycles);
  }
  w.u16(kTagDeviceEnd);
}

DeviceProgress read_device(ByteReader& r) {
  DeviceProgress p;
  for (;;) {
    const std::uint16_t tag = r.u16();
    switch (tag) {
      case kTagFlags: {
        const std::uint8_t f = r.u8();
        p.started = (f & 1u) != 0;
        p.done = (f & 2u) != 0;
        break;
      }
      case kTagResult: {
        DeviceResult& d = p.result;
        d.id = r.u32();
        d.model_index = r.u32();
        d.scenario = static_cast<workload::Scenario>(r.u8());
        d.seed = r.u64();
        d.slice_ps = r.i64();
        d.slices_total = r.i32();
        d.slices_executed = r.i32();
        d.tasks = r.u64();
        d.tasks_dropped = r.u64();
        d.deadline_violations = r.u64();
        d.energy_pj = r.f64();
        d.battery_capacity_pj = r.f64();
        d.final_soc = r.f64();
        d.exhausted_at_slice = r.i32();
        d.mode_switches = r.u32();
        d.low_power_slices = r.i32();
        d.busy_time_ps = r.i64();
        d.max_busy_ps = r.i64();
        d.movement_time_ps = r.i64();
        break;
      }
      case kTagLane:
        p.next_k = r.i32();
        p.mode = r.u8();
        p.switches = r.u32();
        p.buffered = r.i32();
        p.charge_pj = r.f64();
        break;
      case kTagProc:
        p.proc_state = std::string(r.blob());
        break;
      case kTagSlo:
        p.result.latency_slo_ps = r.i64();
        p.result.tier_switches = r.u32();
        p.tier = r.u8();
        break;
      case kTagHost:
        p.result.host_cycles = r.u64();
        break;
      case kTagDeviceEnd:
        return p;
      default:
        throw std::runtime_error(
            "snapshot: unknown device field tag " + std::to_string(tag) +
            " at offset " + std::to_string(r.position()) +
            " (stream written by an incompatible build?)");
    }
  }
}

}  // namespace

std::string FleetSnapshot::to_bytes() const {
  ByteWriter payload;
  payload.u64(spec_digest);
  payload.u32(static_cast<std::uint32_t>(next_slice));
  write_slices(payload, slices);
  payload.u64(static_cast<std::uint64_t>(devices.size()));
  for (const DeviceProgress& p : devices) write_device(payload, p);

  ByteWriter out;
  out.u64(kMagic);
  out.u32(kVersion);
  out.raw(payload.bytes());
  out.u64(digest_bytes(payload.bytes()));
  return out.take();
}

FleetSnapshot FleetSnapshot::from_bytes(std::string_view bytes) {
  ByteReader header{bytes};
  if (header.u64() != kMagic) {
    throw std::runtime_error("snapshot: bad magic (not a fleet snapshot)");
  }
  const std::uint32_t version = header.u32();
  if (version != kVersion) {
    throw std::runtime_error(
        "snapshot: format version " + std::to_string(version) +
        " is not supported; this build reads version " +
        std::to_string(kVersion) + " only");
  }
  if (header.remaining() < 8) {
    throw std::runtime_error("snapshot: truncated stream (missing checksum)");
  }
  const std::string_view payload =
      bytes.substr(header.position(), header.remaining() - 8);
  ByteReader tail{bytes.substr(bytes.size() - 8)};
  if (digest_bytes(payload) != tail.u64()) {
    throw std::runtime_error(
        "snapshot: checksum mismatch (corrupted or truncated stream)");
  }

  ByteReader r{payload};
  FleetSnapshot snap;
  snap.spec_digest = r.u64();
  snap.next_slice = static_cast<int>(r.u32());
  snap.slices = read_slices(r);
  const std::uint64_t n_devices = r.u64();
  // The smallest device record is its 2-byte end tag.
  check_count(r, n_devices, 2, "device");
  snap.devices.reserve(static_cast<std::size_t>(n_devices));
  for (std::uint64_t i = 0; i < n_devices; ++i) {
    snap.devices.push_back(read_device(r));
  }
  if (!r.at_end()) {
    throw std::runtime_error(
        "snapshot: " + std::to_string(r.remaining()) +
        " trailing payload bytes after the last device record");
  }
  return snap;
}

void FleetSnapshot::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("snapshot: cannot open " + path);
  const std::string bytes = to_bytes();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("snapshot: write failed for " + path);
}

FleetSnapshot FleetSnapshot::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("snapshot: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw std::runtime_error("snapshot: read failed for " + path);
  return from_bytes(buf.str());
}

}  // namespace hhpim::fleet
