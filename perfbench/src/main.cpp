// End-to-end benchmark binary: one workload per process.
//
//   perfbench --workload=cli-cold|fleet-week|fleet-week-ckpt --seed=N
//             --seconds=S --trace=0|1 --out=DIR
//
// Repeats timed rounds of the workload for S seconds (at least one round),
// then checks the last round's outputs. Each round runs in a forked child:
// it starts from the same small heap and faults in its own memory, as a CLI
// process does, and its peak resident set is its own. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace=0 the metrics are the end-to-end ones (wall_s, setup_s,
// sim_slices_per_s, peak_rss_mb); with --trace=1 the run records spans and
// reports the per-layer metrics instead, and writes DIR/trace.json (Chrome
// trace-event JSON) and DIR/layers.txt.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/cli.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RoundResult;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

/// Per-layer metrics, as named in BENCHMARK.json. A metric ending in "_s"
/// whose stem is a span name is that span's total per round.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"placement.lut_build_s", "s"},
    {"placement.lut_builds", "count"},
    {"placement.lut_feasible_entries", "count"},
    {"placement.frontier_points", "count"},
    {"placement.lut_cache_hits", "count"},
    {"placement.lut_cache_misses", "count"},
    {"fleet.run_s", "s"},
    {"fleet.memo_hits", "count"},
    {"fleet.memo_misses", "count"},
    {"fleet.memo_replayed_devices", "count"},
    {"fleet.memo_exact_devices", "count"},
    {"fleet.memo_hit_rate", "ratio"},
    {"fleet.segment_s", "s"},
    {"fleet.resume_s", "s"},
    {"fleet.snapshot_save_s", "s"},
    {"fleet.snapshot_load_s", "s"},
    {"fleet.snapshot_bytes", "bytes"},
    {"fleet.write_jsonl_s", "s"},
    {"fleet.write_summary_s", "s"},
    {"fleet.jsonl_bytes", "bytes"},
    {"fleet.device_slices", "count"},
    {"exp.grid_run_s", "s"},
    {"exp.nas_run_s", "s"},
    {"exp.write_s", "s"},
    {"exp.runs", "count"},
    {"process.user_s", "s"},
    {"process.sys_s", "s"},
    {"process.minor_faults", "count"},
};

/// A round as the child sends it: the RoundResult plus the spans it added
/// to its copy of the tracer, one record per line.
std::string encode_round(const RoundResult& r, const perfbench::Tracer& tracer,
                         std::size_t first_span) {
  std::ostringstream os;
  os.precision(17);
  os << "wall " << r.wall_s << "\nsetup " << r.setup_s << "\nslices " << r.slices
     << "\ninvocations " << r.invocations << "\nrss " << r.peak_rss_mb << '\n';
  for (const auto& [k, v] : r.counts) os << "count " << k << ' ' << v << '\n';
  for (const int root : r.roots) os << "root " << root << '\n';
  const auto& spans = tracer.spans();
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    os << "span " << spans[i].parent << ' ' << spans[i].start_s << ' ' << spans[i].end_s
       << ' ' << spans[i].name << '\n';
  }
  return os.str();
}

RoundResult decode_round(const std::string& text, perfbench::Tracer& tracer) {
  RoundResult r;
  std::istringstream in{text};
  std::string tag;
  while (in >> tag) {
    if (tag == "wall") {
      in >> r.wall_s;
    } else if (tag == "setup") {
      in >> r.setup_s;
    } else if (tag == "slices") {
      in >> r.slices;
    } else if (tag == "invocations") {
      in >> r.invocations;
    } else if (tag == "rss") {
      in >> r.peak_rss_mb;
    } else if (tag == "count") {
      std::string k;
      double v = 0.0;
      in >> k >> v;
      r.counts[k] = v;
    } else if (tag == "root") {
      int root = 0;
      in >> root;
      r.roots.push_back(root);
    } else if (tag == "span") {
      perfbench::Span sp;
      in >> sp.parent >> sp.start_s >> sp.end_s >> sp.name;
      tracer.add(std::move(sp));
    } else {
      throw std::runtime_error("bad round record '" + tag + "'");
    }
  }
  return r;
}

/// Runs one round in a forked child and collects what it measured. Throws
/// std::runtime_error when the round failed; the child is always reaped.
RoundResult run_round(perfbench::Workload& workload, int index, perfbench::Tracer& tracer) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const std::size_t first_span = tracer.spans().size();
    std::string payload;
    int code = 0;
    try {
      rusage before{};
      getrusage(RUSAGE_SELF, &before);
      RoundResult r = workload.round(index, tracer);
      rusage after{};
      getrusage(RUSAGE_SELF, &after);
      r.counts["process.user_s"] = tv_seconds(after.ru_utime) - tv_seconds(before.ru_utime);
      r.counts["process.sys_s"] = tv_seconds(after.ru_stime) - tv_seconds(before.ru_stime);
      r.counts["process.minor_faults"] =
          static_cast<double>(after.ru_minflt - before.ru_minflt);
      r.peak_rss_mb = static_cast<double>(after.ru_maxrss) / 1024.0;
      payload = encode_round(r, tracer, first_span);
    } catch (const std::exception& e) {
      payload = e.what();
      code = 1;
    } catch (...) {
      payload = "round threw a non-standard exception";
      code = 1;
    }
    std::size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n = write(fds[1], payload.data() + off, payload.size() - off);
      if (n <= 0) _exit(1);
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(code);  // no destructors: the parent owns the process-level state
  }
  close(fds[1]);
  std::string payload;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    payload.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(payload.empty() ? "round process died" : payload);
  }
  return decode_round(payload, tracer);
}

void print_metric(std::string& out, const char* name, double value, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name, value, unit);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const hhpim::Cli cli{argc, argv};
  const std::string name = cli.get("workload", "");
  const std::int64_t seed = cli.get_int("seed", 0);
  const double run_seconds = cli.get_double("seconds", 10.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const std::string out_dir = cli.get("out", "");
  if (out_dir.empty() || seed < 0 || !(run_seconds > 0.0)) {
    std::fprintf(stderr, "usage: perfbench --workload=NAME --seed=N --seconds=S "
                         "--trace=0|1 --out=DIR\n");
    return 2;
  }
  std::filesystem::create_directories(out_dir);
  const auto workload =
      perfbench::make_workload(name, static_cast<std::uint64_t>(seed), out_dir);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }

  perfbench::Tracer tracer{trace};
  perfbench::CheckLog log;
  std::vector<RoundResult> rounds;
  bool broken = false;
  const auto start = std::chrono::steady_clock::now();
  do {
    try {
      RoundResult rr = run_round(*workload, static_cast<int>(rounds.size()), tracer);
      for (int i = 0; i < rr.invocations; ++i) log.record("invocation", "");
      rounds.push_back(std::move(rr));
    } catch (const std::exception& e) {
      log.record("invocation", e.what());
      broken = true;
    }
  } while (!broken && rounds.size() < static_cast<std::size_t>(perfbench::kMaxRounds) &&
           std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
               run_seconds);

  if (!broken) {
    try {
      workload->check(static_cast<int>(rounds.size()) - 1, log);
    } catch (const std::exception& e) {
      log.record("checks", e.what());
    }
  }

  // The work done, so a run that did less cannot pass for a faster one.
  // cli-cold's post-set-up phase is ~0.06 s a round of two-worker runs: its
  // rate moved 30% between two ten-run sets, so there the rate is taken over
  // the whole round (set-up included), which moves with wall_s.
  const bool whole_round_rate = name == "cli-cold";
  std::vector<double> walls, setups, rates, rss;
  for (const RoundResult& r : rounds) {
    walls.push_back(r.wall_s);
    rss.push_back(r.peak_rss_mb);
    setups.push_back(r.setup_s);
    rates.push_back(static_cast<double>(r.slices) /
                    (whole_round_rate ? r.wall_s : r.wall_s - r.setup_s));
  }
  if (!rounds.empty()) {
    std::map<std::string, double> work;
    int invocations = 0;
    for (const RoundResult& r : rounds) {
      invocations += r.invocations;
      for (const char* key : {"fleet.device_slices", "placement.lut_builds", "exp.runs"}) {
        const auto it = r.counts.find(key);
        if (it != r.counts.end()) work[key] += it->second;
      }
    }
    std::printf("%s: %zu rounds, %d invocations; work: fleet.device_slices=%.0f "
                "placement.lut_builds=%.0f exp.runs=%.0f; round wall_s min %.4f median %.4f "
                "max %.4f\n",
                name.c_str(), rounds.size(), invocations, work["fleet.device_slices"],
                work["placement.lut_builds"], work["exp.runs"],
                *std::min_element(walls.begin(), walls.end()), median(walls),
                *std::max_element(walls.begin(), walls.end()));
  }

  std::string metrics;
  if (!trace) {
    print_metric(metrics, "wall_s", median(walls), "s");
    print_metric(metrics, "setup_s", median(setups), "s");
    print_metric(metrics, "sim_slices_per_s", median(rates), "1/s");
    print_metric(metrics, "peak_rss_mb", median(rss), "MiB");
  } else if (!broken) {
    // Invocation spans must cover the measured wall clock, and the layer
    // spans under them must cover the invocations, each to within 5%.
    double span_sum = 0.0, child_sum = 0.0, wall_sum = 0.0;
    for (const RoundResult& r : rounds) {
      wall_sum += r.wall_s;
      for (const int root : r.roots) {
        const double d = tracer.spans()[static_cast<std::size_t>(root)].duration();
        span_sum += d;
        child_sum += d - tracer.self_time(root);
      }
    }
    const double cover_wall = span_sum / wall_sum;
    const double cover_layers = child_sum / span_sum;
    std::printf("trace coverage: invocation spans / wall_s = %.4f, layer spans / "
                "invocation spans = %.4f\n", cover_wall, cover_layers);
    log.record("trace coverage",
               std::fabs(cover_wall - 1.0) <= 0.05 && cover_layers >= 0.95
                   ? std::string{}
                   : "spans cover less than 95% of the measured time");

    std::map<std::string, std::vector<double>> per_round;
    for (const RoundResult& r : rounds) {
      std::map<std::string, double> v = r.counts;
      for (const int root : r.roots) {
        for (const auto& [span, t] : tracer.totals(root)) v[span + "_s"] += t.total_s;
      }
      const double lookups = v["fleet.memo_hits"] + v["fleet.memo_misses"];
      v["fleet.memo_hit_rate"] = lookups > 0.0 ? v["fleet.memo_hits"] / lookups : 0.0;
      for (const auto& m : kLayerMetrics) per_round[m.name].push_back(v[m.name]);
    }
    for (const auto& m : kLayerMetrics) {
      print_metric(metrics, m.name, median(per_round[m.name]), m.unit);
    }

    const std::string table = tracer.layer_table();
    std::printf("%s", table.c_str());
    std::ofstream(out_dir + "/layers.txt") << table;
    std::ofstream json(out_dir + "/trace.json");
    tracer.write_chrome_json(json, "perfbench " + name);
    std::printf("wrote %s/trace.json and %s/layers.txt\n", out_dir.c_str(), out_dir.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              log.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(log.attempted()),
              static_cast<unsigned long long>(log.failed()), metrics.c_str());
  return 0;
}
