#include "checks.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/strings.hpp"
#include "placement/brute_force.hpp"

namespace perfbench {

using hhpim::placement::Allocation;
using hhpim::placement::CostModel;
using hhpim::placement::LutEntry;
using hhpim::placement::ParetoPoint;

void CheckLog::record(const std::string& name, const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  std::fprintf(stderr, "check failed: %s: %s\n", name.c_str(), error.c_str());
}

void CheckLog::record_rejection(const std::string& name, const std::string& error) {
  record("self-test " + name,
         error.empty() ? "the check accepted a tampered output" : std::string{});
}

std::string compare_bytes(const std::string& what, const std::string& got,
                          const std::string& want) {
  if (got == want) return {};
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  std::ostringstream os;
  os << what << ": first difference at byte " << i << " (lengths " << got.size()
     << " vs " << want.size() << ")";
  return os.str();
}

double json_number(const std::string& object, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = object.find(needle);
  if (at == std::string::npos) throw std::runtime_error("missing JSON field " + key);
  const char* p = object.c_str() + at + needle.size();
  while (*p == ' ') ++p;
  char* end = nullptr;
  const double v = std::strtod(p, &end);
  if (end == p) throw std::runtime_error("non-numeric JSON field " + key);
  return v;
}

std::string check_summary_sums(const std::string& jsonl, const std::string& summary) {
  // Summary key -> how one device line contributes to it.
  static const std::vector<std::pair<std::string, std::string>> kSums = {
      {"executed_slices", "slices_executed"},
      {"tasks", "tasks"},
      {"tasks_dropped", "tasks_dropped"},
      {"deadline_violations", "deadline_violations"},
      {"mode_switches", "mode_switches"},
      {"low_power_slices", "low_power_slices"},
  };
  try {
    std::map<std::string, double> sums;
    double devices = 0.0;
    double exhausted = 0.0;
    std::size_t pos = 0;
    while (pos < jsonl.size()) {
      std::size_t nl = jsonl.find('\n', pos);
      if (nl == std::string::npos) nl = jsonl.size();
      const std::string line = jsonl.substr(pos, nl - pos);
      pos = nl + 1;
      if (line.empty()) continue;
      devices += 1.0;
      for (const auto& [skey, lkey] : kSums) sums[skey] += json_number(line, lkey);
      if (json_number(line, "exhausted_at_slice") >= 0.0) exhausted += 1.0;
    }
    sums["devices"] = devices;
    sums["exhausted_devices"] = exhausted;
    for (const auto& [key, sum] : sums) {
      const double s = json_number(summary, key);
      if (s != sum) {
        std::ostringstream os;
        os.precision(17);
        os << "summary " << key << " = " << s << " but the JSONL lines sum to " << sum;
        return os.str();
      }
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

namespace {

/// Splits a CSV (no quoting; the program writes none) into rows of fields,
/// dropping the header after resolving `wanted` column names to indices.
std::vector<std::vector<std::string>> csv_columns(const std::string& csv,
                                                  const std::vector<std::string>& wanted) {
  std::vector<std::vector<std::string>> out;
  std::vector<std::size_t> idx;
  std::istringstream in{csv};
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = hhpim::split(line, ',');
    if (header) {
      for (const std::string& w : wanted) {
        std::size_t i = 0;
        while (i < f.size() && f[i] != w) ++i;
        if (i == f.size()) throw std::runtime_error("CSV lacks column " + w);
        idx.push_back(i);
      }
      header = false;
      continue;
    }
    std::vector<std::string> row;
    for (const std::size_t i : idx) {
      if (i >= f.size()) throw std::runtime_error("short CSV row: " + line);
      row.push_back(f[i]);
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace

std::vector<GridRow> parse_grid_csv(const std::string& csv) {
  std::vector<GridRow> rows;
  for (const auto& f : csv_columns(csv, {"arch", "model", "scenario",
                                         "deadline_violations", "total_energy_pj"})) {
    GridRow r;
    r.arch = f[0];
    r.model = f[1];
    r.scenario = f[2];
    r.deadline_violations = std::strtoull(f[3].c_str(), nullptr, 10);
    r.total_energy_pj = std::strtod(f[4].c_str(), nullptr);
    rows.push_back(std::move(r));
  }
  return rows;
}

std::string check_grid(const std::vector<GridRow>& rows, std::size_t expected_runs) {
  if (rows.size() != expected_runs) {
    return "grid has " + std::to_string(rows.size()) + " runs, expected " +
           std::to_string(expected_runs);
  }
  // (model, scenario) -> arch -> row
  std::map<std::pair<std::string, std::string>, std::map<std::string, const GridRow*>> cells;
  for (const GridRow& r : rows) cells[{r.model, r.scenario}][r.arch] = &r;
  for (const auto& [cell, archs] : cells) {
    const std::string where = cell.first + "/" + cell.second;
    const auto hh = archs.find("HH-PIM");
    if (hh == archs.end()) return where + ": no HH-PIM run";
    if (hh->second->deadline_violations != 0) {
      return where + ": HH-PIM missed " +
             std::to_string(hh->second->deadline_violations) + " deadline(s)";
    }
    for (const char* other : {"Baseline-PIM", "Hybrid-PIM"}) {
      const auto o = archs.find(other);
      if (o == archs.end()) return where + ": no " + other + " run";
      if (!(hh->second->total_energy_pj < o->second->total_energy_pj)) {
        std::ostringstream os;
        os.precision(17);
        os << where << ": HH-PIM energy " << hh->second->total_energy_pj
           << " pJ is not below " << other << ' ' << o->second->total_energy_pj << " pJ";
        return os.str();
      }
    }
  }
  return {};
}

std::vector<NasRow> parse_nas_csv(const std::string& csv) {
  std::vector<NasRow> rows;
  for (const auto& f : csv_columns(csv, {"model", "scenario", "frontier_points",
                                         "anchor_energy_pj", "anchor_latency_ps",
                                         "perf_energy_pj", "perf_latency_ps"})) {
    NasRow r;
    r.model = f[0];
    r.scenario = f[1];
    r.frontier_points = std::strtoull(f[2].c_str(), nullptr, 10);
    r.anchor_energy_pj = std::strtod(f[3].c_str(), nullptr);
    r.anchor_latency_ps = std::strtoll(f[4].c_str(), nullptr, 10);
    r.perf_energy_pj = std::strtod(f[5].c_str(), nullptr);
    r.perf_latency_ps = std::strtoll(f[6].c_str(), nullptr, 10);
    rows.push_back(std::move(r));
  }
  return rows;
}

std::string check_nas_rows(const std::vector<NasRow>& rows, std::size_t expected_runs) {
  if (rows.size() != expected_runs) {
    return "NAS CSV has " + std::to_string(rows.size()) + " rows, expected " +
           std::to_string(expected_runs);
  }
  for (const NasRow& r : rows) {
    const std::string where = r.model + "/" + r.scenario;
    if (r.frontier_points == 0) return where + ": empty frontier";
    if (r.anchor_energy_pj > r.perf_energy_pj) {
      return where + ": min-energy anchor costs more than the min-latency point";
    }
    if (r.anchor_latency_ps < r.perf_latency_ps) {
      return where + ": min-energy anchor is faster than the min-latency point";
    }
  }
  return {};
}

std::string check_frontier(const std::vector<ParetoPoint>& f) {
  if (f.empty()) return "empty frontier";
  for (std::size_t i = 0; i < f.size(); ++i) {
    for (std::size_t j = 0; j < f.size(); ++j) {
      if (i != j && hhpim::placement::dominates(f[i], f[j])) {
        return "frontier point " + std::to_string(i) + " dominates point " +
               std::to_string(j);
      }
    }
  }
  return {};
}

namespace {

std::string check_placement(const CostModel& m, std::uint64_t total_weights,
                            const Allocation& a, hhpim::Time budget,
                            const std::string& what) {
  if (a.total() != total_weights) {
    return what + " places " + std::to_string(a.total()) + " of " +
           std::to_string(total_weights) + " weights";
  }
  if (!hhpim::placement::fits(m, a)) return what + " exceeds a capacity: " + a.to_string();
  const hhpim::Time t = hhpim::placement::task_time(m, a);
  if (t > budget) {
    return what + " takes " + t.to_string() + ", over its budget " + budget.to_string();
  }
  return {};
}

}  // namespace

std::string check_lut_entry(const CostModel& m, std::uint64_t total_weights,
                            const LutEntry& e) {
  if (!e.feasible) {
    return e.frontier.empty() ? std::string{} : "infeasible entry with a frontier";
  }
  const std::string where = "entry at " + e.t_constraint.to_string();
  std::string err = check_placement(m, total_weights, e.alloc, e.t_constraint, where);
  if (!err.empty()) return err;
  err = check_frontier(e.frontier);
  if (!err.empty()) return where + ": " + err;
  for (const ParetoPoint& p : e.frontier) {
    err = check_placement(m, total_weights, p.alloc, e.t_constraint, where + " frontier point");
    if (!err.empty()) return err;
  }
  if (hhpim::placement::min_energy_point(e.frontier).alloc != e.alloc) {
    return where + ": frontier's min-energy point is not the entry's allocation";
  }
  return {};
}

std::string check_lut_brute_force(const CostModel& m, std::uint64_t total_weights,
                                  int k_blocks, const LutEntry& e) {
  if (!e.feasible) return {};  // the DP quantizes time upward: it may give up first
  const std::uint64_t blocks = static_cast<std::uint64_t>(k_blocks);
  const std::uint64_t block = (total_weights + blocks - 1) / blocks;
  const hhpim::placement::BruteForceResult bf =
      hhpim::placement::brute_force_placement(m, total_weights, e.t_constraint, block);
  const std::string where = "entry at " + e.t_constraint.to_string();
  if (!bf.feasible) return where + ": the DP found a placement brute force cannot";
  const double dp = hhpim::placement::task_energy(m, e.alloc, e.t_constraint).as_pj();
  const double margin =
      m.at(hhpim::placement::Space::kHpMram).dyn_per_weight.as_pj() *
      static_cast<double>(block) * 2;
  const double ref = bf.energy.as_pj();
  if (dp < ref - 1.0 || dp > ref + margin) {
    std::ostringstream os;
    os.precision(17);
    os << where << ": DP energy " << dp << " pJ vs brute force " << ref
       << " pJ (slack " << margin << " pJ)";
    return os.str();
  }
  return {};
}

}  // namespace perfbench
