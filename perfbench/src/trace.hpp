// In-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, parent). The benchmark opens one span per
// public call it makes into a layer of the library, nested under one span
// per invocation; nothing inside the library is instrumented. Spans stay in
// memory until the run ends, then go out as Chrome trace-event JSON (which
// Perfetto and chrome://tracing open) and as a per-layer table of totals
// and self times. A disabled tracer records nothing and reads no clock.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was constructed
  double end_s = 0.0;
  int parent = -1;       ///< index into Tracer::spans(); -1 = root

  [[nodiscard]] double duration() const { return end_s - start_s; }
};

/// Per-name totals over a set of spans.
struct LayerTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus the time direct children cover
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when disabled.
  int begin(const std::string& name);
  /// Closes span `id` (a no-op for -1). Spans close in LIFO order.
  void end(int id);
  /// Appends a closed span recorded elsewhere against the same origin (a
  /// forked child's copy of this tracer); returns its index.
  int add(Span span);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of span `id`: its duration minus the union of its direct
  /// children (children of one span never overlap here — the benchmark
  /// calls layers one after another on one thread).
  [[nodiscard]] double self_time(int id) const;

  /// Totals per span name over the subtree rooted at `root` (root
  /// included), or over every span when `root` is -1.
  [[nodiscard]] std::map<std::string, LayerTotals> totals(int root = -1) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome_json(std::ostream& os, const std::string& process_name) const;

  /// Fixed-width text table of totals(): name, count, total, self, share of
  /// the root spans' total.
  [[nodiscard]] std::string layer_table() const;

 private:
  [[nodiscard]] double now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
