#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = now();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span '" + spans_.at(static_cast<std::size_t>(id)).name +
                           "' closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_s = now();
  open_.pop_back();
}

int Tracer::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::self_time(int id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  double covered = 0.0;
  for (const Span& c : spans_) {
    if (c.parent == id) covered += c.duration();
  }
  return s.duration() - covered;
}

std::map<std::string, LayerTotals> Tracer::totals(int root) const {
  // Spans are appended in begin order, so a child's index is always greater
  // than its parent's: one forward pass marks the subtree.
  std::vector<bool> in(spans_.size(), root < 0);
  if (root >= 0) in.at(static_cast<std::size_t>(root)) = true;
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (root >= 0 && static_cast<int>(i) != root) {
      in[i] = s.parent >= 0 && in[static_cast<std::size_t>(s.parent)];
    }
    if (!in[i]) continue;
    LayerTotals& t = out[s.name];
    ++t.count;
    t.total_s += s.duration();
    t.self_s += self_time(static_cast<int>(i));
  }
  return out;
}

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os, const std::string& process_name) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":";
  write_json_string(os, process_name);
  os << "}}";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    int root = static_cast<int>(i);
    while (spans_[static_cast<std::size_t>(root)].parent >= 0) {
      root = spans_[static_cast<std::size_t>(root)].parent;
    }
    os << ",\n{\"name\":";
    write_json_string(os, s.name);
    std::snprintf(buf, sizeof buf, "%.3f", s.start_s * 1e6);
    os << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf;
    std::snprintf(buf, sizeof buf, "%.3f", s.duration() * 1e6);
    os << ",\"dur\":" << buf << ",\"args\":{\"span\":" << i
       << ",\"parent\":" << s.parent << ",\"invocation\":" << root << "}}";
  }
  os << "\n]}\n";
}

std::string Tracer::layer_table() const {
  const auto all = totals();
  double root_total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) root_total += s.duration();
  }
  std::string out;
  char line[192];
  std::snprintf(line, sizeof line, "%-28s %7s %12s %12s %8s\n", "span", "count",
                "total_s", "self_s", "share");
  out += line;
  for (const auto& [name, t] : all) {
    std::snprintf(line, sizeof line, "%-28s %7zu %12.6f %12.6f %7.2f%%\n",
                  name.c_str(), t.count, t.total_s, t.self_s,
                  root_total > 0.0 ? 100.0 * t.total_s / root_total : 0.0);
    out += line;
  }
  return out;
}

}  // namespace perfbench
