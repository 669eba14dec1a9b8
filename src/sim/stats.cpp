#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace hhpim::sim {

void Summary::add(double v) {
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  const double delta = v - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (v - mean_);
}

void Summary::merge(const Summary& o) {
  if (o.count_ == 0) return;
  if (count_ == 0) {
    *this = o;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(o.count_);
  const double delta = o.mean_ - mean_;
  const double n = n1 + n2;
  m2_ += o.m2_ + delta * delta * n1 * n2 / n;
  mean_ = (n1 * mean_ + n2 * o.mean_) / n;
  count_ += o.count_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void Summary::reset() { *this = Summary{}; }

double Summary::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

void ExactSummary::add(std::uint64_t v) {
  ++count_;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  sum_ += v;
  sum_sq_ += static_cast<Wide>(v) * v;
}

void ExactSummary::merge(const ExactSummary& o) {
  count_ += o.count_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  sum_ += o.sum_;
  sum_sq_ += o.sum_sq_;
}

ExactSummary ExactSummary::from_parts(std::uint64_t count, std::uint64_t min,
                                      std::uint64_t max, Wide sum, Wide sum_sq) {
  ExactSummary s;
  if (count == 0) return s;  // an empty summary's min is its sentinel
  s.count_ = count;
  s.min_ = min;
  s.max_ = max;
  s.sum_ = sum;
  s.sum_sq_ = sum_sq;
  return s;
}

double ExactSummary::mean() const {
  if (count_ == 0) return 0.0;
  // q + r/n with q, r = divmod(sum, n): q fits 64 bits (it is at most max).
  const Wide q = sum_ / count_;
  const Wide r = sum_ % count_;
  return static_cast<double>(q) +
         static_cast<double>(r) / static_cast<double>(count_);
}

double ExactSummary::variance() const {
  if (count_ < 2) return 0.0;
  // With q, r = divmod(S1, n): sum (x - q)^2 = S2 - n q^2 - 2 q r exactly
  // (an integer, and never negative), and M2 = sum (x - mean)^2 is that
  // minus r^2 / n. Constant samples give r = 0 and a zero integer part.
  const Wide n = count_;
  const Wide q = sum_ / n;
  const Wide r = sum_ % n;
  const Wide about_q = sum_sq_ - n * q * q - 2 * q * r;
  const double rd = static_cast<double>(r);
  const double m2 = static_cast<double>(about_q) - rd * rd / static_cast<double>(count_);
  return std::max(m2, 0.0) / static_cast<double>(count_ - 1);
}

double ExactSummary::stddev() const { return std::sqrt(variance()); }

Histogram Histogram::from_counts(double lo, double hi,
                                 std::vector<std::uint64_t> bins,
                                 std::uint64_t underflow, std::uint64_t overflow) {
  Histogram h{lo, hi, bins.size()};
  h.total_ = underflow + overflow;
  for (const std::uint64_t b : bins) h.total_ += b;
  h.bins_ = std::move(bins);
  h.underflow_ = underflow;
  h.overflow_ = overflow;
  return h;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double v, std::uint64_t weight) {
  total_ += weight;
  if (v < lo_) {
    underflow_ += weight;
    return;
  }
  if (v >= hi_) {
    overflow_ += weight;
    return;
  }
  const auto idx = static_cast<std::size_t>((v - lo_) / (hi_ - lo_) *
                                            static_cast<double>(bins_.size()));
  bins_[std::min(idx, bins_.size() - 1)] += weight;
}

void Histogram::merge(const Histogram& o) {
  if (lo_ != o.lo_ || hi_ != o.hi_ || bins_.size() != o.bins_.size()) {
    throw std::invalid_argument("Histogram::merge: shape mismatch");
  }
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += o.bins_[i];
  underflow_ += o.underflow_;
  overflow_ += o.overflow_;
  total_ += o.total_;
}

void Histogram::reset() {
  std::fill(bins_.begin(), bins_.end(), 0);
  underflow_ = overflow_ = total_ = 0;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(bins_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (cum >= target) return lo_;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double next = cum + static_cast<double>(bins_[i]);
    if (next >= target && bins_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(bins_[i]);
      return bin_lo(i) + frac * (bin_hi(i) - bin_lo(i));
    }
    cum = next;
  }
  return hi_;
}

std::string Histogram::render(std::size_t width) const {
  std::ostringstream out;
  const std::uint64_t peak = *std::max_element(bins_.begin(), bins_.end());
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const auto bar = peak == 0 ? 0
                               : static_cast<std::size_t>(
                                     static_cast<double>(bins_[i]) /
                                     static_cast<double>(peak) *
                                     static_cast<double>(width));
    out << "[" << bin_lo(i) << ", " << bin_hi(i) << ") "
        << std::string(bar, '#') << " " << bins_[i] << "\n";
  }
  return out.str();
}

}  // namespace hhpim::sim
