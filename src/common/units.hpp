// Strong unit types used throughout the simulator.
//
// Conventions:
//   * Time is an integer number of picoseconds. Integer time makes the
//     busy-until arithmetic deterministic (no floating-point rounding in
//     time comparisons) and is exact for every latency in the paper's Table III
//     (all are multiples of 10 ps).
//   * Energy is a double number of picojoules.
//   * Power is a double number of milliwatts.
//
// The identity 1 mW * 1 ns == 1 pJ makes Power * Time -> Energy exact in
// these units, which is why they were chosen.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace hhpim {

/// A point in (or span of) simulated time, stored as integer picoseconds.
class Time {
 public:
  constexpr Time() = default;

  [[nodiscard]] static constexpr Time ps(std::int64_t v) { return Time{v}; }
  [[nodiscard]] static constexpr Time ns(double v) {
    return Time{static_cast<std::int64_t>(std::llround(v * 1e3))};
  }
  [[nodiscard]] static constexpr Time us(double v) {
    return Time{static_cast<std::int64_t>(std::llround(v * 1e6))};
  }
  [[nodiscard]] static constexpr Time ms(double v) {
    return Time{static_cast<std::int64_t>(std::llround(v * 1e9))};
  }
  [[nodiscard]] static constexpr Time s(double v) {
    return Time{static_cast<std::int64_t>(std::llround(v * 1e12))};
  }
  [[nodiscard]] static constexpr Time zero() { return Time{0}; }
  [[nodiscard]] static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t as_ps() const { return ps_; }
  [[nodiscard]] constexpr double as_ns() const { return static_cast<double>(ps_) * 1e-3; }
  [[nodiscard]] constexpr double as_us() const { return static_cast<double>(ps_) * 1e-6; }
  [[nodiscard]] constexpr double as_ms() const { return static_cast<double>(ps_) * 1e-9; }
  [[nodiscard]] constexpr double as_s() const { return static_cast<double>(ps_) * 1e-12; }

  constexpr Time& operator+=(Time o) { ps_ += o.ps_; return *this; }
  constexpr Time& operator-=(Time o) { ps_ -= o.ps_; return *this; }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ps_ + b.ps_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ps_ - b.ps_}; }
  friend constexpr Time operator*(Time a, std::int64_t k) { return Time{a.ps_ * k}; }
  friend constexpr Time operator*(std::int64_t k, Time a) { return Time{a.ps_ * k}; }
  friend constexpr Time operator*(Time a, int k) { return Time{a.ps_ * k}; }
  friend constexpr Time operator*(int k, Time a) { return Time{a.ps_ * k}; }
  friend constexpr Time operator*(Time a, double k) {
    return Time{static_cast<std::int64_t>(std::llround(static_cast<double>(a.ps_) * k))};
  }
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.ps_) / static_cast<double>(b.ps_);
  }
  friend constexpr Time operator/(Time a, std::int64_t k) { return Time{a.ps_ / k}; }
  friend constexpr auto operator<=>(Time a, Time b) = default;

  /// Human-readable rendering with an automatically chosen scale.
  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit Time(std::int64_t ps) : ps_(ps) {}
  std::int64_t ps_ = 0;
};

/// An amount of energy in picojoules.
class Energy {
 public:
  constexpr Energy() = default;

  [[nodiscard]] static constexpr Energy pj(double v) { return Energy{v}; }
  [[nodiscard]] static constexpr Energy nj(double v) { return Energy{v * 1e3}; }
  [[nodiscard]] static constexpr Energy uj(double v) { return Energy{v * 1e6}; }
  [[nodiscard]] static constexpr Energy mj(double v) { return Energy{v * 1e9}; }
  [[nodiscard]] static constexpr Energy zero() { return Energy{0.0}; }

  [[nodiscard]] constexpr double as_pj() const { return pj_; }
  [[nodiscard]] constexpr double as_nj() const { return pj_ * 1e-3; }
  [[nodiscard]] constexpr double as_uj() const { return pj_ * 1e-6; }
  [[nodiscard]] constexpr double as_mj() const { return pj_ * 1e-9; }

  constexpr Energy& operator+=(Energy o) { pj_ += o.pj_; return *this; }
  constexpr Energy& operator-=(Energy o) { pj_ -= o.pj_; return *this; }

  friend constexpr Energy operator+(Energy a, Energy b) { return Energy{a.pj_ + b.pj_}; }
  friend constexpr Energy operator-(Energy a, Energy b) { return Energy{a.pj_ - b.pj_}; }
  friend constexpr Energy operator*(Energy a, double k) { return Energy{a.pj_ * k}; }
  friend constexpr Energy operator*(double k, Energy a) { return Energy{a.pj_ * k}; }
  friend constexpr Energy operator/(Energy a, double k) { return Energy{a.pj_ / k}; }
  friend constexpr double operator/(Energy a, Energy b) { return a.pj_ / b.pj_; }
  friend constexpr auto operator<=>(Energy a, Energy b) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit Energy(double pj) : pj_(pj) {}
  double pj_ = 0.0;
};

/// Power in milliwatts.
class Power {
 public:
  constexpr Power() = default;

  [[nodiscard]] static constexpr Power mw(double v) { return Power{v}; }
  [[nodiscard]] static constexpr Power uw(double v) { return Power{v * 1e-3}; }
  [[nodiscard]] static constexpr Power w(double v) { return Power{v * 1e3}; }
  [[nodiscard]] static constexpr Power zero() { return Power{0.0}; }

  [[nodiscard]] constexpr double as_mw() const { return mw_; }
  [[nodiscard]] constexpr double as_uw() const { return mw_ * 1e3; }
  [[nodiscard]] constexpr double as_w() const { return mw_ * 1e-3; }

  constexpr Power& operator+=(Power o) { mw_ += o.mw_; return *this; }

  friend constexpr Power operator+(Power a, Power b) { return Power{a.mw_ + b.mw_}; }
  friend constexpr Power operator-(Power a, Power b) { return Power{a.mw_ - b.mw_}; }
  friend constexpr Power operator*(Power a, double k) { return Power{a.mw_ * k}; }
  friend constexpr Power operator*(double k, Power a) { return Power{a.mw_ * k}; }
  friend constexpr auto operator<=>(Power a, Power b) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit Power(double mw) : mw_(mw) {}
  double mw_ = 0.0;
};

/// 1 mW over 1 ns is exactly 1 pJ.
[[nodiscard]] constexpr Energy operator*(Power p, Time t) {
  return Energy::pj(p.as_mw() * t.as_ns());
}
[[nodiscard]] constexpr Energy operator*(Time t, Power p) { return p * t; }

/// Average power over an interval. Returns zero power for a zero interval.
[[nodiscard]] constexpr Power operator/(Energy e, Time t) {
  return t == Time::zero() ? Power::zero() : Power::mw(e.as_pj() / t.as_ns());
}

/// Clock frequency in hertz; converts to/from cycle periods.
class Frequency {
 public:
  constexpr Frequency() = default;
  [[nodiscard]] static constexpr Frequency hz(double v) { return Frequency{v}; }
  [[nodiscard]] static constexpr Frequency mhz(double v) { return Frequency{v * 1e6}; }
  [[nodiscard]] static constexpr Frequency ghz(double v) { return Frequency{v * 1e9}; }

  [[nodiscard]] constexpr double as_hz() const { return hz_; }
  [[nodiscard]] constexpr double as_mhz() const { return hz_ * 1e-6; }
  /// Duration of one clock period.
  [[nodiscard]] constexpr Time period() const { return Time::ps(static_cast<std::int64_t>(std::llround(1e12 / hz_))); }

  friend constexpr auto operator<=>(Frequency a, Frequency b) = default;

 private:
  constexpr explicit Frequency(double hz) : hz_(hz) {}
  double hz_ = 0.0;
};

namespace literals {
constexpr Time operator""_ps(unsigned long long v) { return Time::ps(static_cast<std::int64_t>(v)); }
constexpr Time operator""_ns(long double v) { return Time::ns(static_cast<double>(v)); }
constexpr Time operator""_ns(unsigned long long v) { return Time::ns(static_cast<double>(v)); }
constexpr Time operator""_us(long double v) { return Time::us(static_cast<double>(v)); }
constexpr Time operator""_us(unsigned long long v) { return Time::us(static_cast<double>(v)); }
constexpr Time operator""_ms(long double v) { return Time::ms(static_cast<double>(v)); }
constexpr Time operator""_ms(unsigned long long v) { return Time::ms(static_cast<double>(v)); }
constexpr Energy operator""_pJ(long double v) { return Energy::pj(static_cast<double>(v)); }
constexpr Energy operator""_pJ(unsigned long long v) { return Energy::pj(static_cast<double>(v)); }
constexpr Energy operator""_nJ(long double v) { return Energy::nj(static_cast<double>(v)); }
constexpr Energy operator""_uJ(long double v) { return Energy::uj(static_cast<double>(v)); }
constexpr Power operator""_mW(long double v) { return Power::mw(static_cast<double>(v)); }
constexpr Power operator""_mW(unsigned long long v) { return Power::mw(static_cast<double>(v)); }
}  // namespace literals

}  // namespace hhpim
