// Tiny command-line flag parser for the example binaries.
// Supports `--name=value` and boolean `--flag`; everything else is a
// positional argument. Bad input fails loudly: a value that does not parse
// as the type asked for throws std::invalid_argument naming the flag and
// its value, and require_known() rejects flags a program does not define.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hhpim {

class Cli {
 public:
  /// Parses argv. Unknown positional arguments are collected in positionals().
  Cli(int argc, const char* const* argv);

  /// Throws std::invalid_argument naming the first flag that is not in
  /// `known`, or the first positional argument — so a misspelled
  /// `--devcies=5` is an error, not a silently ignored flag.
  void require_known(std::initializer_list<std::string_view> known) const;

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& def) const;
  /// A base-10 integer in [min, max]. Throws std::invalid_argument when the
  /// value is empty, has trailing characters (`12x`), or lies outside the
  /// range (including outside std::int64_t).
  [[nodiscard]] std::int64_t get_int(
      const std::string& name, std::int64_t def,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  /// A finite number. Throws std::invalid_argument when the value is empty,
  /// has trailing characters, overflows, or is inf/nan.
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  /// 1/true/yes/on or 0/false/no/off (any case); a bare `--flag` is true.
  /// Throws std::invalid_argument on anything else.
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const { return positionals_; }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positionals_;
};

}  // namespace hhpim
