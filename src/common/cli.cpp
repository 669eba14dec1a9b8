#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/strings.hpp"

namespace hhpim {
namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const std::string& why) {
  throw std::invalid_argument("--" + name + "=" + value + ": " + why);
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      flags_[arg] = "true";
    }
  }
}

void Cli::require_known(std::initializer_list<std::string_view> known) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
  if (!positionals_.empty()) {
    throw std::invalid_argument("unexpected argument '" + positionals_.front() +
                                "' (flags are --name=value)");
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def,
                          std::int64_t min, std::int64_t max) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v.empty()) bad_value(name, v, "expected an integer");
  char* end = nullptr;
  errno = 0;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (end != v.c_str() + v.size()) bad_value(name, v, "expected an integer");
  if (errno == ERANGE || x < min || x > max) {
    bad_value(name, v, "out of range [" + std::to_string(min) + ", " +
                           std::to_string(max) + "]");
  }
  return x;
}

double Cli::get_double(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v.empty()) bad_value(name, v, "expected a number");
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (end != v.c_str() + v.size()) bad_value(name, v, "expected a number");
  if (errno == ERANGE || !std::isfinite(x)) bad_value(name, v, "out of range");
  return x;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const auto v = to_lower(it->second);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  bad_value(name, it->second, "expected true or false");
}

}  // namespace hhpim
