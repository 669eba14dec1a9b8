// Command-line parsing: flags, positionals and bool spellings, and the
// loud-failure contract — a malformed or out-of-range number, a bad bool
// and an unknown flag all throw std::invalid_argument naming the flag and
// its value, instead of running with a silently different input.
#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace hhpim {
namespace {

/// A Cli over {"prog", args...}.
Cli parse(const std::vector<std::string>& args) {
  std::vector<const char*> argv{"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return Cli{static_cast<int>(argv.size()), argv.data()};
}

/// The message `fn` throws as std::invalid_argument ("" when it does not).
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const Cli cli = parse({"--alpha=3", "--beta=7", "--flag", "pos1"});
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_FALSE(cli.get_bool("missing", false));
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positionals().size(), 1u);
  EXPECT_EQ(cli.positionals()[0], "pos1");
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 3.0);
}

TEST(Cli, BoolSpellings) {
  const Cli cli = parse({"--a=TRUE", "--b=no", "--c=1", "--d=off"});
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(Cli, WellFormedNumbersParse) {
  struct Case {
    std::string value;
    std::int64_t as_int;
  };
  const Case ints[] = {{"0", 0},
                       {"12", 12},
                       {"-7", -7},
                       {"+5", 5},
                       {"9223372036854775807", std::numeric_limits<std::int64_t>::max()}};
  for (const Case& c : ints) {
    EXPECT_EQ(parse({"--n=" + c.value}).get_int("n", -1), c.as_int) << c.value;
  }
  struct DoubleCase {
    std::string value;
    double as_double;
  };
  const DoubleCase doubles[] = {{"0.5", 0.5}, {"-2", -2.0}, {"1e3", 1000.0}, {".25", 0.25}};
  for (const DoubleCase& c : doubles) {
    EXPECT_DOUBLE_EQ(parse({"--x=" + c.value}).get_double("x", -1.0), c.as_double)
        << c.value;
  }
}

TEST(Cli, MalformedValuesThrowNamingFlagAndValue) {
  struct Case {
    const char* what;
    std::string flag;  ///< the argument as typed
    char type;         ///< 'i' get_int, 'r' get_int in [0, 100], 'd' get_double, 'b' get_bool
  };
  const Case cases[] = {
      {"letters", "--devices=abc", 'i'},
      {"trailing junk", "--devices=12x", 'i'},
      {"empty", "--devices=", 'i'},
      {"a fraction", "--devices=1.5", 'i'},
      {"inner space", "--devices=1 2", 'i'},
      {"int64 overflow", "--devices=9223372036854775808", 'i'},
      {"below the range", "--devices=-1", 'r'},
      {"above the range", "--devices=101", 'r'},
      {"letters", "--soc=high", 'd'},
      {"trailing junk", "--soc=0.5x", 'd'},
      {"empty", "--soc=", 'd'},
      {"overflow", "--soc=1e999", 'd'},
      {"infinity", "--soc=inf", 'd'},
      {"not a number", "--soc=nan", 'd'},
      {"a bad bool", "--quiet=maybe", 'b'},
  };
  for (const Case& c : cases) {
    const Cli cli = parse({c.flag});
    const std::string name = c.flag.substr(2, c.flag.find('=') - 2);
    const std::string msg = invalid_argument_message([&] {
      switch (c.type) {
        case 'i': (void)cli.get_int(name, 0); break;
        case 'r': (void)cli.get_int(name, 0, 0, 100); break;
        case 'd': (void)cli.get_double(name, 0.0); break;
        default: (void)cli.get_bool(name, false); break;
      }
    });
    EXPECT_NE(msg.find(c.flag), std::string::npos)
        << c.what << ": '" << c.flag << "' gave message '" << msg << "'";
  }
}

TEST(Cli, RequireKnownRejectsUnknownFlagsAndPositionals) {
  struct Case {
    std::vector<std::string> args;
    std::string error;  ///< expected substring; "" = accepted
  };
  const Case cases[] = {
      {{}, ""},
      {{"--devices=5", "--quiet"}, ""},
      {{"--devcies=5"}, "--devcies"},
      {{"--devices=5", "--verbose"}, "--verbose"},
      {{"devices=5"}, "devices=5"},
  };
  for (const Case& c : cases) {
    const Cli cli = parse(c.args);
    const std::string msg =
        invalid_argument_message([&] { cli.require_known({"devices", "quiet"}); });
    if (c.error.empty()) {
      EXPECT_EQ(msg, "");
    } else {
      EXPECT_NE(msg.find(c.error), std::string::npos)
          << "expected '" << c.error << "' in '" << msg << "'";
    }
  }
}

}  // namespace
}  // namespace hhpim
