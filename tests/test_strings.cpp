#include "common/strings.hpp"

#include <gtest/gtest.h>

#include "common/table.hpp"

namespace hhpim {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\n x \r"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-ws"), "no-ws");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("one", ','), (std::vector<std::string>{"one"}));
}

TEST(Strings, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("hello world", "hello"));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(Strings, FormatSi) {
  EXPECT_EQ(format_si(1.234e-3, 3, "J"), "1.234 mJ");
  EXPECT_EQ(format_si(42e-9, 3, "s"), "42.000 ns");
  EXPECT_EQ(format_si(2.5e6, 1, "Hz"), "2.5 MHz");
  EXPECT_EQ(format_si(1.0, 0, "B"), "1 B");
}

TEST(Table, RendersAlignedColumns) {
  Table t{{"name", "value"}};
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t{{"a", "b", "c"}};
  t.add_row({"only"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NE(t.render().find("| only |"), std::string::npos);
}

TEST(Table, RuleSeparatesSections) {
  Table t{{"x"}};
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string s = t.render();
  // header rule + top + bottom + inserted = 4 horizontal rules
  std::size_t rules = 0;
  for (std::size_t pos = s.find("+-"); pos != std::string::npos; pos = s.find("+-", pos + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

}  // namespace
}  // namespace hhpim
