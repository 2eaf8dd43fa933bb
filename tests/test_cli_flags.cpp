// Unit tests for the one CLI flag parser (src/cli/flags.hpp): both value
// forms, strict numbers, lists, named values, optional `=` values,
// positionals, --help ordering and the exact text of every message.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cli/flags.hpp"

namespace {

using hwgc::cli::Parser;

enum class Color { kRed, kGreen };

const char* color_name(Color c) { return c == Color::kRed ? "red" : "green"; }

/// A parser over every kind of table entry, plus the targets it writes.
struct Fixture {
  std::uint32_t cores = 8;
  std::uint64_t seed = 42;
  double scale = 0.25;
  double fraction = 0.0;
  std::string out;
  std::vector<std::uint32_t> counts{1, 2};
  std::vector<Color> colors{Color::kRed};
  bool verbose = false;
  bool oracle = true;
  bool json = false;
  std::string json_path;
  bool explicit_case = false;
  std::uint32_t graph_seed = 0;
  std::vector<std::string> files;
  Parser p{"prog", "[options] FILE..."};

  Fixture() {
    p.value("--cores N", cores, "cores")
        .value("--seed N", seed, "seed")
        .value("--scale F", scale, "scale")
        .value("--fraction F", fraction, "fraction",
               hwgc::cli::range(0.0, 1.0))
        .value("--out FILE", out, "output")
        .list("--counts a,b,..", counts, "counts")
        .list("--colors a,b,..", colors, "colors",
              hwgc::cli::one_of(std::vector<Color>{Color::kRed, Color::kGreen},
                                color_name))
        .flag("-v, --verbose", verbose, "verbose")
        .flag("--no-oracle", oracle, "no oracle", false)
        .optional("--json[=PATH]", json, json_path, "json");
    p.section("explicit:", &explicit_case)
        .value("--graph-seed N", graph_seed, "graph seed");
    p.rest("FILE...", files, "inputs");
  }

  std::string parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return p.try_parse(static_cast<int>(args.size()), args.data());
  }
};

TEST(CliFlags, BothValueFormsAreTheSame) {
  Fixture a;
  EXPECT_EQ(a.parse({"--cores", "4", "--out=x.json", "f"}), "");
  EXPECT_EQ(a.cores, 4u);
  EXPECT_EQ(a.out, "x.json");
  Fixture b;
  EXPECT_EQ(b.parse({"--cores=4", "--out", "x.json", "f"}), "");
  EXPECT_EQ(b.cores, 4u);
  EXPECT_EQ(b.out, "x.json");
}

TEST(CliFlags, NumbersParseStrictly) {
  Fixture f;
  EXPECT_EQ(f.parse({"--seed", "0x10", "--scale", "1e-2", "f"}), "");
  EXPECT_EQ(f.seed, 16u);
  EXPECT_DOUBLE_EQ(f.scale, 0.01);
  EXPECT_EQ(Fixture().parse({"--cores=12x"}),
            "malformed value for --cores (need an unsigned integer)");
  EXPECT_EQ(Fixture().parse({"--cores", "-3"}),
            "malformed value for --cores (need an unsigned integer)");
  EXPECT_EQ(Fixture().parse({"--cores", " 3"}),
            "malformed value for --cores (need an unsigned integer)");
  EXPECT_EQ(Fixture().parse({"--cores", "0x"}),
            "malformed value for --cores (need an unsigned integer)");
  EXPECT_EQ(Fixture().parse({"--scale", "abc"}),
            "malformed value for --scale (need a number)");
  EXPECT_EQ(Fixture().parse({"--scale", "nan"}),
            "malformed value for --scale (need a number)");
  EXPECT_EQ(Fixture().parse({"--scale", "0.5x"}),
            "malformed value for --scale (need a number)");
}

TEST(CliFlags, OverflowAndRangeAreRejected) {
  EXPECT_EQ(Fixture().parse({"--cores", "4294967296"}),
            "--cores must be in [0, 4294967295]");
  EXPECT_EQ(Fixture().parse({"--seed", "18446744073709551616"}),
            "--seed must be in [0, 18446744073709551615]");
  EXPECT_EQ(Fixture().parse({"--fraction", "1.5"}),
            "--fraction must be in [0, 1]");
  Fixture f;
  EXPECT_EQ(f.parse({"--cores", "4294967295", "--fraction=1", "f"}), "");
  EXPECT_EQ(f.cores, 4294967295u);
}

TEST(CliFlags, EmptyAndMissingValues) {
  EXPECT_EQ(Fixture().parse({"--cores="}), "empty value for --cores");
  EXPECT_EQ(Fixture().parse({"--out", ""}), "empty value for --out");
  EXPECT_EQ(Fixture().parse({"f", "--cores"}), "missing value for --cores");
}

TEST(CliFlags, UnknownFlagsAndSwitchValues) {
  EXPECT_EQ(Fixture().parse({"--bogus"}), "unknown option: --bogus");
  EXPECT_EQ(Fixture().parse({"--bogus=1"}), "unknown option: --bogus");
  EXPECT_EQ(Fixture().parse({"-x"}), "unknown option: -x");
  EXPECT_EQ(Fixture().parse({"--verbose=1"}),
            "option --verbose takes no value");
  Fixture f;
  EXPECT_EQ(f.parse({"-v", "--no-oracle", "f"}), "");
  EXPECT_TRUE(f.verbose);
  EXPECT_FALSE(f.oracle);
}

TEST(CliFlags, ListsReplaceAndRejectEmpty) {
  Fixture f;
  EXPECT_EQ(f.parse({"--counts", "4,,8,", "--colors=green,red", "f"}), "");
  EXPECT_EQ(f.counts, (std::vector<std::uint32_t>{4, 8}));
  EXPECT_EQ(f.colors, (std::vector<Color>{Color::kGreen, Color::kRed}));
  EXPECT_EQ(Fixture().parse({"--counts", ","}), "empty list for --counts");
  EXPECT_EQ(Fixture().parse({"--counts", "4,x"}),
            "malformed value for --counts (need an unsigned integer)");
}

TEST(CliFlags, UnknownNamedValue) {
  EXPECT_EQ(Fixture().parse({"--colors", "red,blue"}),
            "unknown value \"blue\" for --colors (need red|green)");
}

TEST(CliFlags, OptionalValueOnlyInEqualsForm) {
  Fixture bare;
  EXPECT_EQ(bare.parse({"--json", "f"}), "");
  EXPECT_TRUE(bare.json);
  EXPECT_EQ(bare.json_path, "");
  EXPECT_EQ(bare.files, (std::vector<std::string>{"f"}));
  Fixture eq;
  EXPECT_EQ(eq.parse({"--json=out.json", "f"}), "");
  EXPECT_TRUE(eq.json);
  EXPECT_EQ(eq.json_path, "out.json");
  EXPECT_EQ(Fixture().parse({"--json="}), "empty value for --json");
}

TEST(CliFlags, Positionals) {
  Fixture f;
  EXPECT_EQ(f.parse({"a", "--cores", "2", "b"}), "");
  EXPECT_EQ(f.files, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(Fixture().parse({"--cores", "2"}), "missing FILE...");

  double scale = 0.02;
  Parser p("one", "[SCALE]");
  p.positional("SCALE", scale, "scale");
  const char* bad[] = {"one", "notanumber"};
  EXPECT_EQ(p.try_parse(2, bad), "malformed value for SCALE (need a number)");
  const char* extra[] = {"one", "0.5", "more"};
  EXPECT_EQ(p.try_parse(3, extra), "unexpected argument: more");
  EXPECT_DOUBLE_EQ(scale, 0.5);
}

TEST(CliFlags, SectionMarksSeen) {
  Fixture f;
  EXPECT_EQ(f.parse({"--cores", "2", "f"}), "");
  EXPECT_FALSE(f.explicit_case);
  EXPECT_EQ(f.parse({"--graph-seed", "9", "f"}), "");
  EXPECT_TRUE(f.explicit_case);
  EXPECT_EQ(f.graph_seed, 9u);
}

TEST(CliFlags, HelpOnlyAfterEverythingElseParsed) {
  Fixture ok;
  EXPECT_EQ(ok.parse({"--help", "--cores", "2"}), "");
  EXPECT_TRUE(ok.p.help_requested());  // missing FILE... is not reported
  Fixture bad;
  EXPECT_EQ(bad.parse({"-h", "--cores", "x"}),
            "malformed value for --cores (need an unsigned integer)");
  EXPECT_FALSE(bad.p.help_requested());
}

TEST(CliFlags, UsageComesFromTheTable) {
  Parser p("tool", "[options]");
  std::uint32_t n = 0;
  bool v = false;
  p.section("group:")
      .value("--n N", n, "a count\nsecond line")
      .flag("-v, --verbose", v, "verbose")
      .value("--a-rather-long-flag-name N", n, "wraps");
  EXPECT_EQ(p.usage(),
            "usage: tool [options]\n"
            "  -h, --help              print this help and exit\n"
            "group:\n"
            "  --n N                   a count\n"
            "                          second line\n"
            "  -v, --verbose           verbose\n"
            "  --a-rather-long-flag-name N\n"
            "                          wraps\n");
}

TEST(CliFlagsDeathTest, ErrorsExitTwoWithProgramPrefix) {
  Fixture f;
  std::vector<const char*> args{"prog", "--cores", "abc"};
  EXPECT_EXIT(f.p.parse(3, args.data()), ::testing::ExitedWithCode(2),
              "^prog: malformed value for --cores \\(need an unsigned "
              "integer\\)\nusage: prog \\[options\\] FILE\\.\\.\\.\n");
}

}  // namespace
