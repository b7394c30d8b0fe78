// The declarative flag parser (src/cli/flags.h): every kind, range edges,
// single versus repeatable flags, missing values, positionals, and the
// usage text generated from the table.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "cli/flags.h"

namespace whisper::cli {
namespace {

/// parse() over a literal argv (argv[0] is the program name).
Args parse_words(const Table& table, std::initializer_list<const char*> words) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), words);
  return parse(table, static_cast<int>(argv.size()), argv.data());
}

/// The UsageError message parse() throws, or "" when it accepts.
std::string error_of(const Table& table,
                     std::initializer_list<const char*> words) {
  try {
    (void)parse_words(table, words);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

const Table& every_kind() {
  static const Table table = {
      {.name = "--on", .help = "a switch"},
      {.name = "--count", .kind = Kind::Int, .def = "3", .help = "int",
       .min = -2, .max = 5},
      {.name = "--seed", .kind = Kind::Uint, .def = "7", .help = "uint"},
      {.name = "--rate", .kind = Kind::Double, .def = "0.5", .help = "real",
       .min = 0, .max = 1},
      {.name = "--path", .kind = Kind::String, .help = "text"},
      {.name = "--items", .kind = Kind::List, .def = "a,b", .help = "list",
       .choices = {"a", "b", "c"}},
      {.name = "--any", .kind = Kind::List, .help = "free list"},
      {.name = "--mode", .kind = Kind::Choice, .def = "fast", .help = "pick",
       .choices = {"fast", "slow"}},
      {.name = "--tag", .kind = Kind::String, .help = "repeat",
       .repeat = true},
      {.name = "--jobs", .kind = Kind::Int, .def = "1", .help = "workers",
       .min = 0, .zero_word = "auto"},
  };
  return table;
}

TEST(Flags, DefaultsWhenNothingIsGiven) {
  const Args a = parse_words(every_kind(), {});
  EXPECT_FALSE(a.has("--on"));
  EXPECT_FALSE(a.has("--count"));
  EXPECT_EQ(a.integer("--count"), 3);
  EXPECT_EQ(a.uint("--seed"), 7u);
  EXPECT_EQ(a.real("--rate"), 0.5);
  EXPECT_EQ(a.str("--path"), "");
  EXPECT_EQ(a.list("--items"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(a.list("--any").empty());
  EXPECT_EQ(a.str("--mode"), "fast");
  EXPECT_TRUE(a.list("--tag").empty());
  EXPECT_EQ(a.integer("--jobs"), 1);
}

TEST(Flags, ReadsEveryKind) {
  const Args a = parse_words(
      every_kind(),
      {"--on", "--count", "-2", "--seed", "18446744073709551615", "--rate",
       "1e-1", "--path", "--not-a-flag", "--items", "c,a", "--any", "x,y",
       "--mode", "slow", "--tag", "one", "--tag", "two", "--jobs", "auto"});
  EXPECT_TRUE(a.has("--on"));
  EXPECT_EQ(a.integer("--count"), -2);
  EXPECT_EQ(a.uint("--seed"), 18446744073709551615u);
  EXPECT_EQ(a.real("--rate"), 0.1);
  // A valued flag takes the next word whatever it looks like.
  EXPECT_EQ(a.str("--path"), "--not-a-flag");
  EXPECT_EQ(a.list("--items"), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(a.list("--any"), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(a.str("--mode"), "slow");
  EXPECT_EQ(a.list("--tag"), (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(a.integer("--jobs"), 0);
}

TEST(Flags, RangeEdgesAreInclusive) {
  EXPECT_EQ(parse_words(every_kind(), {"--count", "5"}).integer("--count"), 5);
  EXPECT_EQ(parse_words(every_kind(), {"--count", "-2"}).integer("--count"),
            -2);
  EXPECT_EQ(parse_words(every_kind(), {"--rate", "1"}).real("--rate"), 1.0);
  EXPECT_EQ(parse_words(every_kind(), {"--rate", "0"}).real("--rate"), 0.0);
  EXPECT_EQ(error_of(every_kind(), {"--count", "6"}),
            "--count: '6' is out of range (-2..5)");
  EXPECT_EQ(error_of(every_kind(), {"--count", "-3"}),
            "--count: '-3' is out of range (-2..5)");
  EXPECT_EQ(error_of(every_kind(), {"--rate", "1.01"}),
            "--rate: '1.01' is out of range (0..1)");
  EXPECT_EQ(error_of(every_kind(), {"--jobs", "-1"}),
            "--jobs: '-1' is out of range (>= 0)");
  // Beyond what the kind can hold is out of range too.
  EXPECT_EQ(error_of(every_kind(), {"--seed", "18446744073709551616"}),
            "--seed: '18446744073709551616' is out of range");
  EXPECT_EQ(error_of(every_kind(), {"--count", "99999999999"}),
            "--count: '99999999999' is out of range (-2..5)");
}

TEST(Flags, MalformedNumbersAreRefused) {
  EXPECT_EQ(error_of(every_kind(), {"--count", "abc"}),
            "--count: 'abc' is not an integer");
  EXPECT_EQ(error_of(every_kind(), {"--count", "3x"}),
            "--count: '3x' is not an integer");
  EXPECT_EQ(error_of(every_kind(), {"--count", "1.5"}),
            "--count: '1.5' is not an integer");
  EXPECT_EQ(error_of(every_kind(), {"--count", ""}),
            "--count: '' is not an integer");
  EXPECT_EQ(error_of(every_kind(), {"--seed", "-1"}),
            "--seed: '-1' is not a non-negative integer");
  EXPECT_EQ(error_of(every_kind(), {"--seed", "+1"}),
            "--seed: '+1' is not a non-negative integer");
  EXPECT_EQ(error_of(every_kind(), {"--rate", "nan"}),
            "--rate: 'nan' is not a number");
  EXPECT_EQ(error_of(every_kind(), {"--rate", "inf"}),
            "--rate: 'inf' is not a number");
  EXPECT_EQ(error_of(every_kind(), {"--jobs", "many"}),
            "--jobs: 'many' is not an integer or auto");
}

TEST(Flags, ChoicesAndListItemsAreChecked) {
  EXPECT_EQ(error_of(every_kind(), {"--mode", "warp"}),
            "--mode: unknown value 'warp' (one of: fast, slow)");
  EXPECT_EQ(error_of(every_kind(), {"--items", "a,d"}),
            "--items: unknown item 'd' (one of: a, b, c)");
  EXPECT_EQ(error_of(every_kind(), {"--items", "a,,b"}),
            "--items: empty item in 'a,,b'");
  EXPECT_EQ(error_of(every_kind(), {"--any", "x,"}),
            "--any: empty item in 'x,'");
  // An empty value is an empty list, not an empty item.
  EXPECT_TRUE(parse_words(every_kind(), {"--items", ""}).list("--items")
                  .empty());
}

TEST(Flags, SingleFlagsMayNotRepeat) {
  EXPECT_EQ(error_of(every_kind(), {"--count", "1", "--count", "2"}),
            "--count given more than once");
  EXPECT_EQ(error_of(every_kind(), {"--on", "--on"}),
            "--on given more than once");
  EXPECT_EQ(error_of(every_kind(), {"--tag", "a", "--tag", "a"}), "");
}

TEST(Flags, UnknownFlagsAndMissingValuesAreRefused) {
  EXPECT_EQ(error_of(every_kind(), {"--bogus"}), "unknown flag '--bogus'");
  EXPECT_EQ(error_of(every_kind(), {"-h"}), "unknown flag '-h'");
  EXPECT_EQ(error_of(every_kind(), {"--count=3"}),
            "unknown flag '--count=3'");
  EXPECT_EQ(error_of(every_kind(), {"--on", "--path"}),
            "--path: missing value");
  EXPECT_EQ(error_of({}, {"--anything"}), "unknown flag '--anything'");
}

TEST(Flags, PositionalsFillInOrder) {
  const Table table = {
      {.name = "--on", .help = "a switch"},
      {.name = "DIR", .kind = Kind::String, .help = "output directory"},
      {.name = "NAME", .kind = Kind::String, .def = "x", .help = "a name"},
  };
  const Args none = parse_words(table, {});
  EXPECT_EQ(none.str("DIR"), "");
  EXPECT_EQ(none.str("NAME"), "x");
  const Args both = parse_words(table, {"out", "--on", "y"});
  EXPECT_EQ(both.str("DIR"), "out");
  EXPECT_EQ(both.str("NAME"), "y");
  EXPECT_TRUE(both.has("--on"));
  EXPECT_EQ(error_of(table, {"a", "b", "c"}), "unexpected argument 'c'");
  EXPECT_EQ(error_of({}, {"stray"}), "unexpected argument 'stray'");
  // A positional is not a flag name.
  EXPECT_EQ(error_of(table, {"DIR"}), "");
  EXPECT_EQ(error_of(table, {"--DIR", "x"}), "unknown flag '--DIR'");
}

TEST(Flags, ParsingStartsAtFirst) {
  // whisper_cli-style: argv[1] is the command, flags start at argv[2].
  const char* argv[] = {"prog", "cmd", "--on"};
  const Args a = parse({{.name = "--on", .help = "a switch"}}, 3, argv, 2);
  EXPECT_TRUE(a.has("--on"));
  EXPECT_THROW((void)parse({}, 3, argv, 1), UsageError);
}

TEST(Flags, MalformedTablesAreProgrammingErrors) {
  EXPECT_THROW((void)parse_words({{.name = "--n", .kind = Kind::Int,
                                   .def = "9", .help = "", .max = 5}},
                                 {}),
               std::logic_error);
  EXPECT_THROW((void)parse_words({{.name = "--m", .kind = Kind::Choice,
                                   .def = "c", .choices = {"a"}}},
                                 {}),
               std::logic_error);
  EXPECT_THROW((void)parse_words({{.name = "--x"}, {.name = "--x"}}, {}),
               std::logic_error);
  const Args a = parse_words(every_kind(), {});
  EXPECT_THROW((void)a.integer("--undeclared"), std::logic_error);
  EXPECT_THROW((void)a.has("--undeclared"), std::logic_error);
  EXPECT_THROW((void)a.integer("--rate"), std::logic_error);
  EXPECT_THROW((void)a.str("--count"), std::logic_error);
  EXPECT_THROW((void)a.list("--path"), std::logic_error);
}

TEST(Flags, UsageIsGeneratedFromTheTable) {
  const Table table = {
      {.name = "--cpu", .kind = Kind::Int, .def = "1", .help = "preset",
       .min = 0, .max = 4},
      {.name = "--noise", .kind = Kind::Choice, .def = "off",
       .help = "profile", .choices = {"off", "on"}},
      {.name = "--defense", .kind = Kind::String, .help = "spec",
       .repeat = true},
      {.name = "--verify", .help = "check bytes"},
      {.name = "DIR", .kind = Kind::String, .help = "plot directory"},
  };
  EXPECT_EQ(usage("tool", table),
            "usage: tool [flags] [DIR]\n"
            "  --cpu N         preset (0..4; default 1)\n"
            "  --noise WORD    profile (one of: off, on; default off)\n"
            "  --defense TEXT  spec (repeatable)\n"
            "  --verify        check bytes\n"
            "  DIR             plot directory\n"
            "  --help          print this text and exit\n");
  EXPECT_EQ(usage("bare", {}),
            "usage: bare [flags]\n"
            "  --help  print this text and exit\n");
}

TEST(Flags, HelpIsBuiltInAndStopsParsing) {
  const Args a = parse_words(every_kind(), {"--count", "4", "--help",
                                            "--bogus", "--count", "x"});
  EXPECT_TRUE(a.help());
  EXPECT_EQ(a.integer("--count"), 4);
  EXPECT_FALSE(parse_words(every_kind(), {"--on"}).help());
  // Bad input before --help is still refused.
  EXPECT_EQ(error_of(every_kind(), {"--bogus", "--help"}),
            "unknown flag '--bogus'");
  // --help is a flag, not an operand, and no table may redeclare it.
  EXPECT_THROW((void)parse_words({{.name = "--help"}}, {}), std::logic_error);
}

}  // namespace
}  // namespace whisper::cli
