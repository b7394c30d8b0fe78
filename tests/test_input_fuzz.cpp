// Seeded generative fuzz of every parser that reads outside input: the
// flag parser (every binary's argv), stats::json_parse (serve request
// lines, sweep-client responses, self-validated trajectories), and the
// three small grammars behind flags and wire members — fault plans
// (fault::FaultPlan::parse), defense stacks (defense::parse_list) and
// address lists (serve::parse_address_list). Each case must end in a
// clean parse, which round-trips through the grammar's formatter, or the
// parser's typed error — never a crash, a hang, or any other exception.
// Part of whisper_san_tests, so ASan and UBSan watch every input; the
// seeds make any failure reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/flags.h"
#include "defense/defense.h"
#include "fault/fault.h"
#include "serve/socket_transport.h"
#include "stats/json.h"
#include "stats/rng.h"

namespace whisper {
namespace {

constexpr int kCases = 20000;

std::string random_bytes(stats::Xoshiro256& rng, std::size_t max_len) {
  std::string out(rng.next_below(max_len + 1), '\0');
  // Never a NUL: argv words are C strings.
  for (char& c : out) c = static_cast<char>(1 + rng.next_below(255));
  return out;
}

/// `word` with one byte flipped, dropped, duplicated or truncated after.
std::string mutate(stats::Xoshiro256& rng, std::string word) {
  if (word.empty()) return random_bytes(rng, 4);
  const std::size_t at = rng.next_below(word.size());
  switch (rng.next_below(4)) {
    case 0: word[at] = static_cast<char>(1 + rng.next_below(255)); break;
    case 1: word.erase(at, 1); break;
    case 2: word.insert(at, 1, word[at]); break;
    default: word.resize(at); break;
  }
  return word;
}

TEST(InputFuzz, FlagParserParsesOrRaisesUsageError) {
  const cli::Table table = {
      {.name = "--on", .help = "switch"},
      {.name = "--count", .kind = cli::Kind::Int, .def = "3", .help = "int",
       .min = -2, .max = 5},
      {.name = "--seed", .kind = cli::Kind::Uint, .help = "uint"},
      {.name = "--rate", .kind = cli::Kind::Double, .def = "0.5",
       .help = "real", .min = 0, .max = 1},
      {.name = "--path", .kind = cli::Kind::String, .help = "text"},
      {.name = "--items", .kind = cli::Kind::List, .help = "list",
       .choices = {"a", "b"}},
      {.name = "--mode", .kind = cli::Kind::Choice, .def = "x",
       .help = "choice", .choices = {"x", "y"}},
      {.name = "--tag", .kind = cli::Kind::String, .help = "repeat",
       .repeat = true},
      {.name = "--jobs", .kind = cli::Kind::Int, .def = "1", .help = "jobs",
       .min = 0, .zero_word = "auto"},
      {.name = "DIR", .kind = cli::Kind::String, .help = "operand"},
  };
  const std::vector<std::string> vocabulary = {
      "--on", "--count", "--seed", "--rate", "--path", "--items", "--mode",
      "--tag", "--jobs", "DIR", "auto", "-1", "0", "5", "6", "1e308",
      "18446744073709551616", "nan", "a,b", "a,,b", ",", "x", "y", "", "-",
      "--", "0x10", " 1", "1 "};
  stats::Xoshiro256 rng(0xf1a95eed);
  int parsed = 0, refused = 0;
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::string> words = {"prog"};
    for (std::uint64_t n = rng.next_below(7); n > 0; --n) {
      const std::string& pick =
          vocabulary[rng.next_below(vocabulary.size())];
      switch (rng.next_below(4)) {
        case 0: words.push_back(random_bytes(rng, 8)); break;
        case 1: words.push_back(mutate(rng, pick)); break;
        default: words.push_back(pick); break;
      }
    }
    std::vector<const char*> argv;
    for (const std::string& w : words) argv.push_back(w.c_str());
    try {
      const cli::Args a =
          cli::parse(table, static_cast<int>(argv.size()), argv.data());
      // Every accessor must hand back a value inside the declared range.
      EXPECT_GE(a.integer("--count"), -2);
      EXPECT_LE(a.integer("--count"), 5);
      EXPECT_GE(a.real("--rate"), 0.0);
      EXPECT_LE(a.real("--rate"), 1.0);
      EXPECT_GE(a.integer("--jobs"), 0);
      (void)a.uint("--seed");
      (void)a.has("--on");
      (void)a.str("--path");
      (void)a.str("DIR");
      (void)a.list("--tag");
      for (const std::string& item : a.list("--items"))
        EXPECT_TRUE(item == "a" || item == "b") << item;
      EXPECT_TRUE(a.str("--mode") == "x" || a.str("--mode") == "y");
      ++parsed;
    } catch (const cli::UsageError& e) {
      EXPECT_NE(std::string(e.what()), "");
      ++refused;
    }
  }
  // The generator reaches both outcomes.
  EXPECT_GT(parsed, kCases / 20);
  EXPECT_GT(refused, kCases / 20);
}

/// A random well-formed document, at most `depth` levels deep.
void generate(stats::Xoshiro256& rng, int depth, stats::JsonWriter& w) {
  const std::uint64_t pick = rng.next_below(depth > 0 ? 8 : 5);
  switch (pick) {
    case 0:
      w.value(static_cast<std::int64_t>(rng.next()) >> rng.next_below(64));
      break;
    case 1:
      w.value(static_cast<double>(rng.next_below(1u << 20)) / 7.0);
      break;
    case 2: w.value(random_bytes(rng, 6)); break;
    case 3: w.value(rng.next_below(2) == 1); break;
    case 4: w.value(rng.next()); break;
    case 5:
    case 6: {
      w.begin_object();
      for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
        w.key(random_bytes(rng, 4));
        generate(rng, depth - 1, w);
      }
      w.end_object();
      break;
    }
    default: {
      w.begin_array();
      for (std::uint64_t n = rng.next_below(4); n > 0; --n)
        generate(rng, depth - 1, w);
      w.end_array();
      break;
    }
  }
}

TEST(InputFuzz, JsonParserParsesOrRaisesJsonError) {
  stats::Xoshiro256 rng(0x15011fed);
  int parsed = 0, refused = 0;
  for (int i = 0; i < kCases; ++i) {
    stats::JsonWriter w;
    generate(rng, 4, w);
    const std::string doc = w.str();
    // Writer output always parses.
    ASSERT_NO_THROW((void)stats::json_parse(doc)) << doc;
    std::string input;
    switch (rng.next_below(3)) {
      case 0: input = random_bytes(rng, 24); break;
      default: {
        input = doc;
        for (std::uint64_t n = 1 + rng.next_below(3); n > 0; --n)
          input = mutate(rng, input);
        break;
      }
    }
    try {
      (void)stats::json_parse(input);
      ++parsed;
    } catch (const stats::JsonError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("bad JSON at byte ", 0), 0u);
      ++refused;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, kCases / 4);
}

TEST(InputFuzz, JsonNestingIsBounded) {
  // Deep nesting is refused with a typed error instead of exhausting the
  // stack (a 64 KiB request line of '[' would otherwise recurse 64k deep).
  const std::string ok(stats::kMaxJsonDepth, '[');
  const std::string ok_doc = ok + std::string(stats::kMaxJsonDepth, ']');
  EXPECT_NO_THROW((void)stats::json_parse(ok_doc));
  for (const char open : {'[', '{'}) {
    const std::string deep(64 * 1024, open);
    EXPECT_THROW((void)stats::json_parse(deep), stats::JsonError);
  }
  EXPECT_THROW((void)stats::json_parse("[" + ok_doc + "]"), stats::JsonError);
}

/// `pick` from `words`, or a mutation of it, or random bytes.
std::string word(stats::Xoshiro256& rng,
                 const std::vector<std::string>& words) {
  const std::string& pick = words[rng.next_below(words.size())];
  switch (rng.next_below(6)) {
    case 0: return random_bytes(rng, 6);
    case 1: return mutate(rng, pick);
    default: return pick;
  }
}

/// A fault-plan point in the plan grammar's own spelling.
std::string format_point(const fault::Point& p) {
  std::string out = fault::to_string(p.kind);
  if (p.random)
    return out + "~" + std::to_string(p.rate_permille) + "@" +
           std::to_string(p.seed);
  out += "@" + std::to_string(p.trial);
  if (p.attempt == -1) return out + "*";
  if (p.attempt != 0) out += "." + std::to_string(p.attempt);
  return out;
}

TEST(InputFuzz, FaultPlanParsesOrRaisesInvalidArgument) {
  const std::vector<std::string> kinds = {
      "throw", "corrupt", "stall", "sleep", "drop", "shortread", "nope", ""};
  const std::vector<std::string> numbers = {
      "0", "1", "7", "1000", "1001", "2147483647", "2147483648",
      "18446744073709551615", "18446744073709551616", "", "-1", "x"};
  stats::Xoshiro256 rng(0xfa017ed);
  int parsed = 0, refused = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string spec;
    for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
      if (!spec.empty()) spec += rng.next_below(2) == 1 ? ";" : ", ";
      std::string point = word(rng, kinds);
      switch (rng.next_below(4)) {
        case 0: point += "~" + word(rng, numbers) + "@"; break;
        default: point += "@"; break;
      }
      point += word(rng, numbers);
      switch (rng.next_below(4)) {
        case 0: point += "*"; break;
        case 1: point += "." + word(rng, numbers); break;
        default: break;
      }
      spec += point;
    }
    if (rng.next_below(4) == 0) spec = mutate(rng, spec);
    try {
      const fault::FaultPlan plan = fault::FaultPlan::parse(spec);
      // Round trip: each point's canonical spelling parses back to it.
      std::string canonical;
      for (const fault::Point& p : plan.points())
        canonical += (canonical.empty() ? "" : ";") + format_point(p);
      const fault::FaultPlan again = fault::FaultPlan::parse(canonical);
      ASSERT_EQ(again.points().size(), plan.points().size()) << spec;
      for (std::size_t k = 0; k < plan.points().size(); ++k)
        EXPECT_EQ(format_point(again.points()[k]),
                  format_point(plan.points()[k]))
            << spec;
      ++parsed;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("fault: bad plan point", 0), 0u)
          << spec;
      ++refused;
    }
  }
  EXPECT_GT(parsed, kCases / 20);
  EXPECT_GT(refused, kCases / 20);
  // Numbers past their field are refused, never wrapped: 2^64 is not
  // trial 0, and attempt 2^32 - 1 is not "every attempt".
  for (const char* wrap : {"throw@18446744073709551616", "throw@1.4294967295",
                           "throw@1.2147483648", "sleep~1@18446744073709551616"})
    EXPECT_THROW((void)fault::FaultPlan::parse(wrap), std::invalid_argument)
        << wrap;
}

TEST(InputFuzz, DefenseListParsesOrRaisesInvalidArgument) {
  const std::vector<std::string> names = {
      "kpti", "flare", "fgkaslr", "window", "lfence", "none", "x_1", "A",
      ""};
  const std::vector<std::string> params = {
      "depth=8", "levels=3", "k=v", "=v", "k=", "k", "a=b=c", "K=1", ""};
  stats::Xoshiro256 rng(0xdefe45e);
  int parsed = 0, refused = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string text;
    for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
      if (!text.empty()) text += "+";
      text += word(rng, names);
      for (std::uint64_t k = rng.next_below(3); k > 0; --k)
        text += ":" + word(rng, params);
    }
    if (rng.next_below(4) == 0) text = mutate(rng, text);
    try {
      const std::vector<defense::DefenseSpec> specs =
          defense::parse_list(text);
      // format_list is the exact inverse, "" and "none" aside.
      EXPECT_EQ(defense::format_list(specs),
                text.empty() ? std::string("none") : text);
      EXPECT_EQ(defense::parse_list(defense::format_list(specs)), specs);
      ++parsed;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("defense: cannot parse", 0), 0u)
          << text;
      ++refused;
    }
  }
  EXPECT_GT(parsed, kCases / 20);
  EXPECT_GT(refused, kCases / 20);
}

TEST(InputFuzz, EndpointListParsesOrRaisesInvalidArgument) {
  const std::string long_path = "/" + std::string(119, 'p');
  const std::vector<std::string> endpoints = {
      "tcp:127.0.0.1:7777", "localhost:9", "unix:/tmp/w.sock", "/tmp/w.sock",
      "tcp:", "unix:", "host", "host:", ":1", "tcp:tcp:1:2", " a:1 ", "",
      "box:abc", "box:65535", "box:65536", "box:99999", "unix:" + long_path,
      long_path};
  stats::Xoshiro256 rng(0xe4d901);
  int parsed = 0, refused = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string csv;
    for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
      if (!csv.empty()) csv += ",";
      csv += word(rng, endpoints);
    }
    if (rng.next_below(4) == 0) csv = mutate(rng, csv);
    try {
      const std::vector<serve::Address> addresses =
          serve::parse_address_list(csv);
      ASSERT_FALSE(addresses.empty()) << csv;
      // canonical() is the formatter: it parses back to the same address,
      // one at a time and as a list.
      std::string joined;
      for (const serve::Address& a : addresses) {
        EXPECT_EQ(serve::parse_address(a.canonical()), a) << csv;
        if (a.kind() == serve::Address::Kind::kUnix)
          EXPECT_LT(a.path().size(), 108u) << csv;
        joined += (joined.empty() ? "" : ",") + a.canonical();
      }
      EXPECT_EQ(serve::parse_address_list(joined), addresses) << csv;
      ++parsed;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("serve: ", 0), 0u) << csv;
      ++refused;
    }
  }
  EXPECT_GT(parsed, kCases / 20);
  EXPECT_GT(refused, kCases / 20);
}

}  // namespace
}  // namespace whisper
