// Declarative command-line flags for every bench/ and examples/ binary.
//
// A binary declares the flags it reads in one table (cli::Table) and hands
// argv to parse(). Nothing is silently ignored: an unknown flag, a missing
// value, a non-numeric or out-of-range number, an unknown choice, an empty
// list item, a second copy of a single-use flag or a stray operand throws
// UsageError with a message that names the flag. parse_or_exit() turns
// that into `<program>: <message>`, a usage text generated from the table,
// and exit status 2. Every table also accepts `--help`, which no table
// declares: parse_or_exit() prints the usage text on stdout and exits 0.
//
//   const cli::Args args = cli::parse_or_exit("noise_sweep", {
//       {.name = "--steps", .kind = cli::Kind::Int, .def = "4",
//        .help = "intensity steps", .min = 0},
//       {.name = "--progress", .help = "per-trial lines on stderr"},
//   }, argc, argv);
//   const int steps = args.integer("--steps");
//
// Values are checked once, at parse time, so the accessors cannot fail on
// user input; asking for a flag the table does not declare, or with the
// wrong accessor for its kind, is a programming error (std::logic_error).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace whisper::cli {

enum class Kind : std::uint8_t {
  Switch,  // --flag              present or absent, takes no value
  Int,     // --flag N            signed integer that fits an int
  Uint,    // --flag N            unsigned 64-bit integer
  Double,  // --flag X            finite real number
  String,  // --flag TEXT         any text
  List,    // --flag A,B,C        comma-separated items, none empty
  Choice,  // --flag WORD         one of `choices`
};

// Every member has a default member initializer, so a table entry names
// only the fields it sets (and -Wmissing-field-initializers stays quiet).
struct Flag {
  /// "--name" declares a flag. A name without the leading "--" ("DIR")
  /// declares an optional positional operand; operands fill in table
  /// order.
  std::string name{};
  Kind kind = Kind::Switch;
  /// The default, spelled as it would be typed ("" = none).
  std::string def{};
  std::string help{};
  /// Inclusive range of a numeric kind.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  /// Kind::Choice: the accepted words. Kind::List: the accepted items
  /// (empty = any item).
  std::vector<std::string> choices{};
  /// May be given more than once (Args::list() returns every value).
  bool repeat = false;
  /// Numeric kinds: a word that stands for 0 ("auto" for --jobs).
  std::string zero_word{};

  [[nodiscard]] bool positional() const { return name.rfind("--", 0) != 0; }
  [[nodiscard]] Flag with_default(std::string d) const {
    Flag f = *this;
    f.def = std::move(d);
    return f;
  }
};

using Table = std::vector<Flag>;

/// Bad input on the command line; what() names the offending flag.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The parsed command line: every declared flag's value, or its default.
class Args {
 public:
  /// Given on the command line (a switch: set).
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] int integer(std::string_view name) const;       // Int
  [[nodiscard]] std::uint64_t uint(std::string_view name) const;  // Uint
  [[nodiscard]] double real(std::string_view name) const;       // Double
  /// String, Choice or positional: the value, the default, or "".
  [[nodiscard]] std::string str(std::string_view name) const;
  /// List: the items. Repeatable String: every value in order.
  [[nodiscard]] std::vector<std::string> list(std::string_view name) const;
  /// `--help` was given; parsing stopped there.
  [[nodiscard]] bool help() const noexcept { return help_; }

 private:
  friend Args parse(const Table& table, int argc, const char* const* argv,
                    int first);
  struct Slot {
    Flag flag;
    std::vector<std::string> values;
  };
  /// The slot declaring `name`, whose kind must be one of `kinds` (any
  /// kind when empty).
  [[nodiscard]] const Slot& slot(std::string_view name,
                                 std::initializer_list<Kind> kinds) const;
  [[nodiscard]] static std::string text(const Slot& s);
  template <typename T>
  [[nodiscard]] T number(std::string_view name, Kind kind) const;
  std::vector<Slot> slots_;
  bool help_ = false;
};

/// Parse argv[first..argc) against `table`. Throws UsageError on bad
/// input, std::logic_error on a malformed table (e.g. a default that its
/// own flag would refuse, or a declared `--help`). A `--help` flag stops
/// parsing: the rest of argv is not read and Args::help() is set.
[[nodiscard]] Args parse(const Table& table, int argc,
                         const char* const* argv, int first = 1);

/// The usage text generated from `table`: one line per flag with its
/// value shape, help, range, choices and default, then the built-in
/// `--help`.
[[nodiscard]] std::string usage(std::string_view program, const Table& table);

/// parse(), but bad input prints `<program>: <message>` and the usage text
/// on stderr and exits 2, and `--help` prints the usage text on stdout and
/// exits 0.
Args parse_or_exit(std::string_view program, const Table& table, int argc,
                   const char* const* argv, int first = 1);

}  // namespace whisper::cli
