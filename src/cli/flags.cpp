#include "cli/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <system_error>
#include <type_traits>

namespace whisper::cli {

namespace {

std::string quoted(std::string_view s) { return "'" + std::string(s) + "'"; }

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& s : items) out += (out.empty() ? "" : ", ") + s;
  return out;
}

std::vector<std::string> split(std::string_view s) {
  std::vector<std::string> out;
  if (s.empty()) return out;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = s.find(',', pos);
    out.emplace_back(s.substr(pos, comma - pos));
    if (comma == std::string_view::npos) return out;
    pos = comma + 1;
  }
}

bool numeric(Kind k) {
  return k == Kind::Int || k == Kind::Uint || k == Kind::Double;
}

std::string format_number(double v) {
  char buf[32];
  if (std::floor(v) == v && std::fabs(v) < 1e15)
    std::snprintf(buf, sizeof buf, "%.0f", v);
  else
    std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// "0..4", ">= 1", "<= 8", or "" for an unbounded flag.
std::string range(const Flag& f) {
  const bool lo = std::isfinite(f.min), hi = std::isfinite(f.max);
  if (lo && hi) return format_number(f.min) + ".." + format_number(f.max);
  if (lo) return ">= " + format_number(f.min);
  if (hi) return "<= " + format_number(f.max);
  return "";
}

/// The whole of `text` as a T, or the reason it is not one.
template <typename T>
std::errc convert(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc()) return ec;
  if (p != end) return std::errc::invalid_argument;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(out)) return std::errc::invalid_argument;
  return std::errc();
}

void check_number(const Flag& f, std::string_view text) {
  if (!f.zero_word.empty() && text == f.zero_word) return;
  std::errc ec;
  double v = 0.0;
  if (f.kind == Kind::Int) {
    int x = 0;
    ec = convert(text, x);
    v = x;
  } else if (f.kind == Kind::Uint) {
    std::uint64_t x = 0;
    ec = convert(text, x);
    v = static_cast<double>(x);
  } else {
    ec = convert(text, v);
  }
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && (v < f.min || v > f.max))) {
    const std::string r = range(f);
    throw UsageError(f.name + ": " + quoted(text) + " is out of range" +
                     (r.empty() ? "" : " (" + r + ")"));
  }
  if (ec != std::errc()) {
    const char* what = f.kind == Kind::Int    ? "an integer"
                       : f.kind == Kind::Uint ? "a non-negative integer"
                                              : "a number";
    throw UsageError(f.name + ": " + quoted(text) + " is not " + what +
                     (f.zero_word.empty() ? "" : " or " + f.zero_word));
  }
}

bool listed(const std::vector<std::string>& v, std::string_view s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// Throws UsageError unless `text` is a valid value of `f`.
void check(const Flag& f, std::string_view text) {
  if (numeric(f.kind)) return check_number(f, text);
  if (f.kind == Kind::Choice && !listed(f.choices, text))
    throw UsageError(f.name + ": unknown value " + quoted(text) +
                     " (one of: " + join(f.choices) + ")");
  if (f.kind != Kind::List) return;
  for (const std::string& item : split(text)) {
    if (item.empty())
      throw UsageError(f.name + ": empty item in " + quoted(text));
    if (!f.choices.empty() && !listed(f.choices, item))
      throw UsageError(f.name + ": unknown item " + quoted(item) +
                       " (one of: " + join(f.choices) + ")");
  }
}

/// Accepted by every table, declared by none.
const Flag kHelp{.name = "--help", .help = "print this text and exit"};

/// The value shape usage() prints after a flag, indexed by Kind.
constexpr const char* kMetavar[] = {"", " N", " N", " X", " TEXT",
                                    " A,B,...", " WORD"};
static_assert(std::size(kMetavar) == static_cast<int>(Kind::Choice) + 1);

}  // namespace

const Args::Slot& Args::slot(std::string_view name,
                             std::initializer_list<Kind> kinds) const {
  for (const Slot& s : slots_) {
    if (s.flag.name != name) continue;
    if (kinds.size() != 0 &&
        std::find(kinds.begin(), kinds.end(), s.flag.kind) == kinds.end())
      throw std::logic_error("cli: wrong accessor for " + s.flag.name);
    return s;
  }
  throw std::logic_error("cli: flag " + std::string(name) +
                         " is not declared");
}

std::string Args::text(const Slot& s) {
  return s.values.empty() ? s.flag.def : s.values.back();
}

template <typename T>
T Args::number(std::string_view name, Kind kind) const {
  const Slot& s = slot(name, {kind});
  T v{};
  if (const std::string t = text(s); t != s.flag.zero_word)
    (void)convert(t, v);
  return v;
}

bool Args::has(std::string_view name) const {
  return !slot(name, {}).values.empty();
}

int Args::integer(std::string_view name) const {
  return number<int>(name, Kind::Int);
}

std::uint64_t Args::uint(std::string_view name) const {
  return number<std::uint64_t>(name, Kind::Uint);
}

double Args::real(std::string_view name) const {
  return number<double>(name, Kind::Double);
}

std::string Args::str(std::string_view name) const {
  return text(slot(name, {Kind::String, Kind::Choice}));
}

std::vector<std::string> Args::list(std::string_view name) const {
  const Slot& s = slot(name, {Kind::List, Kind::String});
  if (s.flag.kind == Kind::List) return split(text(s));
  if (!s.flag.repeat)
    throw std::logic_error("cli: " + s.flag.name + " is not repeatable");
  return s.values;
}

Args parse(const Table& table, int argc, const char* const* argv, int first) {
  Args out;
  for (const Flag& f : table) {
    if (f.name == kHelp.name)
      throw std::logic_error("cli: " + f.name + " is built in");
    for (const Args::Slot& s : out.slots_)
      if (s.flag.name == f.name)
        throw std::logic_error("cli: " + f.name + " declared twice");
    if (!f.def.empty()) {
      try {
        check(f, f.def);
      } catch (const UsageError& e) {
        throw std::logic_error(std::string("cli: bad default: ") + e.what());
      }
    }
    out.slots_.push_back({f, {}});
  }

  for (int i = first; i < argc; ++i) {
    const std::string_view tok = argv[i];
    Args::Slot* slot = nullptr;
    if (tok.empty() || tok[0] != '-') {
      // An operand: the first positional slot still empty.
      for (Args::Slot& s : out.slots_)
        if (s.flag.positional() && s.values.empty()) {
          slot = &s;
          break;
        }
      if (slot == nullptr)
        throw UsageError("unexpected argument " + quoted(tok));
      slot->values.emplace_back(tok);
      continue;
    }
    if (tok == kHelp.name) {
      out.help_ = true;
      return out;
    }
    for (Args::Slot& s : out.slots_)
      if (!s.flag.positional() && s.flag.name == tok) slot = &s;
    if (slot == nullptr) throw UsageError("unknown flag " + quoted(tok));
    const Flag& f = slot->flag;
    if (!f.repeat && !slot->values.empty())
      throw UsageError(f.name + " given more than once");
    if (f.kind == Kind::Switch) {
      slot->values.emplace_back();
      continue;
    }
    if (i + 1 >= argc) throw UsageError(f.name + ": missing value");
    const std::string_view value = argv[++i];
    check(f, value);
    slot->values.emplace_back(value);
  }
  return out;
}

std::string usage(std::string_view program, const Table& declared) {
  Table table = declared;
  table.push_back(kHelp);
  const auto left = [](const Flag& f) {
    if (f.positional()) return f.name;
    return f.name + kMetavar[static_cast<int>(f.kind)];
  };
  std::string out = "usage: " + std::string(program) + " [flags]";
  std::size_t width = 0;
  for (const Flag& f : table) width = std::max(width, left(f).size());
  for (const Flag& f : table)
    if (f.positional()) out += " [" + f.name + "]";
  out += "\n";
  for (const Flag& f : table) {
    std::string notes;
    const auto note = [&](const std::string& n) {
      notes += (notes.empty() ? " (" : "; ") + n;
    };
    if (!f.choices.empty()) note("one of: " + join(f.choices));
    if (numeric(f.kind) && !range(f).empty()) note(range(f));
    if (!f.def.empty()) note("default " + f.def);
    if (f.repeat) note("repeatable");
    if (!notes.empty()) notes += ")";
    out += "  " + left(f) + std::string(width + 2 - left(f).size(), ' ') +
           f.help + notes + "\n";
  }
  return out;
}

Args parse_or_exit(std::string_view program, const Table& table, int argc,
                   const char* const* argv, int first) {
  try {
    Args args = parse(table, argc, argv, first);
    if (args.help()) {
      std::fputs(usage(program, table).c_str(), stdout);
      std::exit(0);
    }
    return args;
  } catch (const UsageError& e) {
    const std::string name(program);
    std::fprintf(stderr, "%s: %s\n%s", name.c_str(), e.what(),
                 usage(program, table).c_str());
    std::exit(2);
  }
}

}  // namespace whisper::cli
