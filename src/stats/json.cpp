#include "stats/json.h"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <system_error>
#include <type_traits>

namespace whisper::stats {

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

void JsonWriter::escaped(const std::string& s) {
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
}

void JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
}

void JsonWriter::begin_array() {
  comma();
  out_ += '[';
}

void JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
}

void JsonWriter::key(const std::string& k) {
  comma();
  escaped(k);
  out_ += ':';
}

void JsonWriter::value(const std::string& v) {
  comma();
  escaped(v);
  need_comma_ = true;
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::value(double v) {
  comma();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out_ += buf;
  need_comma_ = true;
}

void JsonWriter::value(std::uint64_t v) {
  comma();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out_ += buf;
  need_comma_ = true;
}

void JsonWriter::value(std::int64_t v) {
  comma();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out_ += buf;
  need_comma_ = true;
}

void JsonWriter::value(int v) { value(static_cast<std::int64_t>(v)); }

void JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  need_comma_ = true;
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (type != Type::Object) return nullptr;
  // Last occurrence wins, matching how the members were accumulated.
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object)
    if (k == key) found = &v;
  return found;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = get(key);
  if (v == nullptr)
    throw JsonError("missing field '" + std::string(key) + "'");
  return *v;
}

namespace {

[[noreturn]] void refuse(const char* field, const char* why) {
  throw JsonError(std::string("field '") + field + "' " + why);
}

}  // namespace

double json_number(const JsonValue& v, const char* field) {
  if (!v.is_number()) refuse(field, "must be a number");
  return v.number;
}

bool json_bool(const JsonValue& v, const char* field) {
  if (!v.is_bool()) refuse(field, "must be a boolean");
  return v.boolean;
}

const std::string& json_string(const JsonValue& v, const char* field) {
  if (!v.is_string()) refuse(field, "must be a string");
  return v.string;
}

template <typename T>
T json_integer(const JsonValue& v, const char* field) {
  const char* kind = std::is_unsigned_v<T> ? "must be a non-negative integer"
                                           : "must be an integer";
  const double d = json_number(v, field);
  const std::string& text = v.literal;
  if (text.find_first_of(".eE") == std::string::npos) {
    if (std::is_unsigned_v<T> && text.front() == '-') {
      if (d != 0) refuse(field, kind);
      return T{0};  // "-0" is zero
    }
    T out{};
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, out);
    if (ec == std::errc::result_out_of_range) refuse(field, "is out of range");
    if (ec != std::errc() || ptr != last) refuse(field, kind);
    return out;
  }
  if (d != std::floor(d) || (std::is_unsigned_v<T> && d < 0))
    refuse(field, kind);
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (std::fabs(d) >= kExact ||
      d < static_cast<double>(std::numeric_limits<T>::min()) ||
      d > static_cast<double>(std::numeric_limits<T>::max()))
    refuse(field, "is out of range");
  return static_cast<T>(d);
}

template int json_integer<int>(const JsonValue&, const char*);
template std::uint64_t json_integer<std::uint64_t>(const JsonValue&,
                                                   const char*);

// ---------------------------------------------------------------------------
// Reader: recursive descent over the RFC 8259 grammar.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size())
      fail("trailing garbage after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("bad JSON at byte " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    ++pos_;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxJsonDepth)
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        JsonValue v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::String;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (consume_word("true"))
          v.boolean = true;
        else if (consume_word("false"))
          v.boolean = false;
        else
          fail("unrecognised literal");
        return v;
      }
      case 'n': {
        if (!consume_word("null")) fail("unrecognised literal");
        return JsonValue{};
      }
      default:
        return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("bad \\u escape");
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':  out.push_back('"');  break;
        case '\\': out.push_back('\\'); break;
        case '/':  out.push_back('/');  break;
        case 'b':  out.push_back('\b'); break;
        case 'f':  out.push_back('\f'); break;
        case 'n':  out.push_back('\n'); break;
        case 'r':  out.push_back('\r'); break;
        case 't':  out.push_back('\t'); break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (!consume_word("\\u")) fail("lone high surrogate");
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    // int part: 0, or [1-9][0-9]*
    if (peek() == '0') {
      ++pos_;
    } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    } else {
      fail("bad number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("bad number: digits must follow '.'");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("bad number: empty exponent");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    JsonValue v;
    v.type = JsonValue::Type::Number;
    v.literal = std::string(text_.substr(start, pos_ - start));
    v.number = std::strtod(v.literal.c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) { return Parser(text).document(); }

}  // namespace whisper::stats
