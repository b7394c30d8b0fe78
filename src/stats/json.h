// Minimal JSON toolkit: the writer shared by the exporters (runner
// trajectories, obs metrics, obs Chrome traces) and the one reader (the
// serve wire, the sweep client, the harnesses' self-validation).
//
// Hand-rolled (no third-party JSON dependency in the image). The writer's
// output is deterministic (fixed key order, fixed float formatting), so an
// exported file is diffable across runs and across --jobs values.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace whisper::stats {

/// Incremental JSON writer. Keys and values must be emitted in pairs inside
/// objects; the writer inserts commas and quoting.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& k);
  void value(const std::string& v);
  void value(const char* v);
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v);
  void value(bool v);

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void comma();
  void escaped(const std::string& s);

  std::string out_;
  bool need_comma_ = false;
};

/// A parsed JSON value. Strict RFC 8259: objects, arrays, strings (with
/// escapes), numbers, booleans, null. Duplicate keys keep the last value,
/// like every practical parser.
struct JsonValue {
  enum class Type : std::uint8_t { Null, Bool, Number, String, Object, Array };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  /// Number: the literal as written. Integer fields parse it exactly — a
  /// double holds integers exactly only below 2^53, and seeds span 2^64.
  std::string literal;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  [[nodiscard]] bool is_null() const { return type == Type::Null; }
  [[nodiscard]] bool is_bool() const { return type == Type::Bool; }
  [[nodiscard]] bool is_number() const { return type == Type::Number; }
  [[nodiscard]] bool is_string() const { return type == Type::String; }
  [[nodiscard]] bool is_object() const { return type == Type::Object; }
  [[nodiscard]] bool is_array() const { return type == Type::Array; }

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* get(std::string_view key) const;
  /// Object member lookup that throws JsonError ("missing field 'key'")
  /// when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
};

/// Malformed JSON ("bad JSON at byte N: <why>"), or a member the typed
/// readers below refuse ("field 'x' must be a boolean").
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Typed member readers, shared by both directions of the serve wire. Each
/// returns the value of member `field` or throws JsonError naming it — a
/// missing, mistyped or inexact member is never read as a default.
[[nodiscard]] double json_number(const JsonValue& v, const char* field);
[[nodiscard]] bool json_bool(const JsonValue& v, const char* field);
[[nodiscard]] const std::string& json_string(const JsonValue& v,
                                             const char* field);
/// The exact value of an integer member of type T (int or std::uint64_t).
/// A plain integer literal is parsed digit for digit; one with a fraction
/// or an exponent must still name an integer, below 2^53 where its double
/// is exact. Values outside T are refused, never wrapped or rounded.
template <typename T>
[[nodiscard]] T json_integer(const JsonValue& v, const char* field);

/// Parse one complete JSON document; trailing non-whitespace is an error,
/// and so is nesting deeper than kMaxJsonDepth. Throws JsonError. Also the
/// repo's JSON validator: an exporter's output is well-formed iff this
/// accepts it.
inline constexpr int kMaxJsonDepth = 256;
[[nodiscard]] JsonValue json_parse(std::string_view text);

}  // namespace whisper::stats
