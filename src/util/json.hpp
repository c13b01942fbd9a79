// Minimal streaming JSON writer and recursive-descent parser.
//
// MLCD run reports are consumed by scripts as often as by eyes; the CLI's
// --json mode serializes them with this writer. It produces compact,
// valid JSON with correct escaping and enforces well-formedness (keys
// only inside objects, one value per key) by throwing std::logic_error
// on misuse. The matching parse_json() reads any document the writer can
// produce (and standard JSON in general) back into a JsonValue tree —
// used by the report round-trip tests and the benchmark regression gate.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace mlcd::util {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be directly inside an object and must be
  /// followed by exactly one value (or container).
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text);
  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(int number);
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// Splices a pre-serialized JSON document in value position (e.g. a
  /// nested report produced by another writer). The caller vouches that
  /// `json` is itself well-formed; structural bookkeeping treats it as
  /// one value.
  JsonWriter& raw(std::string_view json);

  /// The serialized document; all containers must be closed.
  std::string str() const;

  /// JSON string escaping (quotes, backslashes, control characters).
  static std::string escape(std::string_view text);
  /// escape(), appended to `out` in place.
  static void escape_to(std::string& out, std::string_view text);

 private:
  enum class Scope { kObject, kArray };

  void before_value();

  std::ostringstream out_;
  std::vector<Scope> scopes_;
  std::vector<bool> first_;
  bool pending_key_ = false;
  bool done_ = false;
};

/// A parsed JSON document node. Objects keep insertion-independent
/// (sorted) key order via std::map; duplicate keys keep the last value,
/// matching common JSON library behavior.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  /// Transparent ordering: members are looked up by string_view without
  /// building a std::string key.
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() = default;  // null

  static JsonValue make_null();
  static JsonValue make_bool(bool flag);
  static JsonValue make_number(double number);
  static JsonValue make_string(std::string text);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(Object members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Checked accessors; throw std::logic_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object member lookup; throws std::out_of_range when absent
  /// (`contains` probes first). Only valid on objects.
  bool contains(std::string_view name) const;
  const JsonValue& at(std::string_view name) const;

  /// Array element; throws std::out_of_range when out of bounds.
  const JsonValue& at(std::size_t index) const;
  std::size_t size() const;  // array/object member count

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  Object object_;
};

/// Parses a complete JSON document. Throws std::invalid_argument with a
/// byte offset on malformed input or trailing garbage. Nesting is capped
/// (kMaxJsonDepth) so adversarial input cannot overflow the stack.
JsonValue parse_json(std::string_view text);

inline constexpr int kMaxJsonDepth = 96;

}  // namespace mlcd::util
