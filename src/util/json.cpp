#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace mlcd::util {

void JsonWriter::before_value() {
  if (done_) {
    throw std::logic_error("JsonWriter: document already complete");
  }
  if (!scopes_.empty() && scopes_.back() == Scope::kObject &&
      !pending_key_) {
    throw std::logic_error("JsonWriter: object member needs a key");
  }
  if ((scopes_.empty() || scopes_.back() == Scope::kArray) &&
      pending_key_) {
    throw std::logic_error("JsonWriter: dangling key outside object");
  }
  if (!scopes_.empty() && scopes_.back() == Scope::kArray) {
    if (!first_.back()) out_ << ',';
    first_.back() = false;
  }
  pending_key_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ << '{';
  scopes_.push_back(Scope::kObject);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (scopes_.empty() || scopes_.back() != Scope::kObject || pending_key_) {
    throw std::logic_error("JsonWriter: mismatched end_object");
  }
  out_ << '}';
  scopes_.pop_back();
  first_.pop_back();
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ << '[';
  scopes_.push_back(Scope::kArray);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (scopes_.empty() || scopes_.back() != Scope::kArray) {
    throw std::logic_error("JsonWriter: mismatched end_array");
  }
  out_ << ']';
  scopes_.pop_back();
  first_.pop_back();
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (done_ || scopes_.empty() || scopes_.back() != Scope::kObject ||
      pending_key_) {
    throw std::logic_error("JsonWriter: key() outside object position");
  }
  if (!first_.back()) out_ << ',';
  first_.back() = false;
  out_ << '"' << escape(name) << "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  out_ << '"' << escape(text) << '"';
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string_view(text));
}

JsonWriter& JsonWriter::value(double number) {
  before_value();
  if (!std::isfinite(number)) {
    out_ << "null";  // JSON has no Inf/NaN
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", number);
    out_ << buf;
  }
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  before_value();
  out_ << number;
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(int number) {
  return value(static_cast<std::int64_t>(number));
}

JsonWriter& JsonWriter::value(bool flag) {
  before_value();
  out_ << (flag ? "true" : "false");
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ << "null";
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  if (json.empty()) {
    throw std::logic_error("JsonWriter::raw: empty document");
  }
  before_value();
  out_ << json;
  if (scopes_.empty()) done_ = true;
  return *this;
}

std::string JsonWriter::str() const {
  if (!scopes_.empty()) {
    throw std::logic_error("JsonWriter::str: unclosed containers");
  }
  return out_.str();
}

std::string JsonWriter::escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  escape_to(out, text);
  return out;
}

void JsonWriter::escape_to(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    const char* replacement = nullptr;
    switch (c) {
      case '"':
        replacement = "\\\"";
        break;
      case '\\':
        replacement = "\\\\";
        break;
      case '\n':
        replacement = "\\n";
        break;
      case '\r':
        replacement = "\\r";
        break;
      case '\t':
        replacement = "\\t";
        break;
      default:
        if (c >= 0x20) continue;
    }
    out.append(text, plain, i - plain);
    plain = i + 1;
    if (replacement != nullptr) {
      out.append(replacement);
    } else {
      const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
      out.append(code, sizeof code);
    }
  }
  out.append(text, plain);
}

// ---------------------------------------------------------------- JsonValue

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool flag) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = flag;
  return v;
}

JsonValue JsonValue::make_number(double number) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = number;
  return v;
}

JsonValue JsonValue::make_string(std::string text) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(text);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(Object members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw std::logic_error(std::string("JsonValue: not a ") + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (!is_number()) kind_error("number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (!is_array()) kind_error("array");
  return array_;
}

bool JsonValue::contains(std::string_view name) const {
  if (!is_object()) kind_error("object");
  return object_.find(name) != object_.end();
}

const JsonValue& JsonValue::at(std::string_view name) const {
  if (!is_object()) kind_error("object");
  const auto it = object_.find(name);
  if (it == object_.end()) {
    throw std::out_of_range("JsonValue: no member \"" + std::string(name) +
                            "\"");
  }
  return it->second;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  if (!is_array()) kind_error("array");
  if (index >= array_.size()) {
    throw std::out_of_range("JsonValue: array index out of range");
  }
  return array_[index];
}

std::size_t JsonValue::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  kind_error("array or object");
}

// --------------------------------------------------------------- parse_json

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("parse_json: " + what + " at byte " +
                                std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxJsonDepth) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        fail("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue::Object members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      // Last duplicate wins, as in most JSON libraries.
      members[std::move(key)] = parse_value(depth + 1);
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue::make_object(std::move(members));
  }

  JsonValue parse_array(int depth) {
    expect('[');
    std::vector<JsonValue> items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') break;
      if (c < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("unknown escape sequence");
      }
    }
    return out;
  }

  std::string parse_unicode_escape() {
    const unsigned code = parse_hex4();
    // The writer only ever emits \u00XX for control characters, but
    // accept the full BMP (and surrogate pairs) so standard JSON from
    // other producers parses too. Encode as UTF-8.
    unsigned cp = code;
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        fail("unpaired surrogate");
      }
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(
            static_cast<unsigned char>(text_[pos_]))) {
      fail("malformed number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero may not be followed by more digits
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(
              static_cast<unsigned char>(text_[pos_]))) {
        fail("malformed fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !std::isdigit(
              static_cast<unsigned char>(text_[pos_]))) {
        fail("malformed exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    // from_chars rounds exactly as strtod does, without the token copy
    // or the locale lookup; out of range, strtod's answer stands (0 on
    // underflow, inf on overflow).
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    if (std::from_chars(token.data(), token.data() + token.size(), value)
            .ec != std::errc{}) {
      value = std::strtod(std::string(token).c_str(), nullptr);
    }
    // A grammatically valid literal can still overflow the double range
    // ("1e999" parses to +inf); JSON has no representation for
    // non-finite numbers, so accepting one would round-trip as garbage.
    if (!std::isfinite(value)) fail("number literal overflows double");
    return JsonValue::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace mlcd::util
