#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace wcm::json {

const char* to_string(Kind kind) noexcept {
  switch (kind) {
    case Kind::null:
      return "null";
    case Kind::boolean:
      return "boolean";
    case Kind::number:
      return "number";
    case Kind::string:
      return "string";
    case Kind::array:
      return "array";
    case Kind::object:
      return "object";
  }
  return "?";
}

Value::Value(Array a)
    : kind_(Kind::array), array_(std::make_shared<const Array>(std::move(a))) {}

Value::Value(Object o)
    : kind_(Kind::object),
      object_(std::make_shared<const Object>(std::move(o))) {}

namespace {
[[noreturn]] void wrong_kind(const char* wanted, Kind got) {
  throw parse_error(std::string("expected a JSON ") + wanted + ", got " +
                    to_string(got));
}
}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::boolean) {
    wrong_kind("boolean", kind_);
  }
  return bool_;
}

double Value::as_double() const {
  if (kind_ != Kind::number) {
    wrong_kind("number", kind_);
  }
  return num_;
}

u64 Value::as_u64(u64 max) const {
  const double d = as_double();
  if (d < 0 || d != std::floor(d) || d > static_cast<double>(max)) {
    throw parse_error("expected a non-negative integer <= " +
                      std::to_string(max) + ", got " + std::to_string(d));
  }
  return static_cast<u64>(d);
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::string) {
    wrong_kind("string", kind_);
  }
  return str_;
}

const Array& Value::as_array() const {
  if (kind_ != Kind::array) {
    wrong_kind("array", kind_);
  }
  return *array_;
}

const Object& Value::as_object() const {
  if (kind_ != Kind::object) {
    wrong_kind("object", kind_);
  }
  return *object_;
}

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value run() {
    Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after JSON document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw parse_error(why, "line " + std::to_string(line) + ":" +
                               std::to_string(col));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value value(int depth) {
    if (depth > kMaxDepth) {
      fail("JSON nested deeper than 64 levels");
    }
    skip_ws();
    const char c = peek();
    if (c == '{') {
      return object(depth);
    }
    if (c == '[') {
      return array(depth);
    }
    if (c == '"') {
      return Value(string());
    }
    if (consume_literal("true")) {
      return Value(true);
    }
    if (consume_literal("false")) {
      return Value(false);
    }
    if (consume_literal("null")) {
      return Value();
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      return number();
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  Value number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) {
      fail("malformed number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) {
        fail("malformed number (no digits after '.')");
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) {
        fail("malformed number (empty exponent)");
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    return Value(std::strtod(token.c_str(), nullptr));
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        default:
          fail(std::string("unsupported escape '\\") + e + "'");
      }
    }
  }

  Value array(int depth) {
    expect('[');
    Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      items.push_back(value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(items));
    }
  }

  Value object(int depth) {
    expect('{');
    Object fields;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(fields));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      if (!fields.emplace(key, value(depth + 1)).second) {
        fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(fields));
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).run(); }

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  write_escaped(os, s);
  os << '"';
}

void write_escaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        // The parser rejects \uXXXX, so raw control bytes have no escape;
        // replace them rather than emit a document parse() would refuse.
        os << (static_cast<unsigned char>(c) < 0x20 ? '?' : c);
    }
  }
}

namespace {

void write_number(std::ostream& os, double v) {
  constexpr double exact = 9007199254740992.0;  // 2^53
  if (std::nearbyint(v) == v && v >= -exact && v <= exact) {
    os << static_cast<long long>(v);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

void write(std::ostream& os, const Value& value) {
  switch (value.kind()) {
    case Kind::null:
      os << "null";
      return;
    case Kind::boolean:
      os << (value.as_bool() ? "true" : "false");
      return;
    case Kind::number:
      write_number(os, value.as_double());
      return;
    case Kind::string:
      write_string(os, value.as_string());
      return;
    case Kind::array: {
      os << '[';
      bool first = true;
      for (const Value& v : value.as_array()) {
        if (!first) {
          os << ',';
        }
        first = false;
        write(os, v);
      }
      os << ']';
      return;
    }
    case Kind::object: {
      os << '{';
      bool first = true;
      for (const auto& [key, v] : value.as_object()) {
        if (!first) {
          os << ',';
        }
        first = false;
        write_string(os, key);
        os << ':';
        write(os, v);
      }
      os << '}';
      return;
    }
  }
}

std::string to_text(const Value& value) {
  std::ostringstream os;
  write(os, value);
  return os.str();
}

}  // namespace wcm::json
