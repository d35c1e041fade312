#pragma once
// Minimal JSON reader for configuration inputs (the campaign grid spec).
// The repository already *writes* JSON by hand (analysis/json_export.hpp);
// this is the matching reader: a strict recursive-descent parser over a
// small DOM, with no dependencies.
//
// Deliberate restrictions (all rejected with wcm::parse_error):
//   * \uXXXX escapes (specs are ASCII; the writer never emits them)
//   * duplicate object keys
//   * nesting deeper than 64 levels (stack-overflow guard)
//   * trailing garbage after the top-level value
//
// Objects preserve no insertion order — they are std::map, so iteration is
// key-sorted and deterministic.

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/math.hpp"

namespace wcm::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

enum class Kind { null, boolean, number, string, array, object };

[[nodiscard]] const char* to_string(Kind kind) noexcept;

/// One JSON value.  Accessors are contract-style: asking for the wrong
/// kind throws wcm::parse_error naming the actual kind, so spec-validation
/// code reads as straight-line field access.
class Value {
 public:
  Value() = default;  // null
  explicit Value(bool b) : kind_(Kind::boolean), bool_(b) {}
  explicit Value(double d) : kind_(Kind::number), num_(d) {}
  explicit Value(std::string s)
      : kind_(Kind::string), str_(std::move(s)) {}
  explicit Value(Array a);
  explicit Value(Object o);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::null; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::string;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::array; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::object;
  }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// Number that must be a non-negative integer <= max (most spec fields).
  [[nodiscard]] u64 as_u64(u64 max = ~u64{0}) const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

 private:
  Kind kind_ = Kind::null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // unique_ptr keeps Value a complete type inside its own containers.
  std::shared_ptr<const Array> array_;
  std::shared_ptr<const Object> object_;
};

/// Parse one JSON document.  Throws wcm::parse_error with a line:column
/// position on any syntax error, unsupported construct, or trailing text.
[[nodiscard]] Value parse(const std::string& text);

/// Serialize a value as one line of strict JSON that parse() round-trips:
/// object keys in map (sorted) order, strings restricted to the escapes
/// the parser accepts (control bytes outside \n \t \r are replaced with
/// '?'), integral numbers in [-2^53, 2^53] rendered without a fraction,
/// all other numbers in %.17g.  The serve protocol's determinism contract
/// (byte-identical responses, docs/SERVE.md) rests on this writer.
void write(std::ostream& os, const Value& value);

/// write() into a string.
[[nodiscard]] std::string to_text(const Value& value);

/// Escape and double-quote one string (the writer's string rule).
void write_string(std::ostream& os, const std::string& s);

/// write_string() without the quotes, for hand-built JSON bodies.
void write_escaped(std::ostream& os, const std::string& s);

}  // namespace wcm::json
