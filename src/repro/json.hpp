// Minimal JSON value type for the reproduction pipeline's artifacts.
//
// The conformance harness needs to write golden baselines and read them
// back bit-exactly with zero external dependencies, so this module keeps
// to the subset the artifacts use: null/bool/number/string/array/object,
// objects as ordered member lists (artifact files diff cleanly in git),
// and numbers serialized as the *shortest* decimal form that round-trips
// the exact double — goldens stay human-readable and bless->diff is exact.
// Numbers are printed with std::to_chars and parsed with std::from_chars,
// so neither direction depends on the C locale.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace knl::repro::json {

class Value;

using Array = std::vector<Value>;
/// Object member; objects preserve insertion order.
using Member = std::pair<std::string, Value>;
using Object = std::vector<Member>;

class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : data_(b) {}                // NOLINT(google-explicit-constructor)
  Value(double d) : data_(d) {}              // NOLINT(google-explicit-constructor)
  Value(int i) : data_(static_cast<double>(i)) {}  // NOLINT
  Value(std::string s) : data_(std::move(s)) {}    // NOLINT
  Value(const char* s) : data_(std::string(s)) {}  // NOLINT
  Value(Array a) : data_(std::move(a)) {}          // NOLINT
  Value(Object o) : data_(std::move(o)) {}         // NOLINT

  [[nodiscard]] static Value array() { return Value(Array{}); }
  [[nodiscard]] static Value object() { return Value(Object{}); }

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(data_); }

  /// Typed accessors; defaulted on type mismatch so diff code can probe
  /// malformed artifacts without branching on every field.
  [[nodiscard]] bool as_bool(bool fallback = false) const;
  [[nodiscard]] double as_number(double fallback = 0.0) const;
  [[nodiscard]] const std::string& as_string() const;  // empty on mismatch
  [[nodiscard]] const Array& as_array() const;         // empty on mismatch
  [[nodiscard]] const Object& as_object() const;       // empty on mismatch

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Object insert-or-assign (turns a null value into an object).
  void set(const std::string& key, Value value);
  /// Array append (turns a null value into an array).
  void push_back(Value value);

  /// Serialize; `indent` spaces per nesting level, 0 = single line.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Strict-enough parser for artifact files; nullopt (with the failure
  /// position in `*error` when given) on malformed input or trailing junk.
  /// Numbers must follow the RFC 8259 grammar; one past the double range
  /// is rejected, one below it parses as (signed) zero, as strtod gives.
  [[nodiscard]] static std::optional<Value> parse(const std::string& text,
                                                  std::string* error = nullptr);

  friend bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Decimal form of `v` as the artifacts spell it: "%.0f" for integral
/// values below 2^53, else the lowest "%.*g" precision whose text parses
/// back to exactly `v` (found from std::to_chars' shortest digit count).
[[nodiscard]] std::string format_number(double v);

}  // namespace knl::repro::json
