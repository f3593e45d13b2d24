// Minimal JSON document model for machine-readable experiment output and
// the broadcast service's request/response lines.
//
// Deliberately tiny: ordered objects (insertion order is preserved so output
// is deterministic and diffable), doubles printed as integers when integral,
// %.17g (round-trip exact) otherwise. `parse_json` covers the full value
// grammar (the service reads newline-delimited request objects with it);
// numbers are doubles, so 64-bit identifiers above 2^53 should travel as
// strings.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rn::sim {

class json_value {
 public:
  enum class kind : std::uint8_t { null, boolean, number, string, array, object };

  json_value() = default;                     ///< null
  json_value(bool b) : kind_(kind::boolean), bool_(b) {}
  json_value(double v) : kind_(kind::number), num_(v) {}
  json_value(int v) : kind_(kind::number), num_(v) {}
  json_value(std::int64_t v) : kind_(kind::number), num_(static_cast<double>(v)) {}
  json_value(std::uint64_t v) : kind_(kind::number), num_(static_cast<double>(v)) {}
  json_value(std::string s) : kind_(kind::string), str_(std::move(s)) {}
  json_value(std::string_view s) : kind_(kind::string), str_(s) {}
  json_value(const char* s) : kind_(kind::string), str_(s) {}

  [[nodiscard]] static json_value array() {
    json_value v;
    v.kind_ = kind::array;
    return v;
  }
  [[nodiscard]] static json_value object() {
    json_value v;
    v.kind_ = kind::object;
    return v;
  }

  [[nodiscard]] kind type() const { return kind_; }

  /// Array append (requires array kind).
  void push_back(json_value v);

  /// Object field access: inserts a null field if absent (requires object).
  json_value& operator[](std::string_view key);

  // --- read access (the service's request-parsing side) ---

  /// Object field lookup: nullptr when absent or when this is not an object.
  [[nodiscard]] const json_value* find(std::string_view key) const;
  /// Element count of an array or object; 0 for scalars.
  [[nodiscard]] std::size_t size() const;
  /// Array element access (requires array kind and i < size()).
  [[nodiscard]] const json_value& at(std::size_t i) const;

  [[nodiscard]] bool is_null() const { return kind_ == kind::null; }
  /// Typed reads with a fallback for absent/mistyped values. A field that is
  /// present but of the wrong type reads as the fallback — callers that need
  /// to distinguish use find() + type().
  [[nodiscard]] double as_number(double fallback = 0) const {
    return kind_ == kind::number ? num_ : fallback;
  }
  [[nodiscard]] const std::string& as_string() const {
    static const std::string empty;
    return kind_ == kind::string ? str_ : empty;
  }

  /// Serializes compactly when indent == 0, pretty-printed otherwise.
  void dump(std::ostream& os, int indent = 0) const;
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  kind kind_ = kind::null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<json_value> arr_;
  std::vector<std::pair<std::string, json_value>> obj_;

  void write(std::ostream& os, int indent, int depth) const;
  static void write_escaped(std::ostream& os, std::string_view s);
  static void write_number(std::ostream& os, double v);
};

/// Parses one JSON value (the whole input must be consumed, modulo
/// whitespace). Throws contract_error with a byte offset on syntax errors.
[[nodiscard]] json_value parse_json(std::string_view text);

}  // namespace rn::sim
