// Minimal dependency-free JSON document: parser + serializer.
//
// Exists so scenario specs are plain data files without dragging a JSON
// library into the build. Deliberately small: UTF-8 pass-through strings,
// numbers as int64 or double, objects preserving insertion order. The
// serializer is round-trip stable — dump(parse(dump(x))) == dump(x) — which
// the scenario subsystem relies on for field-exact spec round trips
// (integers stay integers; doubles print in shortest-round-trip form).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mps {

// Parse errors carry 1-based line/column of the offending character.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& msg, int line, int col)
      : std::runtime_error("json: " + msg + " (line " + std::to_string(line) + ", col " +
                           std::to_string(col) + ")"),
        line_(line),
        col_(col) {}

  int line() const { return line_; }
  int col() const { return col_; }

 private:
  int line_;
  int col_;
};

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;  // null
  static Json null() { return Json{}; }
  static Json boolean(bool b) { Json j; j.type_ = Type::kBool; j.bool_ = b; return j; }
  static Json number(std::int64_t i) { Json j; j.type_ = Type::kInt; j.int_ = i; return j; }
  static Json number(double d) { Json j; j.type_ = Type::kDouble; j.double_ = d; return j; }
  static Json string(std::string s) {
    Json j; j.type_ = Type::kString; j.string_ = std::move(s); return j;
  }
  static Json array() { Json j; j.type_ = Type::kArray; return j; }
  static Json object() { Json j; j.type_ = Type::kObject; return j; }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kInt || type_ == Type::kDouble; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { require(Type::kBool); return bool_; }
  // Any number as double (ints convert exactly for |i| < 2^53).
  double as_double() const {
    if (type_ == Type::kInt) return static_cast<double>(int_);
    require(Type::kDouble);
    return double_;
  }
  std::int64_t as_int() const { require(Type::kInt); return int_; }
  const std::string& as_string() const { require(Type::kString); return string_; }

  // --- arrays ---------------------------------------------------------------
  const std::vector<Json>& items() const { require(Type::kArray); return items_; }
  std::vector<Json>& items() { require(Type::kArray); return items_; }
  void push_back(Json v) { require(Type::kArray); items_.push_back(std::move(v)); }

  // --- objects (insertion-ordered) ------------------------------------------
  const std::vector<std::pair<std::string, Json>>& members() const {
    require(Type::kObject);
    return members_;
  }
  // nullptr when absent.
  const Json* find(const std::string& key) const;
  Json* find(const std::string& key);
  // Insert-or-get; appends to the member list on first use.
  Json& operator[](const std::string& key);
  void set(const std::string& key, Json v) { (*this)[key] = std::move(v); }

  std::size_t size() const {
    return type_ == Type::kArray ? items_.size()
         : type_ == Type::kObject ? members_.size()
                                  : 0;
  }

  // --- serialize / parse ----------------------------------------------------
  // indent < 0: compact one-line form. indent >= 0: pretty-printed with that
  // many spaces per level.
  std::string dump(int indent = -1) const;
  // Throws JsonError on malformed input or trailing garbage.
  static Json parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void require(Type t) const;
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

// Overwrites the node at `path` with `value`. A path is dotted object keys
// with [i] array indices, e.g. "paths[0].rate_mbps"; missing object members
// are created on the way, array elements must already exist. Throws
// std::invalid_argument naming the path when it does not fit the document,
// e.g. a key on an array ("paths.0") with a hint to write paths[0].
void set_at_path(Json& root, const std::string& path, Json value);

}  // namespace mps
