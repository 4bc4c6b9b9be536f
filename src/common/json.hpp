// Minimal JSON value type, streaming writer and parser.
//
// Backs the session-dump feature (core/session_dump.hpp): campaign
// results are archived as JSON documents that external tooling — or a
// later process — can read back. Deliberately small: UTF-8 passthrough,
// doubles for all numbers, no comments, no trailing commas.
//
// JsonWriter is the one formatter: Json::dump walks its tree into one, and
// large documents (campaign checkpoints) are written against one directly
// without building a tree. Object keys must arrive in strictly increasing
// byte order — the order a Json::Object (std::map) iterates — so a
// streamed document is byte-identical to the dump of the equivalent tree.

#pragma once

#include <concepts>
#include <cstddef>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace impress::common {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}                       // null
  Json(std::nullptr_t) : value_(nullptr) {}         // NOLINT(runtime/explicit)
  Json(bool b) : value_(b) {}                       // NOLINT(runtime/explicit)
  Json(double d) : value_(d) {}                     // NOLINT(runtime/explicit)
  Json(int i) : value_(static_cast<double>(i)) {}   // NOLINT(runtime/explicit)
  Json(std::size_t n) : value_(static_cast<double>(n)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}   // NOLINT(runtime/explicit)
  Json(std::string s) : value_(std::move(s)) {}     // NOLINT(runtime/explicit)
  Json(Array a) : value_(std::move(a)) {}           // NOLINT(runtime/explicit)
  Json(Object o) : value_(std::move(o)) {}          // NOLINT(runtime/explicit)

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(value_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(value_);
  }

  /// Typed accessors; throw std::bad_variant_access on mismatch.
  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_number() const { return std::get<double>(value_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(value_);
  }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(value_); }
  [[nodiscard]] Array& as_array() { return std::get<Array>(value_); }
  [[nodiscard]] const Object& as_object() const {
    return std::get<Object>(value_);
  }
  [[nodiscard]] Object& as_object() { return std::get<Object>(value_); }

  /// Object member access; throws std::out_of_range when missing.
  [[nodiscard]] const Json& at(const std::string& key) const {
    return as_object().at(key);
  }
  /// Array element access.
  [[nodiscard]] const Json& at(std::size_t i) const { return as_array().at(i); }
  [[nodiscard]] bool contains(const std::string& key) const {
    return is_object() && as_object().contains(key);
  }
  [[nodiscard]] std::size_t size() const {
    if (is_array()) return as_array().size();
    if (is_object()) return as_object().size();
    return 0;
  }

  /// Serialize. `indent` > 0 pretty-prints with that many spaces.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse a JSON document; throws std::invalid_argument with a byte
  /// offset on malformed input (including trailing garbage and an object
  /// key that repeats within one object).
  [[nodiscard]] static Json parse(std::string_view text);

  bool operator==(const Json&) const = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

/// Streaming JSON formatter, compact or indented exactly like
/// Json::dump(indent). Numbers print as integers when integral and below
/// 1e15 in magnitude, otherwise with 17 significant digits (printf's
/// "%.0f" / "%.17g", so every finite double round-trips through parse);
/// non-finite numbers print as null. Misuse — a key outside an object, a
/// value in an object without its key, an unbalanced end, a second
/// top-level value — throws std::logic_error, as does a key that does not
/// sort strictly after the previous key of the same object.
class JsonWriter {
 public:
  /// `indent` > 0 pretty-prints with that many spaces per level.
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Name the next member of the innermost open object.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(double d);
  /// Integers are numbers like any other (converted to double, as
  /// Json(int) does).
  template <std::integral I>
    requires(!std::same_as<I, bool>)
  JsonWriter& value(I n) {
    return value(static_cast<double>(n));
  }
  JsonWriter& value(bool b);
  JsonWriter& value(std::string_view s);
  /// Exact matches: a std::string would be ambiguous between string_view
  /// and Json, and a string literal would convert to bool.
  JsonWriter& value(const std::string& s) { return value(std::string_view(s)); }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(std::nullptr_t);
  /// Write a whole tree (objects iterate in key order).
  JsonWriter& value(const Json& v);
  /// Append `json` verbatim where value() would write: one value, or
  /// consecutive elements ("a,b") of the innermost open array. The bytes
  /// must come from a writer with this indent at the same depth; they are
  /// not parsed. Throws std::logic_error on the misuse value() rejects and
  /// on empty `json`.
  JsonWriter& splice(std::string_view json);

  /// Bytes written so far (offsets for a later splice of them).
  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

  /// The finished document; throws std::logic_error when no value was
  /// written or a container is still open. Leaves the writer empty.
  [[nodiscard]] std::string take();

 private:
  struct Frame {
    bool object = false;
    bool empty = true;
    std::string last_key;  ///< objects: the previous member's key
  };

  void before_value();
  JsonWriter& open(bool object, char bracket);
  JsonWriter& close(bool object, char bracket);
  void newline(std::size_t depth);
  void write_string(std::string_view s);
  void write_number(double d);

  std::string out_;
  int indent_;
  /// Open containers are frames_[0, depth_); deeper frames are kept so
  /// their key buffers are reused by the next container at that depth.
  std::vector<Frame> frames_;
  std::size_t depth_ = 0;
  bool key_pending_ = false;
};

}  // namespace impress::common
