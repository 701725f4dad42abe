// Minimal JSON document model and recursive-descent parser for the serve
// wire protocol. The library writes JSON through JsonWriter
// (common/string_util.h); this header is the read side, so the daemon can
// accept requests without an external dependency.
//
// Scope is deliberately the protocol's needs, not a general library:
// full JSON grammar (null/bool/number/string/array/object, \uXXXX escapes
// with surrogate pairs), a parse depth limit, and Status errors naming the
// byte offset. Object member order is preserved; duplicate keys keep the
// first occurrence (Find returns it), matching the protocol's "first key
// wins" rule.

#ifndef MALLEUS_SERVE_JSON_H_
#define MALLEUS_SERVE_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace malleus {
namespace serve {

/// \brief One parsed JSON value (an immutable tree).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses `text` as exactly one JSON document (trailing non-whitespace
  /// is an error). Errors name the byte offset of the problem.
  static Result<JsonValue> Parse(const std::string& text);

  JsonValue() = default;  // null

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; calling the wrong one on a value is a programming
  /// error (checked). Protocol code tests kind first and returns typed
  /// wire errors instead of tripping these.
  bool bool_value() const;
  double number() const;
  const std::string& string_value() const;
  const std::vector<JsonValue>& array() const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// True iff the number is integral and fits an int64 exactly.
  bool IsInt64() const;
  /// The number as int64 (requires IsInt64()).
  int64_t Int64() const;

  /// Object member lookup; null when absent or this is not an object.
  const JsonValue* Find(const std::string& key) const;

  // Construction helpers (used by tests; the server renders responses
  // through JsonWriter and never builds trees).
  static JsonValue Null();
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue String(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::vector<std::pair<std::string, JsonValue>> m);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace serve
}  // namespace malleus

#endif  // MALLEUS_SERVE_JSON_H_
