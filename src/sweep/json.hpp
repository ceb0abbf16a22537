// Minimal JSON reader for the sweep's own emitted documents.
//
// `synergy sweep --merge` must reload `synergy-sweep-v1` fragments with
// *exact* fidelity: unsigned 64-bit integers (seeds, reservoir
// priorities) cannot detour through a double, and doubles printed with
// %.17g must come back bit-for-bit. Numbers therefore keep their raw
// token and convert on demand (as_u64 via strtoull, as_double via strtod
// — both exact for our emitters' output). This is a reader for
// machine-written JSON, not a general validator: it accepts the full
// JSON grammar but only the escapes our emitter produces. Fragments are
// still untrusted input, so malformed numbers and nesting deeper than a
// fixed limit throw instead of wrapping or overflowing the stack.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace synergy::sweep {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Object member that must exist (throws std::runtime_error).
  const JsonValue& at(const std::string& key) const;

  const std::vector<JsonValue>& items() const { return items_; }

  bool as_bool() const;
  double as_double() const;          ///< strtod over the whole raw token.
  /// Plain decimal digits that fit in 64 bits; anything else throws.
  std::uint64_t as_u64() const;
  const std::string& as_string() const;

  /// Parse a complete document; throws std::runtime_error with a byte
  /// offset on malformed input.
  static JsonValue parse(const std::string& text);

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  ///< raw number token, or decoded string
  std::vector<JsonValue> items_;               ///< array elements
  std::vector<std::pair<std::string, JsonValue>> members_;  ///< object
};

}  // namespace synergy::sweep
