#include "sweep/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace synergy::sweep {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json parse error at byte " + std::to_string(pos) +
                           ": " + what);
}

/// Deepest array/object nesting accepted. Sweep fragments nest 6 deep
/// (document, cells, cell, metric, samples, sample); the bound keeps a
/// hostile document from exhausting the stack through recursion.
constexpr int kMaxDepth = 32;

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing content");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail(pos_, "nesting deeper than " + std::to_string(kMaxDepth));
        }
        ++depth_;
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return parse_string();
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(key.scalar_, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.scalar_ += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': v.scalar_ += '"'; break;
        case '\\': v.scalar_ += '\\'; break;
        case '/': v.scalar_ += '/'; break;
        case 'n': v.scalar_ += '\n'; break;
        case 'r': v.scalar_ += '\r'; break;
        case 't': v.scalar_ += '\t'; break;
        case 'b': v.scalar_ += '\b'; break;
        case 'f': v.scalar_ += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos_ - 1, "bad \\u escape digit");
          }
          // Our emitter only writes \u00xx control characters; reject the
          // rest rather than mis-decode surrogate pairs.
          if (code > 0xFF) fail(pos_, "unsupported \\u escape > 0xFF");
          v.scalar_ += static_cast<char>(code);
          break;
        }
        default: fail(pos_ - 1, "unknown escape");
      }
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.bool_ = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.bool_ = false;
      pos_ += 5;
    } else {
      fail(pos_, "bad literal");
    }
    return v;
  }

  JsonValue parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) fail(pos_, "bad literal");
    pos_ += 4;
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNull;
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail(pos_, "expected a value");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.scalar_ = text_.substr(start, pos_ - start);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) throw std::runtime_error("missing json member: " + key);
  return *v;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  char* end = nullptr;
  const double v = std::strtod(scalar_.c_str(), &end);
  if (*end != '\0') throw std::runtime_error("json: bad number " + scalar_);
  return v;
}

std::uint64_t JsonValue::as_u64() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  // Plain digits only: strtoull alone would wrap "-1" to 2^64-1 and stop
  // "2.9" at 2.
  for (const char c : scalar_) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      throw std::runtime_error("json: not an unsigned integer: " + scalar_);
    }
  }
  errno = 0;
  const std::uint64_t v = std::strtoull(scalar_.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    throw std::runtime_error("json: integer exceeds 64 bits: " + scalar_);
  }
  return v;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw std::runtime_error("json: not a string");
  return scalar_;
}

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace synergy::sweep
