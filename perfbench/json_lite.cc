#include "json_lite.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool Document(JsonValue* out) {
    if (!Value(out, 0)) return false;
    Skip();
    return pos_ == s_.size();
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char e = s_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(s_.substr(pos_, 4)).c_str(), nullptr,
                           16));
          pos_ += 4;
          // The server only escapes control characters this way.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else {
            out->push_back('?');
          }
          break;
        }
        default: out->push_back(e); break;
      }
    }
    return false;
  }
  bool Value(JsonValue* out, int depth) {
    if (depth > 64) return false;
    Skip();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        Skip();
        std::string key;
        if (!String(&key)) return false;
        Skip();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        if (!Value(&out->obj[key], depth + 1)) return false;
        Skip();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        out->arr.emplace_back();
        if (!Value(&out->arr.back(), depth + 1)) return false;
        Skip();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return String(&out->str);
    }
    if (Literal("true")) {
      out->kind = JsonValue::kBool;
      out->b = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::kBool;
      return true;
    }
    if (Literal("null")) return true;
    char* end = nullptr;
    std::string copy(s_.substr(pos_, 64));
    out->num = std::strtod(copy.c_str(), &end);
    size_t used = static_cast<size_t>(end - copy.c_str());
    if (used == 0) return false;
    pos_ += used;
    out->kind = JsonValue::kNumber;
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue& JsonValue::operator[](const std::string& key) const {
  static const JsonValue kNullValue;
  if (kind != kObject) return kNullValue;
  auto it = obj.find(key);
  return it == obj.end() ? kNullValue : it->second;
}

bool ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue();
  return Parser(text).Document(out);
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace perfbench
