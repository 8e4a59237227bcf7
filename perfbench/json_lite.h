// A minimal JSON reader/writer for the benchmark's side of the wire: the
// load generator parses the server's reply lines with it. Deliberately
// independent of src/server/json.h, so a protocol bug cannot hide behind
// a shared parser.
#ifndef PERFBENCH_JSON_LITE_H_
#define PERFBENCH_JSON_LITE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  // Member lookup; a shared null value when absent or not an object.
  const JsonValue& operator[](const std::string& key) const;
  int64_t Int(int64_t fallback = 0) const {
    return kind == kNumber ? static_cast<int64_t>(num) : fallback;
  }
  bool Bool(bool fallback = false) const {
    return kind == kBool ? b : fallback;
  }
};

// Parses one JSON document; false on malformed input.
bool ParseJson(std::string_view text, JsonValue* out);

// Quotes and escapes `s` as a JSON string literal.
std::string JsonQuote(std::string_view s);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_LITE_H_
