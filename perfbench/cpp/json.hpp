// Minimal JSON emission for the benchmark's result and trace files.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// Shortest decimal text that reads back as exactly `v` ("null" when v is
/// not finite, which JSON cannot represent).
[[nodiscard]] std::string json_number(double v);

/// `s` as a quoted JSON string with the required escapes.
[[nodiscard]] std::string json_string(std::string_view s);

/// Builds one JSON object, members in insertion order.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, double v);
  JsonObject& add(std::string_view key, std::int64_t v);
  JsonObject& add(std::string_view key, bool v);
  JsonObject& add(std::string_view key, std::string_view v);
  /// Without this overload a string literal would convert to bool.
  JsonObject& add(std::string_view key, const char* v) {
    return add(key, std::string_view(v));
  }
  JsonObject& add(std::string_view key, const JsonObject& v);
  /// Adds already-formatted JSON text (an array, say) as the member value.
  JsonObject& add_raw(std::string_view key, std::string_view json);

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

}  // namespace perfbench
