#include "json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
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
          out += c;
        }
    }
  }
  return out + "\"";
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(k);
  body_ += ": ";
}

JsonObject& JsonObject::add(std::string_view k, double v) {
  key(k);
  body_ += json_number(v);
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, std::string_view v) {
  key(k);
  body_ += json_string(v);
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, const JsonObject& v) {
  return add_raw(k, v.str());
}

JsonObject& JsonObject::add_raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace perfbench
