#include "common.h"

namespace e2e {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Tracer::ToJson() const {
  uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n ";
    out += "{\"id\": " + std::to_string(i) + ", \"name\": " +
           JsonString(s.name) + ", \"parent\": " + std::to_string(s.parent) +
           ", \"start_ns\": " + std::to_string(s.start_ns - origin) +
           ", \"end_ns\": " + std::to_string(s.end_ns - origin) + "}";
  }
  return out + "]";
}

}  // namespace e2e
