// JSON string and number helpers shared by the mcsym.verify/1 report
// (verifier.cpp) and the service's mcsym.batch/1 / mcsym.serve/1 envelope
// lines (service.cpp). Not part of the public check/ surface.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace mcsym::check::json_detail {

inline void json_escape_into(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

inline void json_string(std::string& out, std::string_view s) {
  out += '"';
  json_escape_into(out, s);
  out += '"';
}

inline void json_seconds(std::string& out, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", seconds);
  out += buf;
}

}  // namespace mcsym::check::json_detail
