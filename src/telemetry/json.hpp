// Internal JSON building blocks shared by the telemetry snapshot and the
// controller audit log (not installed; the public surface is the typed
// to_json/parse functions in telemetry.hpp and audit.hpp). append_escaped
// is the one JSON string escaper of the repo: every writer (trace export,
// traffic report, the bench, synchro and co-location reports) goes through
// it, so a control character is escaped everywhere instead of dropped.
//
// Writer side: append_* helpers produce deterministic bytes — %.17g for
// doubles (round-trips exactly; non-finite becomes null, same convention as
// the trace exporter). Reader side: Cursor is a minimal whitespace-tolerant
// scanner over exactly the shapes our writers emit.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

namespace rubic::telemetry::jsonutil {

inline void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

inline void append_i64(std::string& out, std::int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out += buf;
}

inline void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

inline void append_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// A JSON string literal: the escaped text between double quotes.
inline void append_quoted(std::string& out, std::string_view text) {
  out += '"';
  append_escaped(out, text);
  out += '"';
}

// append_escaped into a fresh string, for printf-style writers.
inline std::string escaped(std::string_view text) {
  std::string out;
  append_escaped(out, text);
  return out;
}

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool fail(std::string message) {
    if (error.empty()) {
      error = std::move(message) + " at offset " + std::to_string(pos);
    }
    return false;
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  bool at_end() {
    skip_ws();
    return pos >= text.size();
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos >= text.size()) break;
      char esc = text[pos++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'r':
          *out += '\r';
          break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          *out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  // Parses a JSON number or null. *value is always set (null -> NaN);
  // *is_u64 marks a plain non-negative integer that fit in *as_u64.
  bool parse_number(double* value, std::uint64_t* as_u64, bool* is_u64) {
    skip_ws();
    *is_u64 = false;
    if (text.substr(pos, 4) == "null") {
      pos += 4;
      *value = std::nan("");
      return true;
    }
    const std::size_t start = pos;
    while (pos < text.size()) {
      const char c = text[pos];
      const bool numeric = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                           c == '.' || c == 'e' || c == 'E';
      if (!numeric) break;
      ++pos;
    }
    if (pos == start) return fail("expected number");
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    *value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("bad number");
    if (token.find_first_not_of("0123456789") == std::string::npos) {
      errno = 0;
      *as_u64 = std::strtoull(token.c_str(), nullptr, 10);
      *is_u64 = errno == 0;
    }
    return true;
  }

  bool parse_u64(std::uint64_t* out) {
    double value = 0.0;
    bool is_u64 = false;
    if (!parse_number(&value, out, &is_u64)) return false;
    if (!is_u64) return fail("expected unsigned integer");
    return true;
  }

  bool parse_int(int* out) {
    skip_ws();
    bool negative = false;
    if (pos < text.size() && text[pos] == '-') {
      negative = true;
      ++pos;
    }
    std::uint64_t magnitude = 0;
    if (!parse_u64(&magnitude)) return false;
    if (magnitude > 1u << 30) return fail("integer out of range");
    *out = negative ? -static_cast<int>(magnitude)
                    : static_cast<int>(magnitude);
    return true;
  }

  bool parse_double(double* out) {
    std::uint64_t as_u64 = 0;
    bool is_u64 = false;
    return parse_number(out, &as_u64, &is_u64);
  }

  bool parse_bool(bool* out) {
    skip_ws();
    if (text.substr(pos, 4) == "true") {
      pos += 4;
      *out = true;
      return true;
    }
    if (text.substr(pos, 5) == "false") {
      pos += 5;
      *out = false;
      return true;
    }
    return fail("expected bool");
  }

  bool parse_null() {
    skip_ws();
    if (text.substr(pos, 4) == "null") {
      pos += 4;
      return true;
    }
    return fail("expected null");
  }
};

}  // namespace rubic::telemetry::jsonutil
