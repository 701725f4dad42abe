#include "common/string_util.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace malleus {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string FormatDouble(double v, int digits) {
  std::string s = StrFormat("%.*f", digits, v);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

std::string FormatBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  return StrFormat("%.2f %s", v, kUnits[unit]);
}

std::string FormatSeconds(double seconds) {
  if (seconds < 0) {
    // Two statements: GCC 12's -Wrestrict misfires on `"-" + <temporary>`.
    std::string out = "-";
    out += FormatSeconds(-seconds);
    return out;
  }
  if (seconds < 1e-3) return StrFormat("%.1f us", seconds * 1e6);
  if (seconds < 1.0) return StrFormat("%.1f ms", seconds * 1e3);
  if (seconds < 120.0) return StrFormat("%.2f s", seconds);
  return StrFormat("%.1f min", seconds / 60.0);
}

std::string CsvEscape(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonQuote(const std::string& s) {
  return "\"" + JsonEscape(s) + "\"";
}

std::string JsonNumber(double v, int significant_digits) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.*g", significant_digits, v);
}

std::string JsonFixed(double v, int decimals) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.*f", decimals, v);
}

std::string JsonSanitizeNonFinite(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  bool in_string = false;
  size_t i = 0;
  auto matches = [&](size_t pos, const char* word) {
    const size_t n = std::strlen(word);
    if (json.compare(pos, n, word) != 0) return size_t{0};
    return n;
  };
  while (i < json.size()) {
    const char c = json[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < json.size()) {
        out += json[i + 1];
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      ++i;
      continue;
    }
    if (c == '"') {
      in_string = true;
      out += c;
      ++i;
      continue;
    }
    // A non-finite printf rendering can only start at a sign or at the
    // token itself; "-nan" / "-inf" must swallow the sign too (a bare
    // `-null` would still be invalid JSON).
    size_t p = i;
    if (c == '-' || c == '+') ++p;
    size_t n = matches(p, "nan");
    if (n == 0) n = matches(p, "inf");
    if (n != 0) {
      p += n;
      if (json.compare(p, 5, "inity") == 0) p += 5;  // "infinity"
      if (p < json.size() && json[p] == '(') {       // "nan(0x...)" payloads
        const size_t close = json.find(')', p);
        if (close != std::string::npos) p = close + 1;
      }
      out += "null";
      i = p;
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

}  // namespace malleus
