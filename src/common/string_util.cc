#include "common/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace malleus {

std::vector<std::string> SplitWords(std::string_view s) {
  std::vector<std::string> words;
  size_t pos = 0;
  while (pos < s.size()) {
    if (std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
      continue;
    }
    size_t end = pos;
    while (end < s.size() &&
           !std::isspace(static_cast<unsigned char>(s[end]))) {
      ++end;
    }
    words.emplace_back(s.substr(pos, end - pos));
    pos = end;
  }
  return words;
}

const std::string* KeyValues::Find(const std::string& key) const {
  for (const auto& [k, v] : pairs) {
    if (k == key) return &v;
  }
  return nullptr;
}

Result<KeyValues> ParseKeyValues(std::span<const std::string> words) {
  KeyValues out;
  for (const std::string& word : words) {
    const size_t eq = word.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected key=value, got '" + word +
                                     "'");
    }
    std::string key = word.substr(0, eq);
    if (out.Find(key) != nullptr) {
      return Status::InvalidArgument("duplicate key '" + key + "'");
    }
    out.pairs.emplace_back(std::move(key), word.substr(eq + 1));
  }
  return out;
}

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

namespace {

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(s, &out);
  return out;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  AppendJsonEscaped(s, &out);
  out += '"';
  return out;
}

std::string JsonNumber(double v, int significant_digits) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.*g", significant_digits, v);
}

std::string JsonFixed(double v, int decimals) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.*f", decimals, v);
}

JsonWriter& JsonWriter::Open(char bracket) {
  Raw(std::string_view(&bracket, 1));
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Raw("\"");
  AppendJsonEscaped(s, &out_);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  if (need_comma_) out_ += ',';
  out_ += json;
  need_comma_ = true;
  return *this;
}

}  // namespace malleus
