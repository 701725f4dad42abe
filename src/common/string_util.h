// String formatting and parsing helpers shared across modules.

#ifndef MALLEUS_COMMON_STRING_UTIL_H_
#define MALLEUS_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"

namespace malleus {

/// Parses the whole of `text` as a T: a std::string (taken verbatim), an
/// integer type or a double. Numbers are read locale-free with
/// std::from_chars, so no leading whitespace, '+' or trailing junk is
/// accepted; the value must fit T, and a double must be finite. On any
/// failure *out is left untouched and the InvalidArgument says why.
template <typename T>
Status ParseValue(std::string_view text, T* out) {
  static_assert(std::is_same_v<T, std::string> || std::is_same_v<T, double> ||
                    (std::is_integral_v<T> && !std::is_same_v<T, bool>),
                "ParseValue reads std::string, integers and double");
  if constexpr (std::is_same_v<T, std::string>) {
    *out = std::string(text);
  } else {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range) {
      return Status::InvalidArgument("out of range");
    }
    if (ec != std::errc() || ptr != end) {
      return Status::InvalidArgument(std::is_same_v<T, double> ? "not a number"
                                     : std::is_signed_v<T>
                                         ? "not an integer"
                                         : "not an unsigned integer");
    }
    if constexpr (std::is_same_v<T, double>) {
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("not a finite number");
      }
    }
    *out = value;
  }
  return Status::OK();
}

/// The whitespace-separated words of `s`, in order.
std::vector<std::string> SplitWords(std::string_view s);

/// "key=value" words, in their written order.
struct KeyValues {
  std::vector<std::pair<std::string, std::string>> pairs;

  /// The value of `key`, or null when it was not given.
  const std::string* Find(const std::string& key) const;
};

/// Splits each word at its first '='. InvalidArgument on a word without
/// '=' or with an empty key, and on a key given twice.
Result<KeyValues> ParseKeyValues(std::span<const std::string> words);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins elements with a separator, e.g. Join({"a","b"}, ",") == "a,b".
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Renders a double with `digits` decimals, trimming trailing zeros off
/// integers ("2" not "2.00" when digits allows).
std::string FormatDouble(double v, int digits = 2);

/// Human-readable byte count, e.g. "1.50 GiB".
std::string FormatBytes(uint64_t bytes);

/// Human-readable duration from seconds, e.g. "1.25 s" or "320 ms".
std::string FormatSeconds(double seconds);

/// RFC 4180 CSV field: quoted (with embedded quotes doubled) iff the field
/// contains a comma, quote, CR or LF; returned verbatim otherwise.
std::string CsvEscape(const std::string& field);

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes and control characters); adds no surrounding quotes.
std::string JsonEscape(const std::string& s);

/// JsonEscape(s) inside double quotes: a complete JSON string literal.
std::string JsonQuote(const std::string& s);

/// Renders a double as a JSON number. JSON has no NaN/Infinity, so
/// non-finite values render as `null` (the conventional lossless-ish
/// substitute) instead of producing invalid output like `inf`.
std::string JsonNumber(double v, int significant_digits = 9);

/// Renders a double as a JSON number with a fixed number of decimals
/// ("%.*f"), for fields whose textual width must not depend on magnitude
/// (e.g. trace timestamps). Non-finite values render as `null`, like
/// JsonNumber.
std::string JsonFixed(double v, int decimals);

/// \brief The one compact JSON writer. It places every comma and colon,
/// escapes strings as JsonQuote does, renders integers exactly and every
/// double by the JsonNumber (significant digits) or JsonFixed (decimals)
/// rule, so a non-finite value always becomes `null`. No whitespace is
/// written and there are no options:
///
///   JsonWriter w;
///   w.BeginObject().Key("gpus").Int(8).Key("rates").BeginArray();
///   for (double rate : rates) w.Number(rate);
///   w.EndArray().EndObject();  // {"gpus":8,"rates":[1.5,null]}
///
/// The caller keeps the nesting balanced and gives every object member a
/// Key before its value.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  /// The next object member's key; the next call writes its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view s);
  JsonWriter& Bool(bool b) { return Raw(b ? "true" : "false"); }
  JsonWriter& Int(int64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Uint(uint64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Number(double v, int significant_digits = 9) {
    return Raw(JsonNumber(v, significant_digits));
  }
  JsonWriter& Fixed(double v, int decimals) {
    return Raw(JsonFixed(v, decimals));
  }
  /// A value another JsonWriter already rendered, copied verbatim.
  JsonWriter& Raw(std::string_view json);

  /// The document so far.
  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);

  std::string out_;
  bool need_comma_ = false;  // The next value or key follows a sibling.
};

}  // namespace malleus

#endif  // MALLEUS_COMMON_STRING_UTIL_H_
