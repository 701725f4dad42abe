// String formatting helpers shared across modules.

#ifndef MALLEUS_COMMON_STRING_UTIL_H_
#define MALLEUS_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace malleus {

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

/// Repairs a JSON document whose numeric fields were printf-formatted
/// without a finiteness check: every bare `nan`/`inf` token (with optional
/// sign, and `nan(...)` payloads) outside string literals is replaced with
/// `null`. Content inside strings is left untouched.
std::string JsonSanitizeNonFinite(const std::string& json);

}  // namespace malleus

#endif  // MALLEUS_COMMON_STRING_UTIL_H_
