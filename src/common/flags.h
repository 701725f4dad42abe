// Declarative command-line flags for the repository's binaries.
//
// Each binary lists its flags once, in a FlagTable of typed definitions:
// the gflags DEFINE_<type> / DEFINE_validator idiom, scoped to one table
// instead of process globals. The table parses argv, applies each flag in
// argv order (so a flag that loads a file applies before later overrides)
// and renders the usage text from the same definitions.
//
//   FlagTable flags("malleus_fuzz");
//   flags.Define("seed", &seed, "N", "base seed");
//   flags.Define("runs", &runs, "N", "scenarios to fuzz", InRange(1, 1000));
//   flags.DefineSwitch("dynamic", &dynamic, "attach a dynamic block");
//   if (!flags.ParseOrUsage(argc, argv)) return 2;
//
// Syntax: --name=VALUE, or a bare --name for switches and optional-value
// flags. Values are parsed from the whole string ("12abc" is not an
// integer) and must fit the target type. --help and -h request the usage
// text. Any other argument that starts with '-' is an unknown flag; the
// rest are positional.

#ifndef MALLEUS_COMMON_FLAGS_H_
#define MALLEUS_COMMON_FLAGS_H_

#include <charconv>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace malleus {

/// Accepts or rejects a parsed flag value.
template <typename T>
using FlagValidator = std::function<bool(const T&)>;

/// Parses the whole of `text` as a T: a std::string or an integer type.
/// InvalidArgument, with the reason, when it is not one or does not fit.
template <typename T>
Status ParseFlagValue(const std::string& text, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = text;
  } else {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    if (ec == std::errc::result_out_of_range) {
      return Status::InvalidArgument("out of range");
    }
    if (ec != std::errc() || ptr != end) {
      return Status::InvalidArgument(std::is_signed_v<T>
                                         ? "not an integer"
                                         : "not an unsigned integer");
    }
  }
  return Status::OK();
}

/// Accepts values in [lo, hi].
template <typename T>
FlagValidator<T> InRange(T lo, T hi) {
  return [lo, hi](const T& v) { return lo <= v && v <= hi; };
}

/// Accepts exactly one of `choices`.
FlagValidator<std::string> OneOf(std::vector<std::string> choices);

class FlagTable {
 public:
  explicit FlagTable(std::string program) : program_(std::move(program)) {}

  /// --name=VALUE: VALUE parsed as a whole T, checked by `valid`, stored
  /// in *out. `value_name` names VALUE in the usage text, and in the error
  /// when `valid` rejects it.
  template <typename T>
  void Define(std::string name, T* out, std::string value_name,
              std::string help,
              std::type_identity_t<FlagValidator<T>> valid = nullptr) {
    Add(std::move(name), std::move(value_name), std::move(help),
        Form::kValue,
        [out, valid = std::move(valid)](const std::string* text) {
          T value{};
          MALLEUS_RETURN_NOT_OK(ParseFlagValue(*text, &value));
          if (valid && !valid(value)) return Status::InvalidArgument("");
          *out = std::move(value);
          return Status::OK();
        });
  }

  /// --name: sets *out to true.
  void DefineSwitch(std::string name, bool* out, std::string help);

  /// --name stores `implicit` in *out; --name=VALUE stores VALUE once
  /// `valid` accepts it.
  void DefineOptional(std::string name, std::string* out,
                      std::string implicit, std::string value_name,
                      std::string help,
                      FlagValidator<std::string> valid = nullptr);

  /// --name=VALUE handed to `apply`; a non-OK status rejects the value and
  /// its message says why.
  void DefineCallback(std::string name, std::string value_name,
                      std::string help,
                      std::function<Status(const std::string&)> apply);

  /// The next positional argument, stored in *out.
  void DefinePositional(std::string name, std::string* out, bool required);

  /// Every remaining positional argument, appended to *out.
  void DefinePositionals(std::string name, std::vector<std::string>* out);

  /// Applies argv[1..argc) in order. InvalidArgument, naming the argument,
  /// on an unknown flag, a malformed or rejected value, or a missing or
  /// surplus positional. Stops early, with OK, at --help or -h.
  Status Parse(int argc, const char* const* argv);

  /// True when the last Parse stopped at --help or -h.
  bool help_requested() const { return help_requested_; }

  /// "usage: PROGRAM [flags] POSITIONALS" plus one line per flag.
  std::string Usage() const;

  /// Parse; when it fails or --help is given, prints the error (if any)
  /// and Usage() to stderr and returns false, and the binary exits 2.
  bool ParseOrUsage(int argc, const char* const* argv);

 private:
  enum class Form { kSwitch, kValue, kOptional };
  struct Flag {
    std::string name;
    std::string value_name;
    std::string help;
    Form form;
    /// Takes the text after '=', or null for a bare --name.
    std::function<Status(const std::string*)> apply;
  };
  struct Positional {
    std::string name;
    std::string* one = nullptr;
    std::vector<std::string>* rest = nullptr;
    bool required = false;
  };

  void Add(std::string name, std::string value_name, std::string help,
           Form form, std::function<Status(const std::string*)> apply);
  Status ApplyFlag(const std::string& arg);

  std::string program_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
  bool help_requested_ = false;
};

}  // namespace malleus

#endif  // MALLEUS_COMMON_FLAGS_H_
