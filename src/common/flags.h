// Command-line flags for every binary. A binary declares each flag once
// (name, value placeholder, help, destination, accepted range) and Parse()
// reads argv against those declarations: --help / -h prints a usage text
// built from them, and a missing value, an unknown or repeated flag, a
// stray argument or a value out of range is an error that names the flag,
// the value and what the flag accepts. Numbers are decimal digits over the
// whole token: no sign, no space, and no wrap at the destination's width
// or after unit scaling.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace reo {

/// `text` as a decimal integer in [min, max]: ASCII digits only over the
/// whole token and no overflow; nullopt for anything else, "" included.
std::optional<uint64_t> ParseUint(std::string_view text, uint64_t min = 0,
                                  uint64_t max = UINT64_MAX);

/// An integer flag's accepted values, inclusive, in the flag's own unit.
/// The destination receives value * `unit` (kKiB, kMiB), so `max` is also
/// capped where that product would not fit the destination.
struct UintRange {
  uint64_t min = 0;
  uint64_t max = UINT64_MAX;
  uint64_t unit = 1;
};

class FlagSet {
 public:
  /// Takes a value, or returns why not, worded to follow the flag name
  /// ("wants on|off, got 'x'"). An empty string accepts the value.
  using Parser = std::function<std::string(std::string_view value)>;

  /// A flag that takes the next token as its value. Only a `repeatable`
  /// flag may appear more than once; each occurrence calls `parse`.
  void Value(std::string_view name, std::string_view placeholder,
             std::string_view help, Parser parse, bool repeatable = false);
  /// A flag without a value; its presence stores `set_to` in *out.
  void Switch(std::string_view name, std::string_view help, bool* out,
              bool set_to = true);
  void String(std::string_view name, std::string_view placeholder,
              std::string_view help, std::string* out);
  /// Repeatable: each occurrence appends its value.
  void Strings(std::string_view name, std::string_view placeholder,
               std::string_view help, std::vector<std::string>* out);
  /// A finite number in [min, max].
  void Real(std::string_view name, std::string_view placeholder,
            std::string_view help, double* out, double min, double max);

  /// A decimal integer in `range`, stored times its unit.
  template <std::integral T>
  void Uint(std::string_view name, std::string_view placeholder,
            std::string_view help, T* out, UintRange range = {}) {
    range.max = std::min<uint64_t>(
        range.max, std::numeric_limits<T>::max() / range.unit);
    REO_CHECK(range.min <= range.max);
    Value(name, placeholder, help, [out, range](std::string_view v) {
      std::optional<uint64_t> n = ParseUint(v, range.min, range.max);
      if (!n) return WantsUint(range, v);
      *out = static_cast<T>(*n * range.unit);
      return std::string();
    });
  }

  /// One of the names `placeholder` lists ("on|off"); `parse(name, out)`
  /// stores the one given in *out and returns false for any other.
  template <typename T, typename ParseName>
  void Choice(std::string_view name, std::string_view placeholder,
              std::string_view help, T* out, ParseName parse) {
    Value(name, placeholder, help,
          [out, parse, names = std::string(placeholder)](std::string_view v) {
            return parse(v, out) ? std::string() : Wants(names, v);
          });
  }

  /// The one positional argument.
  void Positional(std::string_view placeholder, std::string_view help,
                  Parser parse, bool required);

  /// Parses argv[1..argc) left to right; the first error comes back as
  /// kInvalidArgument. --help / -h stops with help_requested() set.
  Status Parse(int argc, const char* const* argv);
  bool help_requested() const { return help_; }
  /// Whether the command line named `name`, a declared flag.
  bool Given(std::string_view name);
  /// "usage: PROGRAM [options] ..." and each flag with its help.
  std::string Usage(std::string_view program) const;
  /// Parse() for a main(): exits 0 after printing Usage() for --help, and
  /// 2 after printing "PROGRAM: <error>" to stderr.
  void ParseOrExit(int argc, const char* const* argv);

  /// "wants <accepted>, got '<value>'": every parser's rejection.
  static std::string Wants(std::string_view accepted, std::string_view value);

 private:
  struct Flag {
    std::string name;
    std::string placeholder;  ///< empty for a switch: it takes no value
    std::string help;
    Parser parse;
    bool repeatable = false;
    bool required = false;  ///< the positional only
    bool seen = false;
  };

  static std::string WantsUint(const UintRange& r, std::string_view value);
  Flag* Find(std::string_view name);
  void Add(Flag flag);

  std::vector<Flag> flags_;
  std::optional<Flag> positional_;
  bool help_ = false;
};

}  // namespace reo
