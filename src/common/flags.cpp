#include "common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace reo {

std::optional<uint64_t> ParseUint(std::string_view text, uint64_t min,
                                  uint64_t max) {
  const char* end = text.data() + text.size();
  uint64_t v = 0;
  // Unsigned from_chars takes no sign or space and fails on overflow.
  auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end || v < min || v > max) {
    return std::nullopt;
  }
  return v;
}

std::string FlagSet::Wants(std::string_view accepted, std::string_view value) {
  return "wants " + std::string(accepted) + ", got '" + std::string(value) +
         "'";
}

std::string FlagSet::WantsUint(const UintRange& r, std::string_view value) {
  return Wants("an integer in " + std::to_string(r.min) + ".." +
                   std::to_string(r.max),
               value);
}

FlagSet::Flag* FlagSet::Find(std::string_view name) {
  for (Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

void FlagSet::Add(Flag flag) {
  REO_CHECK(flag.name.starts_with("--") && Find(flag.name) == nullptr);
  flags_.push_back(std::move(flag));
}

void FlagSet::Value(std::string_view name, std::string_view placeholder,
                    std::string_view help, Parser parse, bool repeatable) {
  REO_CHECK(!placeholder.empty());
  Add({.name = std::string(name),
       .placeholder = std::string(placeholder),
       .help = std::string(help),
       .parse = std::move(parse),
       .repeatable = repeatable});
}

void FlagSet::Switch(std::string_view name, std::string_view help, bool* out,
                     bool set_to) {
  Add({.name = std::string(name),
       .help = std::string(help),
       .parse = [out, set_to](std::string_view) {
         *out = set_to;
         return std::string();
       }});
}

void FlagSet::String(std::string_view name, std::string_view placeholder,
                     std::string_view help, std::string* out) {
  Value(name, placeholder, help, [out](std::string_view v) {
    *out = v;
    return std::string();
  });
}

void FlagSet::Strings(std::string_view name, std::string_view placeholder,
                      std::string_view help, std::vector<std::string>* out) {
  auto append = [out](std::string_view v) {
    out->emplace_back(v);
    return std::string();
  };
  Value(name, placeholder, help, append, /*repeatable=*/true);
}

void FlagSet::Real(std::string_view name, std::string_view placeholder,
                   std::string_view help, double* out, double min,
                   double max) {
  char range[80];
  if (max == std::numeric_limits<double>::max()) {
    std::snprintf(range, sizeof(range), "a number >= %g", min);
  } else {
    std::snprintf(range, sizeof(range), "a number in [%g, %g]", min, max);
  }
  Value(name, placeholder, help,
        [out, min, max, range = std::string(range)](std::string_view v) {
          const char* end = v.data() + v.size();
          double d = 0;
          auto [stop, ec] = std::from_chars(v.data(), end, d);
          // The range test also rejects NaN.
          if (ec != std::errc{} || stop != end || !std::isfinite(d) ||
              !(d >= min && d <= max)) {
            return Wants(range, v);
          }
          *out = d;
          return std::string();
        });
}

void FlagSet::Positional(std::string_view placeholder, std::string_view help,
                         Parser parse, bool required) {
  REO_CHECK(!positional_);
  positional_ = Flag{.placeholder = std::string(placeholder),
                     .help = std::string(help),
                     .parse = std::move(parse),
                     .required = required};
}

Status FlagSet::Parse(int argc, const char* const* argv) {
  auto error = [](std::string message) {
    return Status(ErrorCode::kInvalidArgument, std::move(message));
  };
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      return Status::Ok();
    }
    if (arg.size() < 2 || arg[0] != '-') {
      if (!positional_ || positional_->seen) {
        return error("unexpected argument '" + std::string(arg) + "'");
      }
      positional_->seen = true;
      std::string why = positional_->parse(arg);
      if (!why.empty()) return error("argument " + why);
      continue;
    }
    Flag* flag = Find(arg);
    if (flag == nullptr) return error("unknown flag " + std::string(arg));
    if (flag->seen && !flag->repeatable) {
      return error(flag->name + " given more than once");
    }
    flag->seen = true;
    std::string_view value;
    if (!flag->placeholder.empty()) {
      if (i + 1 == argc) {
        return error(flag->name + " needs a value (" + flag->placeholder + ")");
      }
      value = argv[++i];
    }
    std::string why = flag->parse(value);
    if (!why.empty()) return error(flag->name + " " + why);
  }
  if (positional_ && positional_->required && !positional_->seen) {
    return error("missing " + positional_->placeholder);
  }
  return Status::Ok();
}

bool FlagSet::Given(std::string_view name) {
  Flag* flag = Find(name);
  REO_CHECK(flag != nullptr);
  return flag->seen;
}

std::string FlagSet::Usage(std::string_view program) const {
  std::string out = "usage: " + std::string(program) + " [options]";
  if (positional_) {
    const std::string& p = positional_->placeholder;
    out += positional_->required ? " " + p : " [" + p + "]";
  }
  // Help starts in one column; a longer flag pushes it to the next line.
  constexpr size_t kColumn = 24;
  auto line = [&out](const std::string& left, std::string_view help) {
    out += "\n  " + left;
    size_t at = 2 + left.size();
    out += at < kColumn ? std::string(kColumn - at, ' ')
                        : "\n" + std::string(kColumn, ' ');
    for (char c : help) out += c == '\n' ? "\n" + std::string(kColumn, ' ')
                                         : std::string(1, c);
  };
  if (positional_) line(positional_->placeholder, positional_->help);
  for (const Flag& f : flags_) {
    line(f.placeholder.empty() ? f.name : f.name + " " + f.placeholder,
         f.help);
  }
  line("--help, -h", "print this text and exit");
  return out + "\n";
}

void FlagSet::ParseOrExit(int argc, const char* const* argv) {
  std::string_view program = argc > 0 ? argv[0] : "";
  program.remove_prefix(program.rfind('/') + 1);  // npos + 1 == 0
  Status st = Parse(argc, argv);
  if (help_) {
    std::fputs(Usage(program).c_str(), stdout);
    std::exit(0);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%.*s: %s (see --help)\n",
                 static_cast<int>(program.size()), program.data(),
                 st.message().c_str());
    std::exit(2);
  }
}

}  // namespace reo
