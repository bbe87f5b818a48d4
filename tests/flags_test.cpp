// Command-line parser tests: the number grammar (digits only, whole token,
// no overflow at the destination's width or after unit scaling), inclusive
// bounds, missing values, unknown and repeated flags, repeatable flags,
// the positional argument, and a usage text that lists every flag.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/flags.h"
#include "common/units.h"

namespace reo {
namespace {

bool ParseOnOff(std::string_view v, bool* on) {
  *on = v == "on";
  return v == "on" || v == "off";
}

/// One flag of each kind the binaries declare, and where each one lands.
struct CommandLine {
  size_t devices = 5;
  uint32_t node_id = 7;
  uint16_t port = 9;
  uint64_t capacity = 0;
  double ratio = -1.0;
  std::string dir, file;
  bool warmup = false, telemetry = true;
  std::vector<std::string> expect_zero, fails;
  FlagSet flags;

  CommandLine() {
    flags.Positional(
        "FILE", "input file",
        [this](std::string_view v) {
          if (v == "bad") return FlagSet::Wants("a FILE", v);
          file = v;
          return std::string();
        },
        /*required=*/true);
    flags.Uint("--devices", "N", "flash devices", &devices,
               {.min = 1, .max = 255});
    flags.Uint("--node-id", "N", "node identity", &node_id);
    flags.Uint("--port", "N", "listen port", &port);
    flags.Uint("--capacity-mb", "N", "budget in MiB", &capacity,
               {.unit = kMiB});
    flags.Real("--write-ratio", "F", "write fraction", &ratio, 0.0, 1.0);
    flags.String("--data-dir", "PATH", "durable state\nunder PATH", &dir);
    flags.Switch("--warmup", "warm up first", &warmup);
    flags.Choice("--telemetry", "on|off", "metrics", &telemetry, ParseOnOff);
    flags.Strings("--expect-zero", "PATH", "assert zero", &expect_zero);
    flags.Value(
        "--fail", "REQ:DEV", "inject a failure",
        [this](std::string_view v) {
          if (v.find(':') == std::string_view::npos) {
            return FlagSet::Wants("REQ:DEV", v);
          }
          fails.emplace_back(v);
          return std::string();
        },
        /*repeatable=*/true);
  }

  CommandLine(const CommandLine&) = delete;  // the parsers hold `this`
  CommandLine& operator=(const CommandLine&) = delete;

  /// "" when `args` (argv without the program) parse, else the error.
  std::string Parse(std::vector<std::string> args) {
    std::vector<const char*> argv{"prog"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    Status st = flags.Parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(st.code(),
              st.ok() ? ErrorCode::kOk : ErrorCode::kInvalidArgument);
    return st.message();
  }
};

TEST(FlagSetTest, RejectionsNameTheFlagTheValueAndTheRange) {
  std::vector<std::pair<std::vector<std::string>, std::string>> cases;
  for (const char* bad : {"abc", "-1", "+1", "12x", "", " 1", "0", "256"}) {
    cases.push_back({{"f", "--devices", bad},
                     "--devices wants an integer in 1..255, got '" +
                         std::string(bad) + "'"});
  }
  for (const char* bad : {"2", "-0.5", "+0.5", "nan", "inf", "0.5x", ""}) {
    cases.push_back({{"f", "--write-ratio", bad},
                     "--write-ratio wants a number in [0, 1], got '" +
                         std::string(bad) + "'"});
  }
  cases.insert(
      cases.end(),
      {{{"f", "--node-id", "4294967296"},
        "--node-id wants an integer in 0..4294967295, got '4294967296'"},
       {{"f", "--port", "65536"},
        "--port wants an integer in 0..65535, got '65536'"},
       {{"f", "--capacity-mb", "17592186044416"},
        "--capacity-mb wants an integer in 0..17592186044415,"
        " got '17592186044416'"},
       {{"f", "--data-dir"}, "--data-dir needs a value (PATH)"},
       {{"f", "--data-dri", "x"}, "unknown flag --data-dri"},
       {{"f", "--warmup", "--warmup"}, "--warmup given more than once"},
       {{"f", "--port", "1", "--port", "2"}, "--port given more than once"},
       {{"f", "--telemetry", "maybe"},
        "--telemetry wants on|off, got 'maybe'"},
       {{"f", "--fail", "10:0", "--fail", "10"},
        "--fail wants REQ:DEV, got '10'"},
       {{"f", "g"}, "unexpected argument 'g'"},
       {{"bad"}, "argument wants a FILE, got 'bad'"},
       {{"--warmup"}, "missing FILE"}});
  for (const auto& [args, error] : cases) {
    CommandLine cl;
    EXPECT_EQ(cl.Parse(args), error) << args.back();
    EXPECT_EQ(cl.devices, 5u);
  }
}

TEST(FlagSetTest, AcceptsInclusiveBoundsAndRepeatableFlags) {
  CommandLine cl;
  EXPECT_EQ(cl.Parse({"--devices", "255", "--node-id", "4294967295", "--port",
                      "65535", "--capacity-mb", "17592186044415",
                      "--write-ratio", "1", "--fail", "10:0", "--expect-zero",
                      "a", "run.json", "--fail", "20:1", "--expect-zero", "b",
                      "--telemetry", "off", "--data-dir", "--warmup"}),
            "");
  EXPECT_EQ(cl.devices, 255u);
  EXPECT_EQ(cl.node_id, UINT32_MAX);
  EXPECT_EQ(cl.port, UINT16_MAX);
  EXPECT_EQ(cl.capacity, (UINT64_MAX >> 20) << 20);
  EXPECT_DOUBLE_EQ(cl.ratio, 1.0);
  EXPECT_EQ(cl.fails, (std::vector<std::string>{"10:0", "20:1"}));
  EXPECT_EQ(cl.expect_zero, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(cl.file, "run.json");
  EXPECT_FALSE(cl.telemetry);
  // A flag's value is the next token, whatever it looks like.
  EXPECT_EQ(cl.dir, "--warmup");
  EXPECT_FALSE(cl.warmup);
  EXPECT_FALSE(cl.flags.Given("--warmup"));
  EXPECT_TRUE(cl.flags.Given("--data-dir"));

  CommandLine low;
  EXPECT_EQ(low.Parse({"x", "--devices", "1", "--write-ratio", "0"}), "");
  EXPECT_EQ(low.devices, 1u);
  EXPECT_DOUBLE_EQ(low.ratio, 0.0);
}

TEST(FlagSetTest, HelpListsEveryDeclaredFlag) {
  CommandLine cl;
  // --help wins over whatever follows it, errors included.
  EXPECT_EQ(cl.Parse({"--help", "--bogus"}), "");
  EXPECT_TRUE(cl.flags.help_requested());
  CommandLine h;
  EXPECT_EQ(h.Parse({"-h"}), "");
  EXPECT_TRUE(h.flags.help_requested());

  std::string usage = cl.flags.Usage("prog");
  EXPECT_EQ(usage.rfind("usage: prog [options] FILE\n", 0), 0u) << usage;
  for (const char* text :
       {"  FILE ", "input file", "  --devices N ", "flash devices",
        "  --node-id N ", "  --port N ", "  --capacity-mb N ",
        "  --write-ratio F ", "  --data-dir PATH ", "durable state",
        "\n                        under PATH", "  --warmup ", "warm up first",
        "  --telemetry on|off ", "  --expect-zero PATH ", "assert zero",
        "  --fail REQ:DEV ", "inject a failure", "  --help, -h "}) {
    EXPECT_NE(usage.find(text), std::string::npos) << text << "\n" << usage;
  }
}

}  // namespace
}  // namespace reo
