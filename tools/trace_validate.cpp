// trace_validate: checks that a Chrome trace-event JSON file (as written
// by reo_cli --trace-out or the figure benches) is well-formed and
// actually contains spans. Used by the trace smoke scenario
// (tools/smoke.sh); exits non-zero with a parse location on any problem.
// The check builds no DOM, so a trace of any size needs no memory beyond
// its own text.
//
//   trace_validate run.json [--min-spans N] [--min-events N]
#include <cstdio>
#include <string>

#include "common/file_util.h"
#include "common/flags.h"
#include "telemetry/json_scan.h"

using namespace reo;

int main(int argc, char** argv) {
  std::string file;
  uint64_t min_spans = 1;
  uint64_t min_events = 0;
  FlagSet flags;
  flags.Positional("FILE", "the Chrome trace-event JSON to check",
                   [&file](std::string_view v) {
                     file = v;
                     return std::string();
                   },
                   /*required=*/true);
  flags.Uint("--min-spans", "N", "fail below N spans (default 1)", &min_spans);
  flags.Uint("--min-events", "N", "fail below N instant events (default 0)",
             &min_events);
  flags.ParseOrExit(argc, argv);
  const char* path = file.c_str();

  auto contents = ReadFileToString(path);
  if (!contents.ok()) {
    std::fprintf(stderr, "%s: %s\n", path, contents.status().to_string().c_str());
    return 1;
  }
  // Chrome trace-event phases: X = span, i = instant, M = track metadata.
  unsigned long long spans = 0, instants = 0, metadata = 0;
  JsonDoc::Error error;
  bool ok = JsonDoc::Check(
      *contents, &error, [&](std::string_view key, std::string_view value) {
        if (key != "ph") return;
        if (value == "X") ++spans;
        else if (value == "i") ++instants;
        else if (value == "M") ++metadata;
      });
  if (!ok) {
    std::fprintf(stderr, "%s: invalid JSON at byte %zu: %s\n", path,
                 error.offset, error.reason.c_str());
    return 1;
  }
  if (spans < min_spans) {
    std::fprintf(stderr, "%s: only %llu spans (need >= %llu)\n", path, spans,
                 static_cast<unsigned long long>(min_spans));
    return 1;
  }
  if (instants < min_events) {
    std::fprintf(stderr, "%s: only %llu instant events (need >= %llu)\n", path,
                 instants, static_cast<unsigned long long>(min_events));
    return 1;
  }
  std::printf("%s: ok — %llu spans, %llu instants, %llu track metadata\n", path,
              spans, instants, metadata);
  return 0;
}
