// trace_validate: checks that a Chrome trace-event JSON file (as written
// by reo_cli --trace-out or the figure benches) is well-formed and
// actually contains spans. Used by the trace smoke scenario
// (tools/smoke.sh); exits non-zero with a parse location on any problem.
// The check builds no DOM, so a trace of any size needs no memory beyond
// its own text.
//
//   trace_validate run.json [--min-spans N] [--min-events N]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/file_util.h"
#include "telemetry/json_scan.h"

using namespace reo;

int main(int argc, char** argv) {
  const char* path = nullptr;
  uint64_t min_spans = 1;
  uint64_t min_events = 0;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--min-spans")) {
      min_spans = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--min-events")) {
      min_events = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      std::printf("usage: %s FILE [--min-spans N] [--min-events N]\n", argv[0]);
      return 0;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s FILE [--min-spans N] [--min-events N]\n",
                 argv[0]);
    return 2;
  }

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
