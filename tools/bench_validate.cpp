// bench_validate: checks that a BENCH_serve.json report (as written by
// reo_loadgen --bench-out or openloop_latency --bench-out) is well-formed
// JSON, carries the expected schema tag, and has every required field with
// a sane value. Used by the bench smoke scenario (tools/smoke.sh). Exits
// non-zero with a message on any problem.
//
//   bench_validate BENCH_serve.json [--min-ops N] [--min-throughput F]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "common/file_util.h"
#include "telemetry/bench_json.h"
#include "telemetry/json_scan.h"

using namespace reo;

namespace {

/// The node at a dotted path ("latency_us.p50"); report keys hold no dots.
int AtPath(const JsonDoc& doc, std::string_view path) {
  int node = doc.root();
  while (node != JsonDoc::kInvalid) {
    size_t dot = path.find('.');
    node = doc.member(node, path.substr(0, dot));
    if (dot == std::string_view::npos) break;
    path.remove_prefix(dot + 1);
  }
  return node;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  double min_ops = 1;
  double min_throughput = 0.0;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--min-ops")) {
      min_ops = std::atof(next());
    } else if (!std::strcmp(argv[i], "--min-throughput")) {
      min_throughput = std::atof(next());
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      std::printf("usage: %s FILE [--min-ops N] [--min-throughput F]\n",
                  argv[0]);
      return 0;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s FILE [--min-ops N] [--min-throughput F]\n",
                 argv[0]);
    return 2;
  }

  auto contents = ReadFileToString(path);
  if (!contents.ok()) {
    std::fprintf(stderr, "%s: %s\n", path,
                 contents.status().to_string().c_str());
    return 1;
  }
  JsonDoc::Error error;
  auto doc = JsonDoc::Parse(*contents, &error);
  if (!doc) {
    std::fprintf(stderr, "%s: invalid JSON at byte %zu: %s\n", path,
                 error.offset, error.reason.c_str());
    return 1;
  }
  if (doc->str(AtPath(*doc, "schema")) != kBenchServeSchema) {
    std::fprintf(stderr, "%s: missing schema tag %s\n", path,
                 kBenchServeSchema);
    return 1;
  }
  for (const char* key : {"bench", "workload"}) {
    if (!doc->is(AtPath(*doc, key), JsonDoc::Type::kString)) {
      std::fprintf(stderr, "%s: missing string field \"%s\"\n", path, key);
      return 1;
    }
  }
  struct Field {
    const char* path;
    double min;  ///< inclusive lower bound for a sane report
  };
  const Field required[] = {
      {"ops", min_ops},
      {"wall_seconds", 0.0},
      {"cpu_seconds", 0.0},
      {"throughput_ops_per_sec", min_throughput},
      {"latency_us.p50", 0.0},
      {"latency_us.p99", 0.0},
      {"latency_us.p999", 0.0},
      {"bytes_per_op", 0.0},
      {"allocs_per_op", -1.0},  // -1 = legitimately unmeasured
  };
  for (const Field& f : required) {
    int node = AtPath(*doc, f.path);
    if (!doc->is(node, JsonDoc::Type::kNumber)) {
      std::fprintf(stderr, "%s: missing numeric field \"%s\"\n", path,
                   f.path);
      return 1;
    }
    double v = doc->number(node);
    if (v < f.min) {
      std::fprintf(stderr, "%s: field \"%s\" = %g below minimum %g\n", path,
                   f.path, v, f.min);
      return 1;
    }
  }
  double p50 = doc->number(AtPath(*doc, "latency_us.p50"));
  double p99 = doc->number(AtPath(*doc, "latency_us.p99"));
  if (p99 < p50) {
    std::fprintf(stderr, "%s: p99 (%g) < p50 (%g)\n", path, p99, p50);
    return 1;
  }
  std::printf("%s: valid %s report\n", path, kBenchServeSchema);
  return 0;
}
