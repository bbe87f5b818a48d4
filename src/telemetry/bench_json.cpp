#include "telemetry/bench_json.h"

#include <cstdio>
#include <cmath>

#include "common/file_util.h"
#include "telemetry/json_util.h"

namespace reo {
namespace {

std::string Num(double v) {
  // JSON has no NaN/Inf; clamp to 0 rather than emit an unparsable token.
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string BenchServeToJson(const BenchServeReport& r) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"";
  out += kBenchServeSchema;
  out += "\",\n";
  out += "  \"bench\": ";
  AppendJsonString(out, r.bench);
  out += ",\n  \"workload\": ";
  AppendJsonString(out, r.workload);
  out += ",\n";
  out += "  \"ops\": " + std::to_string(r.ops) + ",\n";
  out += "  \"wall_seconds\": " + Num(r.wall_seconds) + ",\n";
  out += "  \"cpu_seconds\": " + Num(r.cpu_seconds) + ",\n";
  out += "  \"throughput_ops_per_sec\": " + Num(r.throughput_ops_per_sec) +
         ",\n";
  out += "  \"latency_us\": {\"p50\": " + Num(r.p50_us) +
         ", \"p99\": " + Num(r.p99_us) + ", \"p999\": " + Num(r.p999_us) +
         "},\n";
  out += "  \"bytes_per_op\": " + Num(r.bytes_per_op) + ",\n";
  out += "  \"allocs_per_op\": " + Num(r.allocs_per_op) + "\n";
  out += "}\n";
  return out;
}

Status WriteBenchServeJson(const std::string& path,
                           const BenchServeReport& report) {
  return WriteFileAtomic(path, BenchServeToJson(report));
}

}  // namespace reo
