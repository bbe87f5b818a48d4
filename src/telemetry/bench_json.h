// BENCH_serve.json: the machine-readable serving-benchmark report.
//
// One flat schema shared by tools/reo_loadgen (real sockets) and
// bench/openloop_latency (simulator), so CI and the checked-in baseline
// can diff runs field-by-field instead of scraping stdout:
//
//   {
//     "schema": "reo.bench_serve.v1",
//     "bench": "reo_loadgen",
//     "workload": "4conn x 3000req ...",
//     "ops": 12000,
//     "wall_seconds": 2.61,
//     "cpu_seconds": 1.94,
//     "throughput_ops_per_sec": 4597.7,
//     "latency_us": {"p50": 531.0, "p99": 3804.0, "p999": 5333.0},
//     "bytes_per_op": 43412.6,
//     "allocs_per_op": 102.4
//   }
//
// allocs_per_op is -1 when the producer cannot count allocations (the
// simulator benches); every other field is always present. Validation is
// tools/bench_validate, which reads it with JsonDoc (telemetry/json_scan.h).
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace reo {

inline constexpr const char* kBenchServeSchema = "reo.bench_serve.v1";

struct BenchServeReport {
  std::string bench;     ///< producing binary, e.g. "reo_loadgen"
  std::string workload;  ///< human-readable workload parameters
  uint64_t ops = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  ///< user+system of the producing process
  double throughput_ops_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double bytes_per_op = 0.0;
  double allocs_per_op = -1.0;  ///< -1 = not measured
};

/// Renders the report as the schema above (stable key order).
std::string BenchServeToJson(const BenchServeReport& report);

/// Atomically writes the report to `path`.
Status WriteBenchServeJson(const std::string& path,
                           const BenchServeReport& report);

}  // namespace reo
