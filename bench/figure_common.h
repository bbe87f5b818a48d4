// Shared harness for the paper-figure benches (Figs 5-9, §VI).
//
// Each figure binary sweeps the paper's configurations and prints one
// table per metric panel (hit ratio / bandwidth / latency), with the same
// series the figure plots. Absolute values come from the device models;
// the *shapes* are the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "sim/cache_simulator.h"
#include "telemetry/bench_json.h"
#include "trace/chrome_trace.h"
#include "workload/medisyn.h"

namespace reo::bench {

/// One line of a figure: a named protection configuration.
struct Config {
  std::string label;
  ProtectionMode mode;
  double reserve = 0.0;
};

/// The six series of Figs 5-8.
inline std::vector<Config> PaperConfigs() {
  return {
      {"0-parity", ProtectionMode::kUniform0, 0.0},
      {"1-parity", ProtectionMode::kUniform1, 0.0},
      {"2-parity", ProtectionMode::kUniform2, 0.0},
      {"Reo-10%", ProtectionMode::kReo, 0.10},
      {"Reo-20%", ProtectionMode::kReo, 0.20},
      {"Reo-40%", ProtectionMode::kReo, 0.40},
  };
}

/// Data-plane scale shift for benches: 1:128 by default, overridable with
/// REO_SCALE_SHIFT (0 = full-size payloads; slower, more memory).
inline uint32_t BenchScaleShift() {
  const char* env = std::getenv("REO_SCALE_SHIFT");
  if (env == nullptr) return 7;
  std::optional<uint64_t> shift = ParseUint(env, 0, kMaxScaleShift);
  if (!shift) {
    std::string range = "an integer in 0.." + std::to_string(kMaxScaleShift);
    std::fprintf(stderr, "REO_SCALE_SHIFT %s\n",
                 FlagSet::Wants(range, env).c_str());
    std::exit(2);
  }
  return static_cast<uint32_t>(*shift);
}

/// Prints one run's end-of-run telemetry snapshot (per-class cache
/// counters, per-device flash counters, latency histograms, ...). JSON by
/// default; set REO_TELEMETRY_FORMAT=csv for the tabular form.
inline void PrintTelemetry(const std::string& label,
                           const MetricSnapshot& snapshot) {
  const char* fmt = std::getenv("REO_TELEMETRY_FORMAT");
  bool csv = fmt != nullptr && std::strcmp(fmt, "csv") == 0;
  std::printf("\n(telemetry: %s)\n%s\n", label.c_str(),
              csv ? snapshot.ToCsv().c_str() : snapshot.ToJson().c_str());
}

/// Optional request tracing of one representative run, switched on from a
/// figure bench's command line:
///   fig8_failure --trace-out fig8.json --events-out fig8.events [--trace-sample N]
struct TraceArgs {
  std::string trace_out;
  std::string events_out;
  uint64_t sample_every = 1;
  bool enabled() const { return !trace_out.empty() || !events_out.empty(); }
};

inline TraceArgs ParseTraceArgs(int argc, char** argv) {
  TraceArgs args;
  FlagSet flags;
  flags.String("--trace-out", "PATH",
               "write a Chrome/Perfetto trace JSON of one run",
               &args.trace_out);
  flags.String("--events-out", "PATH",
               "write that run's event log + recovery timeline",
               &args.events_out);
  flags.Uint("--trace-sample", "N", "trace 1 in N requests (default 1)",
             &args.sample_every, {.min = 1});
  flags.ParseOrExit(argc, argv);
  return args;
}

/// user+system CPU seconds this process has used.
inline double CpuSeconds() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// What a simulator bench's --bench-out writes: one run's BENCH_serve.json
/// report (bench_json.h), the same schema as reo_loadgen's, so
/// bench_validate lints both. Wall time is simulated time. Exits 1 if the
/// write fails.
inline void WriteSimulatedReport(const std::string& path, const char* bench,
                                 const std::string& workload,
                                 const WindowMetrics& m, double cpu_seconds) {
  BenchServeReport report;
  report.bench = bench;
  report.workload = workload;
  report.ops = m.requests;
  report.wall_seconds = ToSec(m.end - m.start);
  report.cpu_seconds = cpu_seconds;
  report.throughput_ops_per_sec =
      report.wall_seconds > 0
          ? static_cast<double>(m.requests) / report.wall_seconds
          : 0.0;
  report.p50_us = m.latency_us.Percentile(0.50);
  report.p99_us = m.latency_us.Percentile(0.99);
  report.p999_us = m.latency_us.Percentile(0.999);
  report.bytes_per_op = m.requests > 0 ? static_cast<double>(m.bytes) /
                                             static_cast<double>(m.requests)
                                       : 0.0;
  report.allocs_per_op = -1.0;  // not measured in the simulator
  Status wf = WriteBenchServeJson(path, report);
  if (!wf.ok()) {
    std::fprintf(stderr, "bench report write failed: %s\n",
                 wf.to_string().c_str());
    std::exit(1);
  }
}

inline void ApplyTracing(SimulationConfig& sim, const TraceArgs& args) {
  if (!args.enabled()) return;
  sim.enable_tracing = true;
  sim.tracer.sample_every = args.sample_every;
}

/// Writes the traced run's exports (atomic; call before the simulator dies).
inline void ExportTrace(const CacheSimulator& sim, const TraceArgs& args) {
  if (!args.trace_out.empty()) {
    Status st = WriteFileAtomic(args.trace_out, ChromeTraceJson(sim.tracer()));
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.to_string().c_str());
      std::exit(1);
    }
    std::printf("chrome trace -> %s\n", args.trace_out.c_str());
  }
  if (!args.events_out.empty()) {
    std::string text = sim.tracer().events().ToText();
    text += "\n";
    text += TraceReportText(sim.tracer());
    Status st = WriteFileAtomic(args.events_out, text);
    if (!st.ok()) {
      std::fprintf(stderr, "events write failed: %s\n", st.to_string().c_str());
      std::exit(1);
    }
    std::printf("event log -> %s\n", args.events_out.c_str());
  }
}

inline SimulationConfig MakeSimConfig(const Config& cfg, double cache_fraction,
                                      uint64_t chunk_bytes = 64 * 1024) {
  SimulationConfig sim;
  sim.name = cfg.label;
  sim.policy = {.mode = cfg.mode, .reo_reserve_fraction = cfg.reserve};
  sim.cache_fraction = cache_fraction;
  sim.chunk_logical_bytes = chunk_bytes;
  sim.scale_shift = BenchScaleShift();
  return sim;
}

/// Runs the Figs 5-7 sweep (normal run; cache size 4-12 % of the dataset)
/// and prints the three panels.
inline void RunNormalFigure(const char* figure, const MediSynConfig& workload) {
  auto trace = GenerateMediSyn(workload);
  const std::vector<double> fractions{0.04, 0.06, 0.08, 0.10, 0.12};
  auto configs = PaperConfigs();

  std::printf("%s: %s-locality workload, %zu requests, dataset %.2f GB\n",
              figure, workload.name.c_str(), trace.requests.size(),
              static_cast<double>(trace.catalog.TotalBytes()) / 1e9);

  // results[c][f]
  std::vector<std::vector<RunReport>> results(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    for (double f : fractions) {
      CacheSimulator sim(trace, MakeSimConfig(configs[c], f));
      results[c].push_back(sim.Run());
    }
  }

  auto print_panel = [&](const char* title, auto value) {
    std::printf("\n(%s)\n%-12s", title, "CacheSize");
    for (double f : fractions) std::printf("%9.0f%%", f * 100);
    std::printf("\n");
    for (size_t c = 0; c < configs.size(); ++c) {
      std::printf("%-12s", configs[c].label.c_str());
      for (size_t i = 0; i < fractions.size(); ++i) {
        std::printf("%10.1f", value(results[c][i]));
      }
      std::printf("\n");
    }
  };
  print_panel("a: Hit Ratio (%)",
              [](const RunReport& r) { return r.total.HitRatio() * 100; });
  print_panel("b: Bandwidth (MB/sec)",
              [](const RunReport& r) { return r.total.BandwidthMBps(); });
  print_panel("c: Latency (ms)",
              [](const RunReport& r) { return r.total.AvgLatencyMs(); });

  std::printf("\n(space efficiency at run end)\n");
  for (size_t c = 0; c < configs.size(); ++c) {
    std::printf("%-12s", configs[c].label.c_str());
    for (size_t i = 0; i < fractions.size(); ++i) {
      std::printf("%9.1f%%", results[c][i].space.SpaceEfficiency() * 100);
    }
    std::printf("\n");
  }

  // One representative snapshot (Reo-20% at the 10% cache point).
  PrintTelemetry(configs[4].label + ", cache=10%", results[4][3].telemetry);
}

}  // namespace reo::bench
