// Figure 8: hit ratio, bandwidth, and latency during device failures and
// recovery (paper §VI.C).
//
// Medium workload, cache 10 % of the dataset, 1 MiB chunks, warm cache;
// four failures injected at requests 10,000 / 20,000 / 30,000 / 40,000.
// Each column is one failure phase (0-4 failed devices).
#include "figure_common.h"

using namespace reo;
using namespace reo::bench;

int main(int argc, char** argv) {
  TraceArgs targs = ParseTraceArgs(argc, argv);
  auto trace = GenerateMediSyn(MediumLocalityConfig());
  auto configs = PaperConfigs();

  std::printf("Fig 8: device failures at requests 10k/20k/30k/40k "
              "(medium workload, cache 10%%, 1 MiB chunks)\n");

  const std::vector<DeviceEvent> kFailures = {{.at_request = 10000, .device = 0},
                                              {.at_request = 20000, .device = 1},
                                              {.at_request = 30000, .device = 2},
                                              {.at_request = 40000, .device = 3}};

  // Main panels: live system (cache keeps admitting on the survivors).
  std::vector<std::vector<WindowMetrics>> phases(configs.size());
  MetricSnapshot reo_telemetry;
  for (size_t c = 0; c < configs.size(); ++c) {
    SimulationConfig sim = MakeSimConfig(configs[c], 0.10, 1 << 20);
    sim.warmup_pass = true;  // §VI.C: "we first fully warm up the cache"
    sim.failures = kFailures;
    // Trace the representative Reo-20% failure run when asked to.
    if (configs[c].label == "Reo-20%") ApplyTracing(sim, targs);
    CacheSimulator s(trace, sim);
    RunReport report = s.Run();
    phases[c] = report.windows;
    if (configs[c].label == "Reo-20%") {
      reo_telemetry = report.telemetry;
      ExportTrace(s, targs);
    }
  }

  // Retention probe: freeze admissions during failures so the hit ratio
  // right after each failure measures exactly the data each policy kept
  // (re-warming cannot mask the loss).
  std::vector<std::vector<WindowMetrics>> early(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    SimulationConfig sim = MakeSimConfig(configs[c], 0.10, 1 << 20);
    sim.warmup_pass = true;
    sim.probe_window_requests = 2000;
    sim.cache.admit_while_degraded = false;
    sim.failures = kFailures;
    CacheSimulator s(trace, sim);
    auto windows = s.Run().windows;
    // Window layout: [0-failures, 1-early, 1-rest, 2-early, 2-rest, ...].
    for (size_t f = 1; f <= 4; ++f) {
      early[c].push_back(windows.at(2 * f - 1));
    }
  }

  auto print_panel = [&](const char* title, auto value) {
    std::printf("\n(%s)\n%-12s", title, "FailedDevs");
    for (int f = 0; f <= 4; ++f) std::printf("%10d", f);
    std::printf("\n");
    for (size_t c = 0; c < configs.size(); ++c) {
      std::printf("%-12s", configs[c].label.c_str());
      for (size_t f = 0; f < phases[c].size() && f <= 4; ++f) {
        std::printf("%10.1f", value(phases[c][f]));
      }
      std::printf("\n");
    }
  };
  print_panel("a: Hit Ratio (%)",
              [](const WindowMetrics& w) { return w.HitRatio() * 100; });
  print_panel("b: Bandwidth (MB/sec)",
              [](const WindowMetrics& w) { return w.BandwidthMBps(); });
  print_panel("c: Latency (ms)",
              [](const WindowMetrics& w) { return w.AvgLatencyMs(); });

  // Immediate first-failure retention (first 2,000 requests after the
  // failure, admissions frozen so re-warming cannot mask the loss): the
  // paper reports Reo-10% dropping 12.6 p.p. vs Reo-40% only 1.5 p.p. —
  // a larger reserve protects more of the hit ratio.
  std::printf("\n(retention probe: hit ratio right after the first failure,"
              " admissions frozen)\n");
  std::printf("%-12s %12s %12s %10s\n", "Config", "before(%)", "after(%)",
              "drop(pp)");
  for (size_t c = 0; c < configs.size(); ++c) {
    double before = phases[c][0].HitRatio() * 100;
    double after = early[c][0].HitRatio() * 100;
    std::printf("%-12s %12.1f %12.1f %10.1f\n", configs[c].label.c_str(),
                before, after, before - after);
  }

  // End-of-run telemetry for the Reo-20% failure run: the degraded-read
  // histograms and recovery counters are populated here.
  PrintTelemetry("Reo-20%, 4 failures", reo_telemetry);
  return 0;
}
