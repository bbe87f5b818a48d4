// Failure drill: shoot devices down one by one during a live workload and
// watch Reo degrade gracefully while uniform protection falls off a cliff
// (the paper's §VI.C scenario), then insert a spare and watch prioritized
// recovery bring the cache back.
//
//   $ ./build/examples/failure_drill
#include <cstdio>

#include "sim/cache_simulator.h"
#include "workload/medisyn.h"

using namespace reo;

namespace {

MediSynConfig DrillWorkload() {
  MediSynConfig cfg;
  cfg.name = "drill";
  cfg.num_objects = 500;
  cfg.mean_object_bytes = 1 << 20;
  cfg.zipf_skew = 0.9;
  cfg.num_requests = 10000;
  cfg.seed = 99;
  return cfg;
}

void Drill(ProtectionMode mode, double reserve, const char* label) {
  auto trace = GenerateMediSyn(DrillWorkload());
  SimulationConfig cfg;
  cfg.name = label;
  cfg.policy = {.mode = mode, .reo_reserve_fraction = reserve};
  cfg.cache_fraction = 0.12;
  cfg.chunk_logical_bytes = 64 * 1024;
  cfg.scale_shift = 5;
  cfg.warmup_pass = true;  // measure from a warm cache, as the paper does
  cfg.failures = {{.at_request = 2500, .device = 0},
                  {.at_request = 5000, .device = 1},
                  {.at_request = 7500, .device = 2}};
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();

  std::printf("%s\n", label);
  for (const auto& w : report.windows) {
    std::printf("  %-12s hit=%5.1f%%  bw=%7.1f MB/s  lat=%6.2f ms\n",
                w.label.c_str(), w.HitRatio() * 100, w.BandwidthMBps(),
                w.AvgLatencyMs());
  }
  std::printf("  rebuilt %llu objects, %llu lost, dirty lost %llu\n",
              static_cast<unsigned long long>(report.rebuilds),
              static_cast<unsigned long long>(report.cache.lost_evictions),
              static_cast<unsigned long long>(report.cache.dirty_lost));
}

}  // namespace

int main() {
  std::printf("failure_drill: 3 device failures at requests 2500/5000/7500\n\n");
  Drill(ProtectionMode::kUniform1, 0.0, "1-parity (uniform)");
  Drill(ProtectionMode::kUniform2, 0.0, "2-parity (uniform)");
  Drill(ProtectionMode::kReo, 0.20, "Reo-20%");
  Drill(ProtectionMode::kReo, 0.40, "Reo-40%");

  // Spare insertion: differentiated recovery rebuilds class 0 -> 3.
  auto trace = GenerateMediSyn(DrillWorkload());
  SimulationConfig cfg;
  cfg.name = "spare";
  cfg.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.4};
  cfg.cache_fraction = 0.12;
  cfg.chunk_logical_bytes = 64 * 1024;
  cfg.scale_shift = 5;
  cfg.warmup_pass = true;
  cfg.failures = {{.at_request = 100, .device = 4}};
  cfg.spares = {{.at_request = 200, .device = 4}};
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();
  std::printf("\nspare drill: device 4 failed @100, spare inserted @200\n");
  std::printf("  rebuilt %llu objects; backlog at end: %zu\n",
              static_cast<unsigned long long>(report.rebuilds),
              sim.stack().failure->backlog());
  return 0;
}
