// Simulation-harness tests: windowed metrics math, window splitting at
// failure events, probe windows, and simulator plumbing.
#include <gtest/gtest.h>

#include "sim/cache_simulator.h"
#include "sim/metrics.h"
#include "workload/medisyn.h"

namespace reo {
namespace {

TEST(WindowMetricsTest, RatiosAndRates) {
  WindowMetrics w;
  w.start = 0;
  w.end = 2 * kNsPerSec;
  w.requests = 10;
  w.reads = 8;
  w.hits = 6;
  w.bytes = 100'000'000;  // 100 MB over 2 s = 50 MB/s
  EXPECT_DOUBLE_EQ(w.HitRatio(), 0.75);
  EXPECT_DOUBLE_EQ(w.BandwidthMBps(), 50.0);
}

TEST(WindowMetricsTest, WriteOnlyWindowHasZeroHitRatio) {
  WindowMetrics w;
  w.requests = 5;  // all writes
  EXPECT_DOUBLE_EQ(w.HitRatio(), 0.0);
}

TEST(WindowMetricsTest, MergeCombines) {
  WindowMetrics a, b;
  a.start = 0;
  a.end = kNsPerSec;
  a.requests = a.reads = 4;
  a.hits = 2;
  a.bytes = 10;
  a.latency_us.Add(100);
  b.start = kNsPerSec;
  b.end = 3 * kNsPerSec;
  b.requests = b.reads = 6;
  b.hits = 6;
  b.bytes = 20;
  b.latency_us.Add(200);
  a.Merge(b);
  EXPECT_EQ(a.requests, 10u);
  EXPECT_EQ(a.hits, 8u);
  EXPECT_EQ(a.bytes, 30u);
  EXPECT_EQ(a.end, 3 * kNsPerSec);
  EXPECT_EQ(a.latency_us.count(), 2u);
}

TEST(WindowMetricsTest, MergeIsOrderIndependent) {
  // Merging the later window INTO the earlier one and vice versa must
  // produce the same wall-time span (and thus the same bandwidth).
  WindowMetrics early, late;
  early.start = kNsPerSec;
  early.end = 2 * kNsPerSec;
  early.requests = early.reads = 1;
  early.bytes = 50'000'000;
  late.start = 2 * kNsPerSec;
  late.end = 3 * kNsPerSec;
  late.requests = late.reads = 1;
  late.bytes = 50'000'000;

  WindowMetrics fwd = early;
  fwd.Merge(late);
  WindowMetrics rev = late;
  rev.Merge(early);
  EXPECT_EQ(fwd.start, kNsPerSec);
  EXPECT_EQ(rev.start, kNsPerSec);
  EXPECT_EQ(rev.end, fwd.end);
  EXPECT_DOUBLE_EQ(rev.BandwidthMBps(), fwd.BandwidthMBps());
  EXPECT_DOUBLE_EQ(fwd.BandwidthMBps(), 50.0);  // 100 MB over 2 s
}

TEST(MetricsCollectorTest, WindowsSplitAndTotalAccumulates) {
  MetricsCollector m;
  m.StartWindow("phase0", 0);
  m.Record(true, false, 10, 100, 1000);
  m.Record(false, false, 10, 100, 2000);
  m.StartWindow("phase1", 2000);
  m.Record(true, false, 10, 100, 3000);
  m.Finish(3000);

  ASSERT_EQ(m.windows().size(), 2u);
  EXPECT_EQ(m.windows()[0].label, "phase0");
  EXPECT_EQ(m.windows()[0].requests, 2u);
  EXPECT_EQ(m.windows()[0].end, 2000u);
  EXPECT_EQ(m.windows()[1].requests, 1u);
  EXPECT_EQ(m.total().requests, 3u);
  EXPECT_EQ(m.total().hits, 2u);
}

TEST(MetricsCollectorTest, WritesCountedInTrafficNotHits) {
  MetricsCollector m;
  m.StartWindow("w", 0);
  m.Record(true, true, 50, 10, 100);   // absorbed write
  m.Record(true, false, 50, 10, 200);  // read hit
  m.Finish(200);
  EXPECT_EQ(m.total().requests, 2u);
  EXPECT_EQ(m.total().reads, 1u);
  EXPECT_EQ(m.total().hits, 1u);
  EXPECT_EQ(m.total().bytes, 100u);
  EXPECT_DOUBLE_EQ(m.total().HitRatio(), 1.0);
}

MediSynConfig TinyWorkload() {
  MediSynConfig cfg;
  cfg.name = "tiny";
  cfg.num_objects = 60;
  cfg.mean_object_bytes = 64 * 1024;
  cfg.zipf_skew = 0.9;
  cfg.num_requests = 600;
  cfg.seed = 5;
  return cfg;
}

TEST(CacheSimulatorTest, WindowPerFailureEvent) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2};
  cfg.cache_fraction = 0.2;
  cfg.chunk_logical_bytes = 8 * 1024;
  cfg.scale_shift = 0;
  cfg.failures = {{.at_request = 200, .device = 0},
                  {.at_request = 400, .device = 1}};
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();
  ASSERT_EQ(report.windows.size(), 3u);
  EXPECT_EQ(report.windows[0].label, "0-failures");
  EXPECT_EQ(report.windows[1].label, "1-failures");
  EXPECT_EQ(report.windows[2].label, "2-failures");
  EXPECT_EQ(report.windows[0].requests, 200u);
  EXPECT_EQ(report.windows[1].requests, 200u);
  EXPECT_EQ(report.windows[2].requests, 200u);
  EXPECT_EQ(report.total.requests, 600u);
}

TEST(CacheSimulatorTest, ProbeWindowsSplitPhases) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2};
  cfg.cache_fraction = 0.2;
  cfg.chunk_logical_bytes = 8 * 1024;
  cfg.scale_shift = 0;
  cfg.probe_window_requests = 50;
  cfg.failures = {{.at_request = 200, .device = 0}};
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();
  ASSERT_EQ(report.windows.size(), 3u);
  EXPECT_EQ(report.windows[1].label, "1-failures-early");
  EXPECT_EQ(report.windows[1].requests, 50u);
  EXPECT_EQ(report.windows[2].label, "1-failures");
  EXPECT_EQ(report.windows[2].requests, 350u);
}

TEST(CacheSimulatorTest, WarmupPassRaisesHitRatio) {
  auto wl = TinyWorkload();
  wl.zipf_skew = 1.2;
  auto trace = GenerateMediSyn(wl);
  SimulationConfig cold_cfg;
  cold_cfg.policy = {.mode = ProtectionMode::kUniform0};
  cold_cfg.cache_fraction = 0.3;
  cold_cfg.chunk_logical_bytes = 8 * 1024;
  cold_cfg.scale_shift = 0;
  CacheSimulator cold(trace, cold_cfg);
  auto cold_report = cold.Run();

  auto warm_cfg = cold_cfg;
  warm_cfg.warmup_pass = true;
  CacheSimulator warm(trace, warm_cfg);
  auto warm_report = warm.Run();
  EXPECT_GE(warm_report.total.HitRatio(), cold_report.total.HitRatio());
}

TEST(CacheSimulatorTest, ReportCarriesSystemState) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.name = "probe";
  cfg.policy = {.mode = ProtectionMode::kUniform1};
  cfg.cache_fraction = 0.2;
  cfg.chunk_logical_bytes = 8 * 1024;
  cfg.scale_shift = 0;
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();
  EXPECT_EQ(report.name, "probe");
  EXPECT_EQ(report.dataset_bytes, trace.catalog.TotalBytes());
  EXPECT_GT(report.raw_capacity_bytes, 0u);
  EXPECT_GT(report.osd.commands, 0u);
  EXPECT_GT(report.space.user_bytes, 0u);
  EXPECT_NEAR(report.space.SpaceEfficiency(), 0.8, 0.05);
  EXPECT_FALSE(FormatReportRow(report).empty());
}

// --- Sharded replay ---------------------------------------------------------

TEST(CacheSimulatorTest, OneShardIsByteIdenticalToUnsharded) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2};
  cfg.cache_fraction = 0.2;
  cfg.chunk_logical_bytes = 8 * 1024;
  cfg.scale_shift = 0;
  CacheSimulator plain(trace, cfg);
  auto base = plain.Run();

  auto sharded_cfg = cfg;
  sharded_cfg.shards = 1;  // explicit 1 must not change anything
  CacheSimulator sharded(trace, sharded_cfg);
  auto got = sharded.Run();

  EXPECT_EQ(got.total.requests, base.total.requests);
  EXPECT_EQ(got.total.hits, base.total.hits);
  EXPECT_EQ(got.total.bytes, base.total.bytes);
  EXPECT_EQ(got.total.end, base.total.end);  // identical virtual timeline
  EXPECT_EQ(got.cache.gets, base.cache.gets);
  EXPECT_EQ(got.cache.evictions, base.cache.evictions);
  EXPECT_EQ(got.osd.commands, base.osd.commands);
  EXPECT_EQ(got.space.user_bytes, base.space.user_bytes);
  EXPECT_EQ(got.space.redundancy_bytes, base.space.redundancy_bytes);
  EXPECT_EQ(got.raw_capacity_bytes, base.raw_capacity_bytes);
  EXPECT_EQ(got.telemetry.ToJson(), base.telemetry.ToJson());
}

TEST(CacheSimulatorTest, ShardedRunRoutesPartitionsAndMerges) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2};
  cfg.cache_fraction = 0.2;
  cfg.chunk_logical_bytes = 8 * 1024;
  cfg.scale_shift = 0;
  cfg.shards = 4;
  CacheSimulator sim(trace, cfg);
  EXPECT_EQ(sim.shard_count(), 4u);
  auto report = sim.Run();

  // Every request was served by exactly one shard; the merged report
  // accounts for all of them.
  EXPECT_EQ(report.total.requests, 600u);
  EXPECT_EQ(report.cache.gets + report.cache.writes, 600u);
  EXPECT_GT(report.cache.hits, 0u);
  // All four stacks took traffic (hash spread over 60 objects).
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_GT(sim.cache(k).stats().gets + sim.cache(k).stats().writes,
              0u)
        << "shard " << k;
  }
  // The merged telemetry snapshot equals the per-shard counter sums.
  uint64_t gets = 0;
  for (size_t k = 0; k < 4; ++k) gets += sim.cache(k).stats().gets;
  EXPECT_EQ(report.cache.gets, gets);
  EXPECT_GT(report.space.capacity_bytes, 0u);
  EXPECT_FALSE(FormatReportRow(report).empty());
}

TEST(CacheSimulatorTest, ScriptedFailureFansOutToEveryShard) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2};
  cfg.cache_fraction = 0.2;
  cfg.chunk_logical_bytes = 8 * 1024;
  cfg.scale_shift = 0;
  cfg.shards = 2;
  cfg.failures = {{.at_request = 300, .device = 0}};
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();
  ASSERT_EQ(report.windows.size(), 2u);
  EXPECT_EQ(report.windows[1].label, "1-failures");
  // Both shards saw the device failure (each array lost device 0).
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_GT(sim.cache(k).stats().rebuilds +
                  sim.cache(k).stats().lost_evictions +
                  sim.cache(k).stats().degraded_reads,
              0u)
        << "shard " << k;
  }
  EXPECT_EQ(report.total.requests, 600u);
}

TEST(CacheSimulatorTest, VerifyHitsCatchesNothingOnHealthyRun) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.3};
  cfg.cache_fraction = 0.25;
  cfg.chunk_logical_bytes = 8 * 1024;
  cfg.scale_shift = 0;
  cfg.cache.verify_hits = true;
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();
  EXPECT_GT(report.cache.hits, 0u);
  EXPECT_EQ(report.cache.verify_failures, 0u);
}

}  // namespace
}  // namespace reo
