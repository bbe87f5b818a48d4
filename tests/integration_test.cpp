// End-to-end integration tests through CacheSimulator: whole-trace replays
// per protection mode, with content verification and the paper's headline
// qualitative properties as assertions.
#include <gtest/gtest.h>

#include "sim/cache_simulator.h"
#include "workload/medisyn.h"

namespace reo {
namespace {

/// A small but non-trivial workload (runs in well under a second).
MediSynConfig SmallWorkload(double write_ratio = 0.0) {
  MediSynConfig cfg;
  cfg.name = "small";
  cfg.num_objects = 300;
  cfg.mean_object_bytes = 256 * 1024;
  cfg.zipf_skew = 0.9;
  cfg.num_requests = 3000;
  cfg.write_ratio = write_ratio;
  cfg.seed = 7;
  return cfg;
}

SimulationConfig BaseSim(ProtectionMode mode, double reserve = 0.2) {
  SimulationConfig cfg;
  cfg.policy = {.mode = mode, .reo_reserve_fraction = reserve};
  cfg.cache_fraction = 0.10;
  cfg.chunk_logical_bytes = 16 * 1024;
  cfg.scale_shift = 4;
  cfg.cache.verify_hits = true;
  cfg.cache.hhot_refresh_interval = 500;
  return cfg;
}

class ModeP : public ::testing::TestWithParam<ProtectionMode> {};

TEST_P(ModeP, WholeTraceReplayIsConsistent) {
  auto trace = GenerateMediSyn(SmallWorkload());
  CacheSimulator sim(trace, BaseSim(GetParam()));
  auto report = sim.Run();

  EXPECT_EQ(report.total.requests, trace.requests.size());
  EXPECT_GT(report.total.HitRatio(), 0.0);
  EXPECT_LT(report.total.HitRatio(), 1.0);
  EXPECT_GT(report.total.BandwidthMBps(), 0.0);
  EXPECT_GT(report.total.AvgLatencyMs(), 0.0);
  // Every hit's content was CRC-verified against the expected version.
  EXPECT_EQ(report.cache.verify_failures, 0u);
  EXPECT_EQ(report.cache.dirty_lost, 0u);
  EXPECT_EQ(report.cache.hits + report.cache.misses, report.cache.gets);
}

TEST_P(ModeP, SpaceEfficiencyMatchesMode) {
  auto trace = GenerateMediSyn(SmallWorkload());
  CacheSimulator sim(trace, BaseSim(GetParam()));
  auto report = sim.Run();
  double eff = report.space.SpaceEfficiency();
  switch (GetParam()) {
    case ProtectionMode::kUniform0:
      EXPECT_NEAR(eff, 1.0, 0.01);
      break;
    case ProtectionMode::kUniform1:
      EXPECT_NEAR(eff, 0.8, 0.04);
      break;
    case ProtectionMode::kUniform2:
      EXPECT_NEAR(eff, 0.6, 0.05);
      break;
    case ProtectionMode::kFullReplication:
      EXPECT_NEAR(eff, 0.2, 0.02);
      break;
    case ProtectionMode::kReo:
      // Read-only run with a 20 % reserve: efficiency at least 80 %,
      // and the reserve is never exceeded by clean data.
      EXPECT_GE(eff, 0.78);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ModeP,
    ::testing::Values(ProtectionMode::kUniform0, ProtectionMode::kUniform1,
                      ProtectionMode::kUniform2, ProtectionMode::kFullReplication,
                      ProtectionMode::kReo),
    [](const auto& info) {
      std::string name(to_string(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(IntegrationTest, MoreCacheMeansMoreHits) {
  auto trace = GenerateMediSyn(SmallWorkload());
  double prev = -1.0;
  for (double frac : {0.04, 0.08, 0.16}) {
    auto cfg = BaseSim(ProtectionMode::kUniform1);
    cfg.cache_fraction = frac;
    CacheSimulator sim(trace, cfg);
    double hr = sim.Run().total.HitRatio();
    EXPECT_GT(hr, prev) << "fraction " << frac;
    prev = hr;
  }
}

TEST(IntegrationTest, ZeroParityDiesOnFirstFailure) {
  auto trace = GenerateMediSyn(SmallWorkload());
  auto cfg = BaseSim(ProtectionMode::kUniform0);
  cfg.warmup_pass = true;
  cfg.failures = {{.at_request = 1000, .device = 0}};
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();
  ASSERT_EQ(report.windows.size(), 2u);
  // Before the failure the warm cache serves plenty of hits; afterwards
  // the 0-parity volume is unusable (paper §VI.C: hit ratio drops to 0).
  EXPECT_GT(report.windows[0].HitRatio(), 0.3);
  EXPECT_EQ(report.windows[1].HitRatio(), 0.0);
}

TEST(IntegrationTest, ReoDegradesGracefullyAcrossTwoFailures) {
  auto trace = GenerateMediSyn(SmallWorkload());

  auto uniform_cfg = BaseSim(ProtectionMode::kUniform1);
  uniform_cfg.warmup_pass = true;
  uniform_cfg.failures = {{.at_request = 1000, .device = 0},
                          {.at_request = 2000, .device = 1}};
  CacheSimulator uniform(trace, uniform_cfg);
  auto uniform_report = uniform.Run();

  auto reo_cfg = BaseSim(ProtectionMode::kReo, 0.2);
  reo_cfg.warmup_pass = true;
  reo_cfg.failures = uniform_cfg.failures;
  CacheSimulator reo(trace, reo_cfg);
  auto reo_report = reo.Run();

  ASSERT_EQ(uniform_report.windows.size(), 3u);
  ASSERT_EQ(reo_report.windows.size(), 3u);
  // After the second failure, 1-parity has lost everything it could not
  // rebuild in time, while Reo keeps serving its protected hot set: Reo's
  // phase-2 hit ratio must beat uniform's.
  EXPECT_GT(reo_report.windows[2].HitRatio(),
            uniform_report.windows[2].HitRatio());
  EXPECT_EQ(reo_report.cache.verify_failures, 0u);
}

TEST(IntegrationTest, WritebackWorkloadKeepsDirtySafe) {
  auto trace = GenerateMediSyn(SmallWorkload(0.3));
  auto cfg = BaseSim(ProtectionMode::kReo, 0.2);
  cfg.failures = {{.at_request = 1500, .device = 2}};
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();
  EXPECT_GT(report.cache.writes, 0u);
  EXPECT_GT(report.cache.flushes, 0u);
  // Reo replicates dirty data: a single device failure must never lose it.
  EXPECT_EQ(report.cache.dirty_lost, 0u);
  EXPECT_EQ(report.cache.verify_failures, 0u);
}

TEST(IntegrationTest, SpareInsertionEnablesFullRecovery) {
  auto trace = GenerateMediSyn(SmallWorkload());
  auto cfg = BaseSim(ProtectionMode::kUniform1);
  cfg.warmup_pass = true;
  cfg.failures = {{.at_request = 500, .device = 3}};
  cfg.spares = {{.at_request = 600, .device = 3}};
  CacheSimulator sim(trace, cfg);
  auto report = sim.Run();
  EXPECT_GT(report.rebuilds, 0u);
  // With a spare and 1 parity everything recoverable is eventually rebuilt.
  CacheSimulator* s = &sim;
  s->stack().failure->DrainRecovery(0);
  EXPECT_TRUE(s->stack().stripes->DamagedObjects().empty());
}

TEST(IntegrationTest, ReoSpaceEfficiencyTracksReserve) {
  auto trace = GenerateMediSyn(SmallWorkload());
  for (double reserve : {0.1, 0.2, 0.4}) {
    auto cfg = BaseSim(ProtectionMode::kReo, reserve);
    CacheSimulator sim(trace, cfg);
    auto report = sim.Run();
    // §VI.B: space efficiency close to (1 - reserve) or better.
    EXPECT_GE(report.space.SpaceEfficiency(), 1.0 - reserve - 0.05)
        << "reserve " << reserve;
  }
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  auto trace = GenerateMediSyn(SmallWorkload());
  auto cfg = BaseSim(ProtectionMode::kReo);
  CacheSimulator a(trace, cfg), b(trace, cfg);
  auto ra = a.Run(), rb = b.Run();
  EXPECT_EQ(ra.total.hits, rb.total.hits);
  EXPECT_EQ(ra.total.end, rb.total.end);
  EXPECT_EQ(ra.cache.evictions, rb.cache.evictions);
}

TEST(IntegrationTest, WearIsTracked) {
  auto trace = GenerateMediSyn(SmallWorkload());
  CacheSimulator sim(trace, BaseSim(ProtectionMode::kUniform1));
  auto report = sim.Run();
  EXPECT_GT(report.max_wear, 0.0);
}

}  // namespace
}  // namespace reo
