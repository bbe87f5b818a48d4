// Fault-injection subsystem tests: spec parsing, injector determinism,
// fail-slow detection, retry policies, and the partial-failure handling
// they drive end to end — degraded reads per redundancy class, transient
// I/O retry, failure-atomic overwrites, fail-slow demotion, scrubber
// accounting, and persistence commit faults.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend_store.h"
#include "core/cache_manager.h"
#include "fault/failslow.h"
#include "fault/fault_injector.h"
#include "fault/fault_spec.h"
#include "fault/retry.h"
#include "persist/persistence.h"
#include "sim/cache_simulator.h"
#include "trace/event_log.h"
#include "workload/medisyn.h"

namespace reo {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kChunk = 1024;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x30000 + n}; }

FaultSpec MustParse(const std::string& json) {
  auto spec = ParseFaultSpec(json);
  EXPECT_TRUE(spec.ok()) << spec.status().to_string();
  return spec.ok() ? *spec : FaultSpec{};
}

// --- Spec parsing -----------------------------------------------------------

TEST(FaultSpecTest, ParsesFullSpec) {
  FaultSpec spec = MustParse(R"({
    "seed": 42,
    "rules": [
      {"site": "flash.latent", "probability": 0.01},
      {"site": "flash.read_transient", "probability": 0.05,
       "window": [10, 5000], "burst": 2, "max_triggers": 100},
      {"site": "flash.failslow", "device": 2, "probability": 1.0,
       "slow_factor": 8.0, "added_latency_ns": 500},
      {"site": "persist.fsync", "probability": 0.001}
    ]
  })");
  ASSERT_EQ(spec.rules.size(), 4u);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.rules[0].site, FaultSite::kFlashLatent);
  EXPECT_DOUBLE_EQ(spec.rules[0].probability, 0.01);
  EXPECT_EQ(spec.rules[1].window_start_op, 10u);
  EXPECT_EQ(spec.rules[1].window_end_op, 5000u);
  EXPECT_EQ(spec.rules[1].burst, 2u);
  EXPECT_EQ(spec.rules[1].max_triggers, 100u);
  EXPECT_EQ(spec.rules[2].device, 2);
  EXPECT_DOUBLE_EQ(spec.rules[2].slow_factor, 8.0);
  EXPECT_EQ(spec.rules[2].added_latency_ns, 500u);
  EXPECT_TRUE(spec.Targets(FaultSite::kFlashLatent));
  EXPECT_TRUE(spec.Targets(FaultSite::kPersistFsync));
  EXPECT_FALSE(spec.Targets(FaultSite::kBackendTransient));
}

TEST(FaultSpecTest, RejectsUnknownSite) {
  auto spec = ParseFaultSpec(
      R"({"rules": [{"site": "flash.mystery", "probability": 1}]})");
  EXPECT_EQ(spec.status().code(), ErrorCode::kInvalidArgument);
}

TEST(FaultSpecTest, RejectsMalformedJson) {
  EXPECT_FALSE(ParseFaultSpec(R"({"rules": [)").ok());
  EXPECT_FALSE(ParseFaultSpec("").ok());
  EXPECT_FALSE(ParseFaultSpec(R"({"seeed": 1, "rules": []})").ok());
}

// Values the spec's integer fields cannot hold (each used to reach a
// double-to-integer cast, undefined behaviour), values of the wrong kind,
// and a key given twice.
TEST(FaultSpecTest, RejectsValuesOutsideTheFieldsRange) {
  const char* bad[] = {
      R"({"seed": -1, "rules": []})",
      R"({"rules": [{"site": "flash.latent", "burst": 1e20}]})",
      R"({"rules": [{"site": "flash.latent", "max_triggers": -1}]})",
      R"({"rules": [{"site": "flash.latent", "window": [-5, 10]}]})",
      R"({"rules": [{"site": "flash.latent", "device": 1e12}]})",
      R"({"rules": [{"site": "flash.latent", "burst": 2.5}]})",
      R"({"rules": [{"site": "flash.latent", "probability": true}]})",
      R"({"rules": [{"site": "flash.latent", "site": "persist.fsync"}]})",
  };
  for (const char* json : bad) {
    auto spec = ParseFaultSpec(json);
    EXPECT_EQ(spec.status().code(), ErrorCode::kInvalidArgument) << json;
  }
}

TEST(FaultSpecTest, LoadRejectsMissingFile) {
  auto spec = LoadFaultSpecFile("/nonexistent/fault_spec.json");
  EXPECT_FALSE(spec.ok());
}

// --- Injector ---------------------------------------------------------------

TEST(FaultInjectorTest, WindowBoundsFiring) {
  FaultSpec spec = MustParse(R"({"rules": [
    {"site": "flash.latent", "probability": 1.0, "window": [2, 4]}]})");
  FaultInjector inj(spec);
  for (int i = 0; i < 8; ++i) inj.Roll(FaultSite::kFlashLatent);
  ASSERT_EQ(inj.history().size(), 2u);
  EXPECT_EQ(inj.history()[0].op_index, 2u);
  EXPECT_EQ(inj.history()[1].op_index, 3u);
  EXPECT_EQ(inj.ops(FaultSite::kFlashLatent), 8u);
}

TEST(FaultInjectorTest, MaxTriggersCapsFiring) {
  FaultSpec spec = MustParse(R"({"rules": [
    {"site": "backend.transient", "probability": 1.0, "max_triggers": 2}]})");
  FaultInjector inj(spec);
  for (int i = 0; i < 10; ++i) inj.Roll(FaultSite::kBackendTransient);
  EXPECT_EQ(inj.injected(FaultSite::kBackendTransient), 2u);
}

TEST(FaultInjectorTest, BurstFiresConsecutiveOps) {
  FaultSpec spec = MustParse(R"({"rules": [
    {"site": "flash.read_transient", "probability": 1.0,
     "burst": 3, "max_triggers": 1}]})");
  FaultInjector inj(spec);
  for (int i = 0; i < 10; ++i) inj.Roll(FaultSite::kFlashReadTransient);
  // One trigger, but the burst covers 3 consecutive operations.
  ASSERT_EQ(inj.history().size(), 3u);
  EXPECT_EQ(inj.history()[0].op_index, 0u);
  EXPECT_EQ(inj.history()[2].op_index, 2u);
}

TEST(FaultInjectorTest, DeviceFilterMatches) {
  FaultSpec spec = MustParse(R"({"rules": [
    {"site": "flash.failslow", "probability": 1.0, "device": 2,
     "slow_factor": 8.0}]})");
  FaultInjector inj(spec);
  EXPECT_FALSE(inj.Roll(FaultSite::kFlashFailSlow, /*device=*/0).fire);
  FaultDecision d = inj.Roll(FaultSite::kFlashFailSlow, /*device=*/2);
  EXPECT_TRUE(d.fire);
  EXPECT_DOUBLE_EQ(d.slow_factor, 8.0);
  // Filtered rolls still advance the op counter (reproducibility).
  EXPECT_EQ(inj.ops(FaultSite::kFlashFailSlow), 2u);
}

TEST(FaultInjectorTest, DisabledSiteIsFree) {
  FaultSpec spec = MustParse(R"({"rules": [
    {"site": "flash.latent", "probability": 1.0}]})");
  FaultInjector inj(spec);
  EXPECT_TRUE(inj.enabled(FaultSite::kFlashLatent));
  EXPECT_FALSE(inj.enabled(FaultSite::kPersistWrite));
  EXPECT_FALSE(inj.Roll(FaultSite::kPersistWrite).fire);
  EXPECT_EQ(inj.ops(FaultSite::kPersistWrite), 0u);
}

TEST(FaultInjectorTest, SiteStreamsAreIndependent) {
  // The fault sequence at one site depends only on that site's op count,
  // never on how rolls at other sites interleave.
  FaultSpec spec = MustParse(R"({"seed": 7, "rules": [
    {"site": "flash.latent", "probability": 0.3},
    {"site": "backend.transient", "probability": 0.3}]})");
  FaultInjector a(spec);
  FaultInjector b(spec);
  for (int i = 0; i < 200; ++i) a.Roll(FaultSite::kFlashLatent);
  for (int i = 0; i < 200; ++i) a.Roll(FaultSite::kBackendTransient);
  for (int i = 0; i < 200; ++i) {  // interleaved
    b.Roll(FaultSite::kFlashLatent);
    b.Roll(FaultSite::kBackendTransient);
  }
  auto ops_at = [](const FaultInjector& inj, FaultSite site) {
    std::vector<uint64_t> out;
    for (const auto& rec : inj.history()) {
      if (rec.site == site) out.push_back(rec.op_index);
    }
    return out;
  };
  EXPECT_GT(a.injected_total(), 0u);
  EXPECT_EQ(ops_at(a, FaultSite::kFlashLatent),
            ops_at(b, FaultSite::kFlashLatent));
  EXPECT_EQ(ops_at(a, FaultSite::kBackendTransient),
            ops_at(b, FaultSite::kBackendTransient));
}

// --- Retry policy -----------------------------------------------------------

TEST(RetryPolicyTest, BackoffGrowsWithJitterBounds) {
  RetryPolicy policy;
  policy.backoff_ns = 1000;
  policy.backoff_multiplier = 2.0;
  policy.jitter_fraction = 0.5;
  Pcg32 rng(3, 9);
  for (int trial = 0; trial < 100; ++trial) {
    SimTime b0 = RetryBackoff(policy, 0, rng);
    SimTime b2 = RetryBackoff(policy, 2, rng);
    EXPECT_GE(b0, 500u);
    EXPECT_LE(b0, 1500u);
    EXPECT_GE(b2, 2000u);   // 1000 * 2^2 * (1 - 0.5)
    EXPECT_LE(b2, 6000u);   // 1000 * 2^2 * (1 + 0.5)
  }
}

TEST(RetryPolicyTest, IsRetryableOnlyForIoError) {
  EXPECT_TRUE(IsRetryable(Status{ErrorCode::kIoError, "x"}));
  EXPECT_FALSE(IsRetryable(Status{ErrorCode::kCorrupted, "x"}));
  EXPECT_FALSE(IsRetryable(Status{ErrorCode::kUnavailable, "x"}));
  EXPECT_FALSE(IsRetryable(Status::Ok()));
}

// --- Fail-slow detection ----------------------------------------------------

FailSlowConfig QuickDetect() {
  FailSlowConfig cfg;
  cfg.min_samples = 8;
  cfg.check_interval = 4;
  cfg.sustain_checks = 2;
  cfg.outlier_factor = 4.0;
  return cfg;
}

TEST(FailSlowDetectorTest, FlagsSustainedOutlierOnce) {
  FailSlowDetector det(4, QuickDetect());
  for (int i = 0; i < 64; ++i) {
    for (FaultDeviceIndex d = 0; d < 4; ++d) {
      det.Observe(d, d == 2 ? 5'000'000 : 100'000, i);
    }
  }
  EXPECT_TRUE(det.flagged(2));
  EXPECT_FALSE(det.flagged(0));
  auto flagged = det.TakeFlagged();
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], 2u);
  EXPECT_TRUE(det.TakeFlagged().empty());  // reported at most once
  EXPECT_EQ(det.flagged_total(), 1u);
}

TEST(FailSlowDetectorTest, HealthyFleetNeverFlags) {
  FailSlowDetector det(4, QuickDetect());
  for (int i = 0; i < 256; ++i) {
    for (FaultDeviceIndex d = 0; d < 4; ++d) {
      det.Observe(d, 100'000 + (d * 7 + i) % 1000, i);
    }
  }
  EXPECT_EQ(det.flagged_total(), 0u);
  EXPECT_TRUE(det.TakeFlagged().empty());
}

TEST(FailSlowDetectorTest, ResetForgetsHistory) {
  FailSlowDetector det(4, QuickDetect());
  for (int i = 0; i < 64; ++i) {
    for (FaultDeviceIndex d = 0; d < 4; ++d) {
      det.Observe(d, d == 2 ? 5'000'000 : 100'000, i);
    }
  }
  ASSERT_TRUE(det.flagged(2));
  det.Reset(2);
  EXPECT_FALSE(det.flagged(2));
  EXPECT_DOUBLE_EQ(det.ewma(2), 0.0);
}

// --- Degraded reads, retry, and overwrite atomicity (data plane) ------------

/// Flash stack + data plane with a fault injector on the array.
struct PlaneFixture {
  explicit PlaneFixture(FaultSpec spec,
                        ProtectionMode mode = ProtectionMode::kReo) {
    FlashDeviceConfig dev;
    dev.capacity_bytes = 1 << 20;
    array = std::make_unique<FlashArray>(5, dev);
    stripes = std::make_unique<StripeManager>(
        *array,
        StripeManagerConfig{.chunk_logical_bytes = kChunk, .scale_shift = 0});
    plane = std::make_unique<ReoDataPlane>(
        *stripes,
        RedundancyPolicy({.mode = mode, .reo_reserve_fraction = 0.25}));
    plane->ConfigureRetry(RetryPolicy{}, /*seed=*/7);
    plane->AttachTelemetry(registry);
    if (!spec.empty()) {
      injector = std::make_unique<FaultInjector>(std::move(spec));
      array->AttachFaults(injector.get(), nullptr);
    }
  }

  std::vector<uint8_t> PayloadFor(uint64_t n, uint64_t logical,
                                  uint64_t version = 0) {
    return BackendStore::SynthesizePayload(Oid(n), version,
                                           stripes->PhysicalSize(logical));
  }

  double Metric(const std::string& name) {
    MetricSnapshot snap = registry.Snapshot();  // Find points into it
    const auto* e = snap.Find(name);
    return e != nullptr ? e->value : 0.0;
  }

  MetricRegistry registry;
  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
  std::unique_ptr<ReoDataPlane> plane;
  std::unique_ptr<FaultInjector> injector;
};

FaultSpec OneLatentFault() {
  return MustParse(R"({"rules": [
    {"site": "flash.latent", "probability": 1.0, "max_triggers": 1}]})");
}

/// Classes 0-2 carry redundancy: a latent-corrupt chunk is served via
/// parity/replica read-repair and then rebuilt in place.
class DegradedReadRepairP : public ::testing::TestWithParam<uint8_t> {};

TEST_P(DegradedReadRepairP, LatentCorruptionIsRepairedInPlace) {
  PlaneFixture fx(OneLatentFault());
  uint64_t logical = 4 * kChunk;
  auto payload = fx.PayloadFor(1, logical);
  ASSERT_TRUE(
      fx.plane->WriteObject(Oid(1), payload, logical, GetParam(), 0).ok());
  ASSERT_EQ(fx.injector->injected(FaultSite::kFlashLatent), 1u);

  auto io = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_TRUE(io.ok()) << io.status().to_string();
  EXPECT_EQ(io->payload, payload);
  EXPECT_GE(fx.Metric("fault.crc_detected"), 1.0);
  EXPECT_GE(fx.Metric("fault.crc_repairs"), 1.0);
  EXPECT_EQ(fx.Metric("fault.crc_unrepaired"), 0.0);

  // The in-place repair leaves the object fully intact: a direct array
  // read sees no corruption and no degraded decode.
  auto clean = fx.stripes->GetObject(Oid(1), 0);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->corrupt_chunks, 0u);
  EXPECT_FALSE(clean->degraded);
  EXPECT_EQ(clean->payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Classes, DegradedReadRepairP,
                         ::testing::Values(uint8_t{0}, uint8_t{1}, uint8_t{2}),
                         [](const auto& info) {
                           return "class" + std::to_string(info.param);
                         });

TEST(DegradedReadTest, Class3CorruptionIsUnrecoverableAtThePlane) {
  // Cold-clean data has no redundancy: the plane reports the loss and the
  // cache layer above turns it into a clean miss + backend refetch
  // (covered by ColdCleanCorruptionBecomesCleanMiss below).
  PlaneFixture fx(OneLatentFault());
  uint64_t logical = 4 * kChunk;
  auto payload = fx.PayloadFor(1, logical);
  ASSERT_TRUE(fx.plane->WriteObject(Oid(1), payload, logical, 3, 0).ok());

  auto io = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.status().code(), ErrorCode::kUnrecoverable);
  EXPECT_GE(fx.Metric("fault.crc_detected"), 1.0);
  EXPECT_EQ(fx.Metric("fault.crc_repairs"), 0.0);
}

TEST(TransientRetryTest, ReadRetrySucceedsAfterOneFault) {
  PlaneFixture fx(MustParse(R"({"rules": [
    {"site": "flash.read_transient", "probability": 1.0,
     "max_triggers": 1}]})"));
  uint64_t logical = 4 * kChunk;
  auto payload = fx.PayloadFor(1, logical);
  ASSERT_TRUE(fx.plane->WriteObject(Oid(1), payload, logical, 3, 0).ok());

  auto io = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_TRUE(io.ok()) << io.status().to_string();
  EXPECT_EQ(io->payload, payload);
  EXPECT_EQ(fx.Metric("retry.attempts"), 1.0);
  EXPECT_EQ(fx.Metric("retry.successes"), 1.0);
  EXPECT_EQ(fx.Metric("retry.exhausted"), 0.0);
}

TEST(TransientRetryTest, ReadRetryExhaustsUnderPersistentFault) {
  PlaneFixture fx(MustParse(R"({"rules": [
    {"site": "flash.read_transient", "probability": 1.0}]})"));
  uint64_t logical = 4 * kChunk;
  auto payload = fx.PayloadFor(1, logical);
  ASSERT_TRUE(fx.plane->WriteObject(Oid(1), payload, logical, 3, 0).ok());

  auto io = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(fx.Metric("retry.exhausted"), 1.0);
  EXPECT_EQ(fx.Metric("retry.attempts"),
            static_cast<double>(RetryPolicy{}.max_attempts - 1));
}

TEST(TransientRetryTest, WriteRetrySucceedsAfterOneFault) {
  PlaneFixture fx(MustParse(R"({"rules": [
    {"site": "flash.write_transient", "probability": 1.0,
     "max_triggers": 1}]})"));
  uint64_t logical = 4 * kChunk;
  auto payload = fx.PayloadFor(1, logical);
  auto io = fx.plane->WriteObject(Oid(1), payload, logical, 2, 0);
  ASSERT_TRUE(io.ok()) << io.status().to_string();
  EXPECT_EQ(fx.Metric("retry.attempts"), 1.0);
  EXPECT_EQ(fx.Metric("retry.successes"), 1.0);

  auto back = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->payload, payload);
}

TEST(TransientRetryTest, FailedOverwriteKeepsTheOldCopy) {
  // A write that exhausts its retries must not destroy the previously
  // acknowledged version (failure-atomic overwrite in the stripe layer).
  PlaneFixture fx(FaultSpec{});
  uint64_t logical = 4 * kChunk;
  auto v0 = fx.PayloadFor(1, logical, /*version=*/0);
  ASSERT_TRUE(fx.plane->WriteObject(Oid(1), v0, logical, 2, 0).ok());

  FaultSpec always_fail = MustParse(R"({"rules": [
    {"site": "flash.write_transient", "probability": 1.0}]})");
  FaultInjector inj(always_fail);
  fx.array->AttachFaults(&inj, nullptr);

  auto v1 = fx.PayloadFor(1, logical, /*version=*/1);
  auto io = fx.plane->WriteObject(Oid(1), v1, logical, 2, 0);
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(fx.Metric("retry.exhausted"), 1.0);

  fx.array->AttachFaults(nullptr, nullptr);
  auto back = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->payload, v0);
}

// --- RebuildObject after a failed read-back -----------------------------------

/// A 5-device array of 64 KiB chunks and a StripeManager, with `spec`
/// injected into every device.
struct RebuildFixture {
  static constexpr uint64_t kBigChunk = 64 * 1024;

  explicit RebuildFixture(const std::string& spec_json)
      : injector(MustParse(spec_json)) {
    FlashDeviceConfig dev;
    dev.capacity_bytes = 8 << 20;
    array = std::make_unique<FlashArray>(5, dev);
    stripes = std::make_unique<StripeManager>(
        *array, StripeManagerConfig{.chunk_logical_bytes = kBigChunk});
    array->AttachFaults(&injector, nullptr);
  }

  FaultInjector injector;
  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
};

// The read that re-encodes a lost redundancy chunk fails once (a transient
// error on the data chunk read back), although the decode before it had
// just verified enough survivors. The repair must run the stripe repair
// again, which reads the chunk again, instead of giving up, which left the
// object degraded (and ReadObject counting fault.crc_unrepaired). Only a
// kCorrupted read-back marks the chunk lost before the retry.
void ExpectRebuildSurvivesFailedReadBack(const std::string& spec,
                                         uint64_t logical,
                                         RedundancyLevel level) {
  RebuildFixture fx(spec);
  const ObjectId id = Oid(7);
  auto payload = BackendStore::SynthesizePayload(
      id, 0, fx.stripes->PhysicalSize(logical));
  ASSERT_TRUE(fx.stripes->PutObject(id, payload, logical, level, 0).ok());
  ASSERT_EQ(fx.injector.injected(FaultSite::kFlashLatent), 2u);

  auto got = fx.stripes->GetObject(id, 0);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got->payload, payload);
  EXPECT_EQ(got->corrupt_chunks, 2u);

  auto rb = fx.stripes->RebuildObject(id, got->complete);
  ASSERT_TRUE(rb.ok()) << rb.status().to_string();
  EXPECT_EQ(fx.injector.injected(FaultSite::kFlashReadTransient), 1u);
  EXPECT_EQ(fx.stripes->SurvivalOf(id), ObjectSurvival::kIntact);

  auto again = fx.stripes->GetObject(id, rb->complete);
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(again->payload, payload);
  EXPECT_EQ(again->corrupt_chunks, 0u);
  EXPECT_FALSE(again->degraded);
}

TEST(RebuildRetryTest, ReplicaRepairSurvivesAFailedReadBack) {
  // One replicated chunk, copies on devices 1 (data) and 2, 3, 4, 0. The
  // put corrupts the copies on devices 1 and 2; read op 4 is the read-back
  // of the rebuilt data chunk for the lost replica.
  ExpectRebuildSurvivesFailedReadBack(R"({"rules": [
    {"site": "flash.latent", "probability": 1.0, "device": 1, "window": [0, 5]},
    {"site": "flash.latent", "probability": 1.0, "device": 2, "window": [0, 5]},
    {"site": "flash.read_transient", "probability": 1.0, "window": [4, 5]}]})",
                                      RebuildFixture::kBigChunk,
                                      RedundancyLevel::kReplicate);
}

TEST(RebuildRetryTest, ParityRepairSurvivesAFailedReadBack) {
  // One 3+2 stripe: data on devices 1, 2, 3, parity on 4 and 0. The put
  // corrupts data 0 and parity 0; read op 10 is the read-back of the
  // rebuilt data 0 for the parity re-encode.
  ExpectRebuildSurvivesFailedReadBack(R"({"rules": [
    {"site": "flash.latent", "probability": 1.0, "device": 1, "window": [0, 5]},
    {"site": "flash.latent", "probability": 1.0, "device": 4, "window": [0, 5]},
    {"site": "flash.read_transient", "probability": 1.0, "window": [10, 11]}]})",
                                      3 * RebuildFixture::kBigChunk,
                                      RedundancyLevel::kParity2);
}

// --- Cold-clean corruption at the cache layer -------------------------------

struct CacheFaultFixture {
  CacheFaultFixture() {
    FlashDeviceConfig dev;
    dev.capacity_bytes = 64 * kChunk;
    array = std::make_unique<FlashArray>(5, dev);
    stripes = std::make_unique<StripeManager>(
        *array,
        StripeManagerConfig{.chunk_logical_bytes = kChunk, .scale_shift = 0});
    plane = std::make_unique<ReoDataPlane>(
        *stripes, RedundancyPolicy({.mode = ProtectionMode::kReo,
                                    .reo_reserve_fraction = 0.25}));
    plane->ConfigureRetry(RetryPolicy{}, /*seed=*/7);
    target = std::make_unique<OsdTarget>(*plane);
    backend = std::make_unique<BackendStore>(HddConfig{}, NetworkLinkConfig{});
    CacheManagerConfig cfg;
    cfg.verify_hits = true;
    cache = std::make_unique<CacheManager>(*target, *plane, *backend, cfg);
    cache->Initialize(0);
  }

  /// Arm after Initialize so metadata writes don't absorb the triggers.
  void ArmFaults(FaultSpec spec) {
    injector = std::make_unique<FaultInjector>(std::move(spec));
    array->AttachFaults(injector.get(), nullptr);
  }

  RequestResult Get(uint64_t n, uint64_t logical) {
    backend->RegisterObject(Oid(n), logical, stripes->PhysicalSize(logical));
    auto r = cache->Get(Oid(n), logical, clock.now());
    clock.Advance(r.latency);
    return r;
  }

  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
  std::unique_ptr<ReoDataPlane> plane;
  std::unique_ptr<OsdTarget> target;
  std::unique_ptr<BackendStore> backend;
  std::unique_ptr<CacheManager> cache;
  std::unique_ptr<FaultInjector> injector;
  SimClock clock;
};

TEST(CacheFaultTest, ColdCleanCorruptionBecomesCleanMiss) {
  CacheFaultFixture fx;
  fx.ArmFaults(OneLatentFault());

  // Miss-admit as cold clean; the single latent fault corrupts one chunk
  // of the freshly written (unprotected) copy.
  auto miss = fx.Get(1, 4 * kChunk);
  EXPECT_FALSE(miss.hit);
  ASSERT_EQ(fx.injector->injected(FaultSite::kFlashLatent), 1u);

  // The corrupt copy is evicted and the request refetches from the
  // backend — a clean miss, never a wrong answer.
  auto reread = fx.Get(1, 4 * kChunk);
  EXPECT_FALSE(reread.hit);
  EXPECT_EQ(reread.sense, SenseCode::kOk);
  EXPECT_EQ(fx.cache->stats().verify_failures, 0u);

  // The refetched copy (trigger exhausted) serves clean hits.
  auto hit = fx.Get(1, 4 * kChunk);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(fx.cache->stats().verify_failures, 0u);
}

// --- Scrubber accounting ----------------------------------------------------

TEST(ScrubAccountingTest, DetectionAndRepairHitMetricsAndEvents) {
  PlaneFixture fx(FaultSpec{});
  EventLog events;
  fx.stripes->AttachEvents(events);
  uint64_t logical = 4 * kChunk;
  auto payload = fx.PayloadFor(1, logical);
  ASSERT_TRUE(fx.plane->WriteObject(Oid(1), payload, logical, 2, 0).ok());

  // Corrupt the first live slot found on any device.
  bool corrupted = false;
  for (DeviceIndex d = 0; d < fx.array->size() && !corrupted; ++d) {
    for (SlotId s = 0; s < 64 && !corrupted; ++s) {
      corrupted = fx.array->device(d).CorruptSlot(s, 7).ok();
    }
  }
  ASSERT_TRUE(corrupted);

  auto report = fx.stripes->Scrub(0);
  EXPECT_GE(report.chunks_scanned, 1u);
  EXPECT_EQ(report.corrupt_found, 1u);
  EXPECT_GE(report.chunks_repaired, 1u);
  EXPECT_TRUE(report.lost.empty());

  // Every detection/repair is visible in metrics...
  EXPECT_EQ(fx.Metric("scrub.passes"), 1.0);
  EXPECT_EQ(fx.Metric("scrub.corrupt_found"),
            static_cast<double>(report.corrupt_found));
  EXPECT_EQ(fx.Metric("scrub.chunks_repaired"),
            static_cast<double>(report.chunks_repaired));
  EXPECT_GE(fx.Metric("fault.crc_detected"), 1.0);
  EXPECT_EQ(fx.Metric("scrub.lost_objects"), 0.0);

  // ...and in the event log.
  bool saw_detect = false;
  bool saw_repair = false;
  for (const auto& ev : events.events()) {
    saw_detect |= ev.category == "scrub.corrupt_found";
    saw_repair |= ev.category == "scrub.repair";
  }
  EXPECT_TRUE(saw_detect);
  EXPECT_TRUE(saw_repair);

  // The repaired object reads back intact.
  auto clean = fx.stripes->GetObject(Oid(1), 0);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->corrupt_chunks, 0u);
  EXPECT_EQ(clean->payload, payload);
}

// --- Persistence commit faults ----------------------------------------------

std::string ScratchDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("reo_fault_" + name);
  fs::remove_all(dir);
  return dir.string();
}

// The injector is declared before the manager: the manager's destructor
// syncs, and that sync still consults the injector.
TEST(PersistFaultTest, InjectedShortWriteFailsTheCommit) {
  FaultInjector inj(MustParse(R"({"rules": [
    {"site": "persist.write", "probability": 1.0, "max_triggers": 1}]})"));
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("write");
  auto opened = PersistenceManager::Open(cfg);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  auto& pm = **opened;
  pm.AttachFaults(&inj);

  std::vector<uint8_t> payload(kChunk, 0xAB);
  EXPECT_EQ(pm.CommitWrite(Oid(1), 2, kChunk, payload, 0).code(),
            ErrorCode::kIoError);
  // Trigger exhausted: the next commit lands.
  EXPECT_TRUE(pm.CommitWrite(Oid(1), 2, kChunk, payload, 0).ok());
  fs::remove_all(cfg.data_dir);
}

TEST(PersistFaultTest, InjectedFsyncFailureFailsCriticalCommit) {
  FaultInjector inj(MustParse(R"({"rules": [
    {"site": "persist.fsync", "probability": 1.0, "max_triggers": 1}]})"));
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("fsync");
  cfg.sync_critical = true;
  auto opened = PersistenceManager::Open(cfg);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  auto& pm = **opened;
  pm.AttachFaults(&inj);

  std::vector<uint8_t> payload(kChunk, 0xCD);
  // Class-1 (dirty) commits sync before acking: the fsync fault surfaces.
  EXPECT_FALSE(pm.CommitWrite(Oid(1), 1, kChunk, payload, 0).ok());
  EXPECT_TRUE(pm.CommitWrite(Oid(2), 1, kChunk, payload, 0).ok());
  fs::remove_all(cfg.data_dir);
}

// --- Whole-system determinism and fail-slow demotion ------------------------

MediSynConfig TinyWorkload() {
  MediSynConfig cfg;
  cfg.name = "fault-tiny";
  cfg.num_objects = 60;
  cfg.mean_object_bytes = 64 * 1024;
  cfg.zipf_skew = 0.9;
  cfg.num_requests = 600;
  cfg.seed = 5;
  return cfg;
}

TEST(FaultSimulationTest, SameSpecAndSeedReproducesTheRun) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.verify_hits = true;
  cfg.faults = MustParse(R"({"seed": 9, "rules": [
    {"site": "flash.latent", "probability": 0.02},
    {"site": "flash.read_transient", "probability": 0.01},
    {"site": "backend.transient", "probability": 0.01}]})");

  CacheSimulator a(trace, cfg);
  CacheSimulator b(trace, cfg);
  RunReport ra = a.Run();
  RunReport rb = b.Run();

  FaultInjector* fa = a.stack().injector.get();
  FaultInjector* fb = b.stack().injector.get();
  ASSERT_NE(fa, nullptr);
  ASSERT_NE(fb, nullptr);
  EXPECT_GT(fa->injected_total(), 0u);
  // Identical fault sequence, record for record...
  EXPECT_EQ(fa->history(), fb->history());
  // ...and an identical run on top of it.
  EXPECT_EQ(ra.total.requests, rb.total.requests);
  EXPECT_EQ(ra.total.hits, rb.total.hits);
  EXPECT_EQ(ra.cache.verify_failures, rb.cache.verify_failures);
  EXPECT_EQ(ra.cache.verify_failures, 0u);
  for (const char* metric :
       {"fault.injected", "fault.crc_detected", "fault.crc_repairs",
        "fault.crc_unrepaired", "retry.attempts", "retry.backend.attempts"}) {
    const auto* ea = ra.telemetry.Find(metric);
    const auto* eb = rb.telemetry.Find(metric);
    ASSERT_NE(ea, nullptr) << metric;
    ASSERT_NE(eb, nullptr) << metric;
    EXPECT_EQ(ea->value, eb->value) << metric;
  }
}

TEST(FaultSimulationTest, FailSlowDeviceIsFlaggedAndDemoted) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.verify_hits = true;
  cfg.faults = MustParse(R"({"rules": [
    {"site": "flash.failslow", "probability": 1.0, "device": 1,
     "slow_factor": 30.0}]})");
  cfg.failslow = QuickDetect();
  cfg.failslow_demote = true;

  CacheSimulator sim(trace, cfg);
  RunReport report = sim.Run();

  const auto* flagged = report.telemetry.Find("failslow.flagged");
  const auto* demoted = report.telemetry.Find("failslow.demotions");
  ASSERT_NE(flagged, nullptr);
  ASSERT_NE(demoted, nullptr);
  EXPECT_GE(flagged->value, 1.0);
  EXPECT_GE(demoted->value, 1.0);
  // Demotion is transparent to correctness.
  EXPECT_EQ(report.cache.verify_failures, 0u);
  EXPECT_EQ(report.total.requests, 600u);
}

TEST(FaultSimulationTest, FailSlowFlagWithoutDemotionIsAdvisory) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.faults = MustParse(R"({"rules": [
    {"site": "flash.failslow", "probability": 1.0, "device": 1,
     "slow_factor": 30.0}]})");
  cfg.failslow = QuickDetect();
  cfg.failslow_demote = false;

  CacheSimulator sim(trace, cfg);
  RunReport report = sim.Run();

  const auto* flagged = report.telemetry.Find("failslow.flagged");
  const auto* demoted = report.telemetry.Find("failslow.demotions");
  ASSERT_NE(flagged, nullptr);
  EXPECT_GE(flagged->value, 1.0);
  EXPECT_TRUE(demoted == nullptr || demoted->value == 0.0);
}

TEST(FaultSimulationTest, PeriodicScrubRepairsLatentCorruption) {
  auto trace = GenerateMediSyn(TinyWorkload());
  SimulationConfig cfg;
  cfg.verify_hits = true;
  cfg.faults = MustParse(R"({"rules": [
    {"site": "flash.latent", "probability": 0.05}]})");
  cfg.scrub_interval_requests = 100;

  CacheSimulator sim(trace, cfg);
  RunReport report = sim.Run();

  const auto* passes = report.telemetry.Find("scrub.passes");
  ASSERT_NE(passes, nullptr);
  EXPECT_GE(passes->value, 5.0);
  EXPECT_EQ(report.cache.verify_failures, 0u);
}

}  // namespace
}  // namespace reo
