// Cache manager tests: hit/miss accounting, LRU eviction under redundancy
// pressure, write-back + flusher, classification traffic, failure handling
// and dirty-data protection. Full stack at scale_shift 0 with small objects.
#include <gtest/gtest.h>

#include <memory>

#include "core/cache_manager.h"
#include "fault/fault_injector.h"
#include "trace/tracer.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

struct CacheFixture {
  explicit CacheFixture(ProtectionMode mode = ProtectionMode::kReo,
                        uint64_t device_capacity = 64 * kChunk,
                        double reserve = 0.25) {
    FlashDeviceConfig dev;
    dev.capacity_bytes = device_capacity;
    array = std::make_unique<FlashArray>(5, dev);
    stripes = std::make_unique<StripeManager>(
        *array,
        StripeManagerConfig{.chunk_logical_bytes = kChunk, .scale_shift = 0});
    plane = std::make_unique<ReoDataPlane>(
        *stripes,
        RedundancyPolicy({.mode = mode, .reo_reserve_fraction = reserve}));
    target = std::make_unique<OsdTarget>(*plane);
    backend = std::make_unique<BackendStore>(HddConfig{}, NetworkLinkConfig{});
    CacheManagerConfig cfg;
    cfg.hhot_refresh_interval = 10;
    cfg.verify_hits = true;
    cache = std::make_unique<CacheManager>(*target, *plane, *backend, cfg);
    cache->Initialize(0);
  }

  void Register(uint64_t n, uint64_t logical) {
    backend->RegisterObject(Oid(n), logical, stripes->PhysicalSize(logical));
    sizes[n] = logical;
  }

  RequestResult Get(uint64_t n) {
    auto r = cache->Get(Oid(n), sizes.at(n), clock.now());
    clock.Advance(r.latency);
    return r;
  }
  RequestResult Put(uint64_t n) {
    auto r = cache->Put(Oid(n), sizes.at(n), clock.now());
    clock.Advance(r.latency);
    return r;
  }

  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
  std::unique_ptr<ReoDataPlane> plane;
  std::unique_ptr<OsdTarget> target;
  std::unique_ptr<BackendStore> backend;
  std::unique_ptr<CacheManager> cache;
  std::unordered_map<uint64_t, uint64_t> sizes;
  SimClock clock;
};

TEST(CacheManagerTest, MissThenHit) {
  CacheFixture fx;
  fx.Register(1, 4 * kChunk);
  auto miss = fx.Get(1);
  EXPECT_FALSE(miss.hit);
  EXPECT_GT(miss.latency, 0u);

  auto hit = fx.Get(1);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(fx.cache->stats().hits, 1u);
  EXPECT_EQ(fx.cache->stats().misses, 1u);
  // A flash hit is faster than an HDD+network miss.
  EXPECT_LT(hit.latency, miss.latency);
  // Payload verification saw no corruption.
  EXPECT_EQ(fx.cache->stats().verify_failures, 0u);
}

TEST(CacheManagerTest, InitializeInstallsMetadata) {
  CacheFixture fx;
  EXPECT_TRUE(fx.stripes->Contains(kSuperBlockObject));
  EXPECT_TRUE(fx.stripes->Contains(kDeviceTableObject));
  EXPECT_TRUE(fx.stripes->Contains(kRootDirectoryObject));
  // Metadata is replicated (Class 0).
  EXPECT_EQ(*fx.stripes->LevelOf(kSuperBlockObject), RedundancyLevel::kReplicate);
}

TEST(CacheManagerTest, LruEvictionUnderPressure) {
  CacheFixture fx(ProtectionMode::kUniform0, 16 * kChunk);  // 80 chunks raw
  for (uint64_t n = 1; n <= 6; ++n) fx.Register(n, 20 * kChunk);
  fx.Get(1);
  fx.Get(2);
  fx.Get(3);
  fx.Get(1);  // touch 1: LRU order is now 2,3,1
  fx.Get(4);  // evicts 2 (and possibly 3) to fit
  EXPECT_GT(fx.cache->stats().evictions, 0u);
  // Object 1 (recently touched) must still be cached.
  auto hit1 = fx.Get(1);
  EXPECT_TRUE(hit1.hit);
}

TEST(CacheManagerTest, OversizedObjectServedUncached) {
  CacheFixture fx(ProtectionMode::kUniform0, 8 * kChunk);  // 40 chunks raw
  fx.Register(1, 100 * kChunk);
  auto r = fx.Get(1);
  EXPECT_FALSE(r.hit);
  EXPECT_GE(fx.cache->stats().uncacheable, 1u);
  EXPECT_EQ(fx.cache->resident_objects(), 3u);  // only the metadata objects
}

TEST(CacheManagerTest, WriteBackMakesDirtyThenFlushes) {
  CacheFixture fx;
  fx.Register(1, 3 * kChunk);
  auto w = fx.Put(1);
  EXPECT_TRUE(w.is_write);
  EXPECT_TRUE(w.hit);  // absorbed by cache
  // Dirty data is replicated under Reo.
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kReplicate);
  EXPECT_EQ(fx.backend->flush_count(), 0u);

  // Let virtual time pass; the flusher drains and the object is
  // reclassified clean (no longer replicated).
  fx.clock.Advance(10 * kNsPerSec);
  fx.cache->AdvanceBackground(fx.clock.now());
  EXPECT_EQ(fx.backend->flush_count(), 1u);
  EXPECT_EQ(fx.cache->stats().flushes, 1u);
  EXPECT_NE(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kReplicate);

  // The flushed version is what the backend now serves.
  EXPECT_GT(*fx.backend->VersionOf(Oid(1)), 0u);
  // A subsequent hit sees consistent content.
  auto h = fx.Get(1);
  EXPECT_TRUE(h.hit);
  EXPECT_EQ(fx.cache->stats().verify_failures, 0u);
}

TEST(CacheManagerTest, OverwriteSupersedesPendingFlush) {
  CacheFixture fx;
  fx.Register(1, 2 * kChunk);
  fx.Put(1);
  fx.Put(1);  // newer version before the first flush happens
  fx.clock.Advance(10 * kNsPerSec);
  fx.cache->AdvanceBackground(fx.clock.now());
  // Only the newest version reaches the backend.
  EXPECT_EQ(fx.backend->flush_count(), 1u);
  auto h = fx.Get(1);
  EXPECT_TRUE(h.hit);
  EXPECT_EQ(fx.cache->stats().verify_failures, 0u);
}

TEST(CacheManagerTest, DirtySurvivesFourFailuresUnderReo) {
  CacheFixture fx;
  fx.Register(1, 2 * kChunk);
  fx.Put(1);
  // Replicated across 5 devices: kill 4, the dirty copy must survive.
  for (DeviceIndex d = 0; d < 4; ++d) {
    fx.cache->OnDeviceFailure(d, fx.clock.now());
  }
  EXPECT_EQ(fx.cache->stats().dirty_lost, 0u);
  auto h = fx.Get(1);
  EXPECT_TRUE(h.hit);
  EXPECT_EQ(fx.cache->stats().verify_failures, 0u);
}

TEST(CacheManagerTest, ColdDataLostOnFirstFailureUnderReo) {
  CacheFixture fx;
  fx.Register(1, 10 * kChunk);
  fx.Get(1);  // admitted cold (initial H_hot = +inf)
  ASSERT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kNone);
  fx.cache->OnDeviceFailure(0, fx.clock.now());
  EXPECT_GE(fx.cache->stats().lost_evictions, 1u);
  auto r = fx.Get(1);  // refetched from backend
  EXPECT_FALSE(r.hit);
}

TEST(CacheManagerTest, UniformParityServesDegradedReads) {
  CacheFixture fx(ProtectionMode::kUniform2);
  fx.Register(1, 9 * kChunk);
  fx.Get(1);
  fx.cache->OnDeviceFailure(0, fx.clock.now());
  auto r = fx.Get(1);
  EXPECT_TRUE(r.hit);
  // Either served degraded, or already repaired by background recovery
  // before this request — both count as a surviving hit.
  EXPECT_EQ(fx.cache->stats().verify_failures, 0u);
}

TEST(CacheManagerTest, DirtyDataReprotectedSynchronouslyAtFailure) {
  // §IV.D "minimize the vulnerable window": Class 0/1 objects are rebuilt
  // inside the failure handler itself, so the recovery queue never holds
  // critical data.
  CacheFixture fx(ProtectionMode::kReo);
  fx.Register(1, 8 * kChunk);
  fx.Put(1);
  fx.cache->OnDeviceFailure(0, fx.clock.now());
  EXPECT_GE(fx.cache->stats().rebuilds, 1u);
  EXPECT_EQ(fx.stripes->SurvivalOf(Oid(1)), ObjectSurvival::kIntact);
  // It survives a second failure immediately (no vulnerable window).
  fx.cache->OnDeviceFailure(1, fx.clock.now());
  auto r = fx.Get(1);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(fx.cache->stats().dirty_lost, 0u);
}

TEST(CacheManagerTest, OnDemandRepairClearsBacklog) {
  // Reo repairs degraded clean objects on demand (§IV.D): a hot (Class 2,
  // 2-parity) object lost a chunk; its first access serves a degraded
  // read and repairs it in place.
  CacheFixture fx(ProtectionMode::kReo, 256 * kChunk, 0.25);
  fx.Register(1, 8 * kChunk);
  // Hammer the object across the refresh interval (10) to make it hot.
  for (int i = 0; i < 12; ++i) fx.Get(1);
  ASSERT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kParity2);

  fx.cache->OnDeviceFailure(0, fx.clock.now());
  ASSERT_TRUE(fx.cache->recovery_active());
  uint64_t rebuilds_before = fx.cache->stats().rebuilds;
  auto r = fx.Get(1);  // degraded read triggers repair-on-read
  EXPECT_TRUE(r.hit);
  EXPECT_GE(fx.cache->stats().rebuilds, rebuilds_before + 1);
  // Once everything recoverable is rebuilt, recovery ends (sense 0x66).
  fx.cache->DrainRecovery(fx.clock.now());
  EXPECT_FALSE(fx.cache->recovery_active());
  EXPECT_EQ(fx.stripes->SurvivalOf(Oid(1)), ObjectSurvival::kIntact);
}

TEST(CacheManagerTest, FailedRepairOnReadKeepsObjectQueued) {
  // Repair-on-read runs the same rebuild step as background recovery: a
  // transient failure (here every flash write fails with kIoError) leaves
  // the object in the backlog, so recovery stays active and the
  // control-object query keeps answering 0x65 until a later pass repairs it.
  CacheFixture fx(ProtectionMode::kReo, 256 * kChunk, 0.25);
  fx.Register(1, 8 * kChunk);
  for (int i = 0; i < 12; ++i) fx.Get(1);
  ASSERT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kParity2);

  fx.cache->OnDeviceFailure(0, fx.clock.now());
  ASSERT_EQ(fx.cache->recovery_backlog(), 1u);  // class 0 rebuilt already
  ASSERT_TRUE(fx.cache->recovery_active());

  FaultInjector injector(FaultSpec{
      .rules = {FaultRule{.site = FaultSite::kFlashWriteTransient,
                          .probability = 1.0}}});
  fx.array->AttachFaults(&injector, nullptr);
  auto r = fx.Get(1);
  EXPECT_TRUE(r.hit);
  EXPECT_TRUE(r.degraded);
  EXPECT_GT(injector.injected(FaultSite::kFlashWriteTransient), 0u);
  EXPECT_EQ(fx.cache->recovery_backlog(), 1u);
  EXPECT_TRUE(fx.cache->recovery_active());
  EXPECT_EQ(fx.cache->QueryObject(kControlObject, false, 0, fx.clock.now()),
            SenseCode::kRecoveryStarts);
  EXPECT_EQ(fx.stripes->SurvivalOf(Oid(1)), ObjectSurvival::kRecoverable);

  // Once the writes succeed again, the queued object is rebuilt.
  fx.array->AttachFaults(nullptr, nullptr);
  fx.cache->DrainRecovery(fx.clock.now());
  EXPECT_EQ(fx.cache->recovery_backlog(), 0u);
  EXPECT_FALSE(fx.cache->recovery_active());
  EXPECT_EQ(fx.stripes->SurvivalOf(Oid(1)), ObjectSurvival::kIntact);
}

TEST(CacheManagerTest, RepairedLatentChunkIsNotRebuiltAgain) {
  // A latent CRC error under a redundant object: the data plane repairs it
  // in place and still answers degraded. Repair-on-read then has nothing
  // left to rebuild, so it must not run (or log) a rebuild.
  CacheFixture fx;
  Tracer tracer;
  fx.cache->AttachTracing(tracer);
  fx.Register(1, 2 * kChunk);
  FaultInjector injector(FaultSpec{
      .rules = {FaultRule{.site = FaultSite::kFlashLatent,
                          .probability = 1.0,
                          .max_triggers = 1}}});
  fx.array->AttachFaults(&injector, nullptr);
  fx.Put(1);  // replicated (dirty); its first chunk lands corrupt
  fx.array->AttachFaults(nullptr, nullptr);
  ASSERT_EQ(injector.injected(FaultSite::kFlashLatent), 1u);

  auto r = fx.Get(1);
  EXPECT_TRUE(r.hit);
  ASSERT_TRUE(r.degraded);
  EXPECT_EQ(fx.stripes->SurvivalOf(Oid(1)), ObjectSurvival::kIntact);
  EXPECT_EQ(fx.cache->stats().rebuilds, 0u);
  size_t rebuild_events = 0;
  for (const LoggedEvent& ev : tracer.events().events()) {
    if (ev.category == "recovery.rebuild") ++rebuild_events;
  }
  EXPECT_EQ(rebuild_events, 0u);
  EXPECT_EQ(fx.cache->stats().verify_failures, 0u);
}

TEST(CacheManagerTest, TransientReadFailureKeepsDirtyObject) {
  // A read that still fails once the data plane's retries run out is not
  // data loss: the dirty object stays cached and dirty, only the request
  // fails, and the written version is what later reads and the flush see.
  CacheFixture fx;
  fx.Register(1, 3 * kChunk);
  fx.Put(1);
  FaultInjector injector(FaultSpec{
      .rules = {FaultRule{.site = FaultSite::kFlashReadTransient,
                          .probability = 1.0}}});
  fx.array->AttachFaults(&injector, nullptr);
  auto failed = fx.Get(1);
  fx.array->AttachFaults(nullptr, nullptr);
  EXPECT_NE(failed.sense, SenseCode::kOk);
  EXPECT_EQ(fx.cache->stats().lost_evictions, 0u);
  EXPECT_EQ(fx.cache->stats().dirty_lost, 0u);
  // Still dirty: replicated, and nothing was refetched from the backend.
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kReplicate);
  EXPECT_EQ(*fx.backend->VersionOf(Oid(1)), 0u);

  auto h = fx.Get(1);
  EXPECT_TRUE(h.hit);
  EXPECT_EQ(fx.cache->stats().verify_failures, 0u);
  fx.clock.Advance(10 * kNsPerSec);
  fx.cache->AdvanceBackground(fx.clock.now());
  EXPECT_EQ(fx.backend->flush_count(), 1u);
  EXPECT_GT(*fx.backend->VersionOf(Oid(1)), 0u);
}

TEST(CacheManagerTest, UnreadableDirtyObjectCountsAsDirtyLoss) {
  // Every replica of a dirty object is corrupt: the read answers 0x63, and
  // dropping the object loses data the backend never saw.
  CacheFixture fx;
  fx.Register(1, 2 * kChunk);
  FaultInjector injector(FaultSpec{
      .rules = {FaultRule{.site = FaultSite::kFlashLatent,
                          .probability = 1.0}}});
  fx.array->AttachFaults(&injector, nullptr);
  fx.Put(1);
  fx.array->AttachFaults(nullptr, nullptr);

  auto r = fx.Get(1);
  EXPECT_FALSE(r.hit);  // served by the backend refetch
  EXPECT_EQ(fx.cache->stats().lost_evictions, 1u);
  EXPECT_EQ(fx.cache->stats().dirty_lost, 1u);
}

TEST(CacheManagerTest, UniformHasNoRepairOnRead) {
  // Block-based uniform protection pays the reconstruction on every
  // degraded access; nothing is repaired in place without a spare.
  CacheFixture fx(ProtectionMode::kUniform1);
  fx.Register(1, 8 * kChunk);
  fx.Get(1);
  fx.cache->OnDeviceFailure(0, fx.clock.now());
  auto r1 = fx.Get(1);
  auto r2 = fx.Get(1);
  EXPECT_TRUE(r1.hit);
  EXPECT_TRUE(r1.degraded);
  EXPECT_TRUE(r2.degraded);  // still degraded: no object-level repair
  EXPECT_EQ(fx.cache->stats().rebuilds, 0u);
  // Spare insertion starts the block-level rebuild.
  fx.cache->OnSpareInserted(0, fx.clock.now());
  ASSERT_TRUE(fx.cache->recovery_active());
  fx.cache->DrainRecovery(fx.clock.now());
  EXPECT_GE(fx.cache->stats().rebuilds, 1u);
  EXPECT_EQ(fx.stripes->SurvivalOf(Oid(1)), ObjectSurvival::kIntact);
  EXPECT_FALSE(fx.Get(1).degraded);
}

TEST(CacheManagerTest, DeviceEventsOutsideTheArrayDoNothing) {
  CacheFixture fx(ProtectionMode::kUniform1);
  Tracer tracer;
  fx.cache->AttachTracing(tracer);
  fx.Register(1, 8 * kChunk);
  fx.Get(1);
  size_t events = tracer.events().size();
  // The array has devices 0-4: neither call may log, fail or rebuild.
  fx.cache->OnDeviceFailure(5, fx.clock.now());
  fx.cache->OnSpareInserted(99, fx.clock.now());
  EXPECT_EQ(tracer.events().size(), events);
  EXPECT_EQ(fx.array->healthy_count(), 5u);
  EXPECT_FALSE(fx.cache->recovery_active());
  EXPECT_FALSE(fx.Get(1).degraded);
}

TEST(CacheManagerTest, RecoveryQueryThroughControlObject) {
  CacheFixture fx(ProtectionMode::kReo, 256 * kChunk, 0.25);
  fx.Register(1, 8 * kChunk);
  // Hot clean object: recoverable after a failure, rebuilt in background.
  for (int i = 0; i < 12; ++i) fx.Get(1);
  ASSERT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kParity2);
  EXPECT_EQ(fx.cache->QueryObject(kControlObject, false, 0, fx.clock.now()),
            SenseCode::kOk);
  fx.cache->OnDeviceFailure(0, fx.clock.now());
  EXPECT_EQ(fx.cache->QueryObject(kControlObject, false, 0, fx.clock.now()),
            SenseCode::kRecoveryStarts);
  fx.cache->DrainRecovery(fx.clock.now());
  EXPECT_EQ(fx.cache->QueryObject(kControlObject, false, 0, fx.clock.now()),
            SenseCode::kOk);
}

TEST(CacheManagerTest, QueryObjectSenses) {
  CacheFixture fx;
  fx.Register(1, 6 * kChunk);
  fx.Get(1);
  EXPECT_EQ(fx.cache->QueryObject(Oid(1), false, 0, fx.clock.now()), SenseCode::kOk);
  // Cold object lost after a failure: query reports 0x63.
  fx.cache->OnDeviceFailure(0, fx.clock.now());
  SenseCode s = fx.cache->QueryObject(Oid(1), false, 0, fx.clock.now());
  // The object was evicted on loss, so either corrupted (still reported
  // during teardown) or absent (kFail).
  EXPECT_TRUE(s == SenseCode::kCorrupted || s == SenseCode::kFail);
}

TEST(CacheManagerTest, HotObjectsGetParityAfterRefresh) {
  CacheFixture fx(ProtectionMode::kReo, 256 * kChunk, 0.25);
  for (uint64_t n = 1; n <= 8; ++n) fx.Register(n, 4 * kChunk);
  // Hammer objects 1-2, touch 3-8 once; cross the refresh interval (10).
  for (int round = 0; round < 8; ++round) {
    fx.Get(1);
    fx.Get(2);
  }
  for (uint64_t n = 3; n <= 8; ++n) fx.Get(n);
  EXPECT_GT(fx.cache->stats().reclassifications, 0u);
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kParity2);
  // Hot data survives a failure.
  fx.cache->OnDeviceFailure(0, fx.clock.now());
  auto r = fx.Get(1);
  EXPECT_TRUE(r.hit);
}

TEST(CacheManagerTest, ReserveCapsHotParity) {
  // Tiny reserve: nothing can be protected at 2-parity.
  CacheFixture fx(ProtectionMode::kReo, 256 * kChunk, 0.0001);
  for (uint64_t n = 1; n <= 4; ++n) fx.Register(n, 4 * kChunk);
  for (int round = 0; round < 10; ++round) {
    for (uint64_t n = 1; n <= 4; ++n) fx.Get(n);
  }
  for (uint64_t n = 1; n <= 4; ++n) {
    EXPECT_EQ(*fx.stripes->LevelOf(Oid(n)), RedundancyLevel::kNone) << n;
  }
}

TEST(CacheManagerTest, EverythingDirtyForcesFlushBeforeEviction) {
  CacheFixture fx(ProtectionMode::kReo, 24 * kChunk);  // 120 chunks raw
  for (uint64_t n = 1; n <= 4; ++n) fx.Register(n, 4 * kChunk);
  // Dirty objects cost 5x: 4 objects x 20 chunks = 80 chunks + metadata.
  for (uint64_t n = 1; n <= 4; ++n) fx.Put(n);
  // A fifth write must force a flush + eviction, never dirty loss.
  fx.Register(5, 4 * kChunk);
  auto r = fx.Put(5);
  EXPECT_TRUE(r.is_write);
  EXPECT_EQ(fx.cache->stats().dirty_lost, 0u);
  EXPECT_GE(fx.backend->flush_count() + fx.cache->stats().evictions, 1u);
}

TEST(CacheManagerTest, FullReplicationModeReplicatesEverything) {
  CacheFixture fx(ProtectionMode::kFullReplication, 64 * kChunk);
  fx.Register(1, 4 * kChunk);
  fx.Get(1);
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kReplicate);
  EXPECT_NEAR(fx.stripes->Space().SpaceEfficiency(), 0.2, 0.01);
}

TEST(CacheManagerTest, StatsConsistency) {
  CacheFixture fx;
  fx.Register(1, 2 * kChunk);
  fx.Register(2, 2 * kChunk);
  fx.Get(1);
  fx.Get(1);
  fx.Get(2);
  fx.Put(2);
  const auto& st = fx.cache->stats();
  EXPECT_EQ(st.gets, 3u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.writes, 1u);
  EXPECT_NEAR(st.HitRatio(), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace reo
