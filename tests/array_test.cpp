// StripeManager tests: put/get round trips at every redundancy level,
// space accounting, failure marking, degraded reads, reconstruction, and
// re-encoding. Runs at scale_shift 0 (full-size payloads) so every byte is
// verified.
#include <gtest/gtest.h>

#include "array/stripe_manager.h"
#include "backend/backend_store.h"
#include "common/rng.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

struct ArrayFixture {
  explicit ArrayFixture(size_t devices = 5, uint64_t device_capacity = 1 << 20)
      : array(devices, MakeDeviceConfig(device_capacity)),
        stripes(array, StripeManagerConfig{.chunk_logical_bytes = kChunk,
                                           .scale_shift = 0}) {}

  static FlashDeviceConfig MakeDeviceConfig(uint64_t capacity) {
    FlashDeviceConfig cfg;
    cfg.capacity_bytes = capacity;
    return cfg;
  }

  std::vector<uint8_t> Payload(ObjectId id, uint64_t logical) {
    return BackendStore::SynthesizePayload(id, 0, stripes.PhysicalSize(logical));
  }

  Result<ArrayIo> Put(ObjectId id, uint64_t logical, RedundancyLevel level) {
    return stripes.PutObject(id, Payload(id, logical), logical, level, 0);
  }

  FlashArray array;
  StripeManager stripes;
};

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

class RedundancyLevelP : public ::testing::TestWithParam<RedundancyLevel> {};

TEST_P(RedundancyLevelP, PutGetRoundTrip) {
  ArrayFixture fx;
  for (uint64_t logical :
       {uint64_t{100}, kChunk, kChunk + 1, 10 * kChunk + 37}) {
    ObjectId id = Oid(logical);
    auto payload = fx.Payload(id, logical);
    ASSERT_TRUE(fx.stripes.PutObject(id, payload, logical, GetParam(), 0).ok());
    auto got = fx.stripes.GetObject(id, 0);
    ASSERT_TRUE(got.ok()) << "size " << logical;
    EXPECT_EQ(got->payload, payload);
    EXPECT_FALSE(got->degraded);
  }
}

TEST_P(RedundancyLevelP, SurvivesExactlyItsParityCount) {
  ArrayFixture fx;
  ObjectId id = Oid(1);
  uint64_t logical = 12 * kChunk;
  ASSERT_TRUE(fx.Put(id, logical, GetParam()).ok());

  size_t survivable = FailuresSurvived(GetParam(), 5);
  for (size_t failures = 1; failures <= 5; ++failures) {
    DeviceIndex dev = static_cast<DeviceIndex>(failures - 1);
    ASSERT_TRUE(fx.array.FailDevice(dev).ok());
    (void)fx.stripes.OnDeviceFailure(dev);
    auto survival = fx.stripes.SurvivalOf(id);
    if (failures <= survivable) {
      EXPECT_NE(survival, ObjectSurvival::kLost)
          << to_string(GetParam()) << " after " << failures << " failures";
      auto got = fx.stripes.GetObject(id, 0);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->degraded);
      EXPECT_EQ(got->payload, fx.Payload(id, logical));
    } else {
      EXPECT_EQ(survival, ObjectSurvival::kLost);
      EXPECT_EQ(fx.stripes.GetObject(id, 0).code(), ErrorCode::kUnrecoverable);
      break;
    }
  }
}

TEST_P(RedundancyLevelP, RemoveReleasesAllSpace) {
  ArrayFixture fx;
  uint64_t before = fx.array.used_bytes();
  ASSERT_TRUE(fx.Put(Oid(1), 7 * kChunk, GetParam()).ok());
  EXPECT_GT(fx.array.used_bytes(), before);
  ASSERT_TRUE(fx.stripes.RemoveObject(Oid(1)).ok());
  EXPECT_EQ(fx.array.used_bytes(), before);
  EXPECT_EQ(fx.stripes.user_bytes(), 0u);
  EXPECT_EQ(fx.stripes.redundancy_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Levels, RedundancyLevelP,
                         ::testing::Values(RedundancyLevel::kNone,
                                           RedundancyLevel::kParity1,
                                           RedundancyLevel::kParity2,
                                           RedundancyLevel::kReplicate),
                         [](const auto& info) {
                           switch (info.param) {
                             case RedundancyLevel::kNone: return "none";
                             case RedundancyLevel::kParity1: return "parity1";
                             case RedundancyLevel::kParity2: return "parity2";
                             case RedundancyLevel::kReplicate: return "replicate";
                           }
                           return "?";
                         });

TEST(StripeManagerTest, SpaceEfficiencyMatchesLevel) {
  // 12 chunks at 1-parity on 5 devices: m=4 -> 3 stripes, 3 parity chunks
  // -> efficiency 12/15 = 80 %.
  ArrayFixture fx;
  ASSERT_TRUE(fx.Put(Oid(1), 12 * kChunk, RedundancyLevel::kParity1).ok());
  EXPECT_NEAR(fx.stripes.Space().SpaceEfficiency(), 12.0 / 15.0, 1e-9);

  // Add 12 chunks at 2-parity: m=3 -> 4 stripes, 8 parity chunks.
  ASSERT_TRUE(fx.Put(Oid(2), 12 * kChunk, RedundancyLevel::kParity2).ok());
  EXPECT_NEAR(fx.stripes.Space().SpaceEfficiency(), 24.0 / (24.0 + 3 + 8), 1e-9);
}

TEST(StripeManagerTest, ReplicationUsesWidthCopies) {
  ArrayFixture fx;
  ASSERT_TRUE(fx.Put(Oid(1), 4 * kChunk, RedundancyLevel::kReplicate).ok());
  // 4 data chunks, each with 4 extra replicas.
  EXPECT_EQ(fx.stripes.user_bytes(), 4 * kChunk);
  EXPECT_EQ(fx.stripes.redundancy_bytes(), 16 * kChunk);
  EXPECT_NEAR(fx.stripes.Space().SpaceEfficiency(), 0.2, 1e-9);
}

TEST(StripeManagerTest, ZeroParityHasFullEfficiency) {
  ArrayFixture fx;
  ASSERT_TRUE(fx.Put(Oid(1), 20 * kChunk, RedundancyLevel::kNone).ok());
  EXPECT_NEAR(fx.stripes.Space().SpaceEfficiency(), 1.0, 1e-9);
}

TEST(StripeManagerTest, PerLevelRedundancyAccounting) {
  ArrayFixture fx;
  ASSERT_TRUE(fx.Put(Oid(1), 3 * kChunk, RedundancyLevel::kParity2).ok());
  ASSERT_TRUE(fx.Put(Oid(2), kChunk, RedundancyLevel::kReplicate).ok());
  EXPECT_EQ(fx.stripes.redundancy_bytes_at(RedundancyLevel::kParity2), 2 * kChunk);
  EXPECT_EQ(fx.stripes.redundancy_bytes_at(RedundancyLevel::kReplicate), 4 * kChunk);
  EXPECT_EQ(fx.stripes.redundancy_bytes_at(RedundancyLevel::kNone), 0u);
}

TEST(StripeManagerTest, ChunksAreFaultIsolated) {
  // Any single stripe loses at most one chunk per device failure, so a
  // 2-parity object must survive two arbitrary failures.
  ArrayFixture fx;
  for (uint64_t n = 0; n < 8; ++n) {
    ASSERT_TRUE(fx.Put(Oid(n), (n + 1) * kChunk, RedundancyLevel::kParity2).ok());
  }
  ASSERT_TRUE(fx.array.FailDevice(1).ok());
  (void)fx.stripes.OnDeviceFailure(1);
  ASSERT_TRUE(fx.array.FailDevice(3).ok());
  (void)fx.stripes.OnDeviceFailure(3);
  for (uint64_t n = 0; n < 8; ++n) {
    EXPECT_NE(fx.stripes.SurvivalOf(Oid(n)), ObjectSurvival::kLost) << n;
  }
}

TEST(StripeManagerTest, OverwriteReplacesContent) {
  ArrayFixture fx;
  ObjectId id = Oid(1);
  ASSERT_TRUE(fx.Put(id, 5 * kChunk, RedundancyLevel::kParity1).ok());
  uint64_t used_before = fx.array.used_bytes();

  auto payload2 = BackendStore::SynthesizePayload(id, 1, fx.stripes.PhysicalSize(3 * kChunk));
  ASSERT_TRUE(fx.stripes.PutObject(id, payload2, 3 * kChunk,
                                   RedundancyLevel::kParity1, 0).ok());
  auto got = fx.stripes.GetObject(id, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload, payload2);
  EXPECT_LT(fx.array.used_bytes(), used_before);
}

TEST(StripeManagerTest, PayloadSizeMismatchRejected) {
  ArrayFixture fx;
  std::vector<uint8_t> tiny(10);
  EXPECT_EQ(fx.stripes.PutObject(Oid(1), tiny, 5 * kChunk,
                                 RedundancyLevel::kNone, 0).code(),
            ErrorCode::kInvalidArgument);
}

TEST(StripeManagerTest, GetMissingObject) {
  ArrayFixture fx;
  EXPECT_EQ(fx.stripes.GetObject(Oid(9), 0).code(), ErrorCode::kNotFound);
  EXPECT_EQ(fx.stripes.RemoveObject(Oid(9)).code(), ErrorCode::kNotFound);
  EXPECT_EQ(fx.stripes.SurvivalOf(Oid(9)), ObjectSurvival::kLost);
}

TEST(StripeManagerTest, NoSpaceIsCleanFailure) {
  ArrayFixture fx(5, 8 * kChunk);  // 40 chunks total
  // Fill most of the array.
  ASSERT_TRUE(fx.Put(Oid(1), 30 * kChunk, RedundancyLevel::kNone).ok());
  auto r = fx.Put(Oid(2), 20 * kChunk, RedundancyLevel::kNone);
  EXPECT_EQ(r.code(), ErrorCode::kNoSpace);
  // Failed put must not leak: the second object is absent and space usage
  // unchanged.
  EXPECT_FALSE(fx.stripes.Contains(Oid(2)));
  EXPECT_EQ(fx.stripes.user_bytes(), 30 * kChunk);
}

TEST(StripeManagerTest, FootprintEstimate) {
  ArrayFixture fx;
  // 12 chunks at 2-parity: m=3 -> 4 stripes * 2 parity = 8 chunks overhead.
  EXPECT_EQ(fx.stripes.FootprintEstimate(12 * kChunk, RedundancyLevel::kParity2),
            12 * kChunk + 8 * kChunk);
  // Replication: every chunk gets width-1 = 4 copies.
  EXPECT_EQ(fx.stripes.FootprintEstimate(2 * kChunk, RedundancyLevel::kReplicate),
            2 * kChunk + 8 * kChunk);
  EXPECT_EQ(fx.stripes.FootprintEstimate(12 * kChunk, RedundancyLevel::kNone),
            12 * kChunk);
}

TEST(StripeManagerTest, OnDeviceFailureReportsAffected) {
  ArrayFixture fx;
  ASSERT_TRUE(fx.Put(Oid(1), 10 * kChunk, RedundancyLevel::kNone).ok());
  ASSERT_TRUE(fx.Put(Oid(2), 10 * kChunk, RedundancyLevel::kParity2).ok());
  ASSERT_TRUE(fx.array.FailDevice(0).ok());
  auto affected = fx.stripes.OnDeviceFailure(0);
  ASSERT_EQ(affected.size(), 2u);
  for (const auto& a : affected) {
    if (a.id == Oid(1)) {
      EXPECT_EQ(a.survival, ObjectSurvival::kLost);
    } else {
      EXPECT_EQ(a.id, Oid(2));
      EXPECT_EQ(a.survival, ObjectSurvival::kRecoverable);
      EXPECT_GT(a.lost_bytes, 0u);
    }
  }
}

TEST(StripeManagerTest, CorruptDataChunkIsServedFromParity) {
  // One 3+2 stripe: stripe 1 puts data chunk 0 in slot 0 of device 1. Its
  // fused read (ReadSlotInto) fails the CRC, so GetObject discards those
  // bytes and serves the chunk decoded from parity.
  ArrayFixture fx;
  ObjectId id = Oid(1);
  uint64_t logical = 3 * kChunk;
  ASSERT_TRUE(fx.Put(id, logical, RedundancyLevel::kParity2).ok());
  ASSERT_TRUE(fx.array.device(1).CorruptSlot(0, 17).ok());
  std::vector<uint8_t> out(kChunk);
  EXPECT_EQ(fx.array.device(1).ReadSlotInto(0, out).code(), ErrorCode::kCorrupted);

  auto got = fx.stripes.GetObject(id, 0);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_TRUE(got->degraded);
  EXPECT_EQ(got->corrupt_chunks, 1u);
  EXPECT_EQ(got->payload, fx.Payload(id, logical));
}

TEST(StripeManagerTest, RebuildRestoresIntactState) {
  ArrayFixture fx;
  ObjectId id = Oid(1);
  uint64_t logical = 9 * kChunk;
  ASSERT_TRUE(fx.Put(id, logical, RedundancyLevel::kParity2).ok());
  ASSERT_TRUE(fx.array.FailDevice(2).ok());
  (void)fx.stripes.OnDeviceFailure(2);
  ASSERT_EQ(fx.stripes.SurvivalOf(id), ObjectSurvival::kRecoverable);

  auto rb = fx.stripes.RebuildObject(id, 0);
  ASSERT_TRUE(rb.ok());
  EXPECT_GT(rb->chunk_writes, 0u);
  EXPECT_EQ(fx.stripes.SurvivalOf(id), ObjectSurvival::kIntact);
  EXPECT_TRUE(fx.stripes.DamagedObjects().empty());

  auto got = fx.stripes.GetObject(id, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->degraded);
  EXPECT_EQ(got->payload, fx.Payload(id, logical));

  // After rebuild the object must survive another failure.
  ASSERT_TRUE(fx.array.FailDevice(4).ok());
  (void)fx.stripes.OnDeviceFailure(4);
  EXPECT_NE(fx.stripes.SurvivalOf(id), ObjectSurvival::kLost);
}

TEST(StripeManagerTest, RebuildOntoSpare) {
  ArrayFixture fx;
  ObjectId id = Oid(1);
  ASSERT_TRUE(fx.Put(id, 6 * kChunk, RedundancyLevel::kParity1).ok());
  ASSERT_TRUE(fx.array.FailDevice(0).ok());
  (void)fx.stripes.OnDeviceFailure(0);
  ASSERT_TRUE(fx.array.ReplaceDevice(0).ok());
  ASSERT_TRUE(fx.stripes.RebuildObject(id, 0).ok());
  EXPECT_EQ(fx.stripes.SurvivalOf(id), ObjectSurvival::kIntact);
  // The spare now holds data again.
  EXPECT_GT(fx.array.device(0).used_bytes(), 0u);
}

TEST(StripeManagerTest, RebuildLostObjectFails) {
  ArrayFixture fx;
  ObjectId id = Oid(1);
  ASSERT_TRUE(fx.Put(id, 6 * kChunk, RedundancyLevel::kNone).ok());
  ASSERT_TRUE(fx.array.FailDevice(0).ok());
  (void)fx.stripes.OnDeviceFailure(0);
  EXPECT_EQ(fx.stripes.RebuildObject(id, 0).code(), ErrorCode::kUnrecoverable);
}

TEST(StripeManagerTest, ReencodeChangesLevelAndPreservesContent) {
  ArrayFixture fx;
  ObjectId id = Oid(1);
  uint64_t logical = 7 * kChunk;
  ASSERT_TRUE(fx.Put(id, logical, RedundancyLevel::kNone).ok());
  EXPECT_EQ(fx.stripes.redundancy_bytes(), 0u);

  ASSERT_TRUE(fx.stripes.ReencodeObject(id, RedundancyLevel::kParity2, 0).ok());
  EXPECT_EQ(*fx.stripes.LevelOf(id), RedundancyLevel::kParity2);
  EXPECT_GT(fx.stripes.redundancy_bytes(), 0u);
  auto got = fx.stripes.GetObject(id, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload, fx.Payload(id, logical));

  // Downgrade back: redundancy released.
  ASSERT_TRUE(fx.stripes.ReencodeObject(id, RedundancyLevel::kNone, 0).ok());
  EXPECT_EQ(fx.stripes.redundancy_bytes(), 0u);
}

TEST(StripeManagerTest, ReencodeSameLevelIsNoop) {
  ArrayFixture fx;
  ObjectId id = Oid(1);
  ASSERT_TRUE(fx.Put(id, kChunk, RedundancyLevel::kParity1).ok());
  auto io = fx.stripes.ReencodeObject(id, RedundancyLevel::kParity1, 0);
  ASSERT_TRUE(io.ok());
  EXPECT_EQ(io->chunk_reads, 0u);
  EXPECT_EQ(io->chunk_writes, 0u);
}

TEST(StripeManagerTest, WritesAfterFailureUseSurvivingDevices) {
  ArrayFixture fx;
  ASSERT_TRUE(fx.array.FailDevice(0).ok());
  (void)fx.stripes.OnDeviceFailure(0);
  ObjectId id = Oid(1);
  // Width shrinks to 4: 2-parity still works with m=2.
  ASSERT_TRUE(fx.Put(id, 8 * kChunk, RedundancyLevel::kParity2).ok());
  auto got = fx.stripes.GetObject(id, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload, fx.Payload(id, 8 * kChunk));
}

TEST(StripeManagerTest, SingleSurvivorStillStoresData) {
  ArrayFixture fx;
  for (DeviceIndex d = 0; d < 4; ++d) {
    ASSERT_TRUE(fx.array.FailDevice(d).ok());
    (void)fx.stripes.OnDeviceFailure(d);
  }
  ObjectId id = Oid(1);
  ASSERT_TRUE(fx.Put(id, 2 * kChunk, RedundancyLevel::kReplicate).ok());
  auto got = fx.stripes.GetObject(id, 0);
  ASSERT_TRUE(got.ok());
}

TEST(StripeManagerTest, TimingChargesDevices) {
  ArrayFixture fx;
  ObjectId id = Oid(1);
  auto io = fx.Put(id, 10 * kChunk, RedundancyLevel::kParity1);
  ASSERT_TRUE(io.ok());
  EXPECT_GT(io->complete, 0u);
  EXPECT_EQ(io->chunk_writes, 10u + 3u);  // 10 data + 3 parity (m=4)
  auto get = fx.stripes.GetObject(id, io->complete);
  ASSERT_TRUE(get.ok());
  EXPECT_GT(get->complete, io->complete);
  EXPECT_EQ(get->chunk_reads, 10u);
}

TEST(StripeManagerTest, ScaleShiftShrinksPayload) {
  FlashArray array(5, ArrayFixture::MakeDeviceConfig(1 << 20));
  StripeManager scaled(array, StripeManagerConfig{.chunk_logical_bytes = 1024,
                                                  .scale_shift = 4});
  EXPECT_EQ(scaled.chunk_physical_bytes(), 1024u >> 4);
  EXPECT_EQ(scaled.PhysicalSize(3 * 1024), 3 * (1024u >> 4));
  // Round-trip still verifies bit-exactly at the reduced scale.
  ObjectId id = Oid(1);
  auto payload = BackendStore::SynthesizePayload(id, 0, scaled.PhysicalSize(2048));
  ASSERT_TRUE(scaled.PutObject(id, payload, 2048, RedundancyLevel::kParity2, 0).ok());
  auto got = scaled.GetObject(id, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload, payload);
}

TEST(StripeManagerTest, MinimumPhysicalChunkEnforced) {
  FlashArray array(5, ArrayFixture::MakeDeviceConfig(1 << 20));
  StripeManager scaled(array, StripeManagerConfig{.chunk_logical_bytes = 64,
                                                  .scale_shift = 6});
  EXPECT_EQ(scaled.chunk_physical_bytes(), 16u);  // floor, not 64 >> 6 = 1
}

}  // namespace
}  // namespace reo
