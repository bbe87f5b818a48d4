// Tests for the two reliability extensions beyond whole-object IO:
// in-place partial updates with §II.B parity maintenance, and the latent-
// corruption scrubber.
#include <gtest/gtest.h>

#include <memory>

#include "array/stripe_manager.h"
#include "backend/backend_store.h"
#include "common/rng.h"
#include "core/cache_manager.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

struct Fixture {
  Fixture() {
    FlashDeviceConfig dev;
    dev.capacity_bytes = 1 << 20;
    array = std::make_unique<FlashArray>(5, dev);
    stripes = std::make_unique<StripeManager>(
        *array,
        StripeManagerConfig{.chunk_logical_bytes = kChunk, .scale_shift = 0});
  }

  std::vector<uint8_t> Put(uint64_t n, uint64_t logical, RedundancyLevel level) {
    auto payload =
        BackendStore::SynthesizePayload(Oid(n), 0, stripes->PhysicalSize(logical));
    REO_CHECK(stripes->PutObject(Oid(n), payload, logical, level, 0).ok());
    return payload;
  }

  /// Finds the device+slot of a stored chunk by probing corruption: walks
  /// devices and corrupts the i-th live slot overall.
  void CorruptNthLiveSlot(size_t target) {
    size_t seen = 0;
    for (DeviceIndex d = 0; d < array->size(); ++d) {
      auto& dev = array->device(d);
      for (SlotId s = 0; s < 10000; ++s) {
        if (dev.CorruptSlot(s, 7).ok()) {
          if (seen++ == target) return;
          // Undo: corrupting twice restores the byte.
          (void)dev.CorruptSlot(s, 7);
        } else if (seen > target + 64) {
          return;
        }
      }
    }
  }

  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
};

// --- Partial updates ----------------------------------------------------------

class PartialUpdateP : public ::testing::TestWithParam<RedundancyLevel> {};

TEST_P(PartialUpdateP, RangeUpdatePreservesParityInvariants) {
  Fixture fx;
  uint64_t logical = 9 * kChunk;
  auto payload = fx.Put(1, logical, GetParam());

  // Overwrite a range spanning chunk boundaries (mid chunk 2 .. mid 5).
  Pcg32 rng(77);
  uint64_t offset = 2 * kChunk + 300;
  std::vector<uint8_t> update(3 * kChunk + 100);
  for (auto& b : update) b = static_cast<uint8_t>(rng.Next());
  auto io = fx.stripes->UpdateObjectRange(Oid(1), offset, update, 0);
  ASSERT_TRUE(io.ok()) << io.status().to_string();
  EXPECT_GT(io->chunk_writes, 0u);

  std::copy(update.begin(), update.end(),
            payload.begin() + static_cast<long>(offset));
  auto got = fx.stripes->GetObject(Oid(1), 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload, payload);

  // Parity must have been maintained: a post-update failure is survivable
  // and decodes the *updated* content.
  size_t survivable = FailuresSurvived(GetParam(), 5);
  if (survivable == 0) return;
  for (size_t f = 0; f < survivable; ++f) {
    ASSERT_TRUE(fx.array->FailDevice(static_cast<DeviceIndex>(f)).ok());
    (void)fx.stripes->OnDeviceFailure(static_cast<DeviceIndex>(f));
  }
  auto degraded = fx.stripes->GetObject(Oid(1), 0);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Levels, PartialUpdateP,
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

TEST(PartialUpdateTest, SubChunkUpdate) {
  Fixture fx;
  auto payload = fx.Put(1, 4 * kChunk, RedundancyLevel::kParity1);
  std::vector<uint8_t> update(10, 0xEE);
  ASSERT_TRUE(fx.stripes->UpdateObjectRange(Oid(1), 1500, update, 0).ok());
  std::copy(update.begin(), update.end(), payload.begin() + 1500);
  auto got = fx.stripes->GetObject(Oid(1), 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload, payload);
}

TEST(PartialUpdateTest, RangeValidation) {
  Fixture fx;
  fx.Put(1, 2 * kChunk, RedundancyLevel::kNone);
  std::vector<uint8_t> update(10);
  EXPECT_EQ(fx.stripes
                ->UpdateObjectRange(Oid(1), 2 * kChunk - 5, update, 0)
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fx.stripes->UpdateObjectRange(Oid(9), 0, update, 0).code(),
            ErrorCode::kNotFound);
  // Empty update is a no-op.
  EXPECT_TRUE(fx.stripes->UpdateObjectRange(Oid(1), 0, {}, 0).ok());
}

TEST(PartialUpdateTest, RefusesDamagedStripes) {
  Fixture fx;
  fx.Put(1, 6 * kChunk, RedundancyLevel::kParity2);
  ASSERT_TRUE(fx.array->FailDevice(0).ok());
  (void)fx.stripes->OnDeviceFailure(0);
  std::vector<uint8_t> update(kChunk, 1);
  EXPECT_EQ(fx.stripes->UpdateObjectRange(Oid(1), 0, update, 0).code(),
            ErrorCode::kUnavailable);
  // After rebuilding, updates work again.
  ASSERT_TRUE(fx.stripes->RebuildObject(Oid(1), 0).ok());
  EXPECT_TRUE(fx.stripes->UpdateObjectRange(Oid(1), 0, update, 0).ok());
}

TEST(PartialUpdateTest, CostModelExposed) {
  Fixture fx;
  fx.Put(1, 9 * kChunk, RedundancyLevel::kParity2);  // stripes m=3, k=2
  auto cost = fx.stripes->UpdateCostOf(Oid(1));
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost->direct_reads, 2u);
  EXPECT_EQ(cost->delta_reads, 3u);
}

TEST(PartialUpdateTest, UpdateChargesDeviceTime) {
  Fixture fx;
  fx.Put(1, 6 * kChunk, RedundancyLevel::kParity1);
  std::vector<uint8_t> update(kChunk, 5);
  auto io = fx.stripes->UpdateObjectRange(Oid(1), 0, update, 1000);
  ASSERT_TRUE(io.ok());
  EXPECT_GT(io->complete, 1000u);
  EXPECT_GE(io->chunk_reads, 1u);   // old data (and parity for delta)
  EXPECT_GE(io->chunk_writes, 2u);  // data + parity
}

// --- Scrubber ------------------------------------------------------------------

TEST(ScrubberTest, CleanArrayScansEverythingFindsNothing) {
  Fixture fx;
  fx.Put(1, 6 * kChunk, RedundancyLevel::kParity2);
  auto report = fx.stripes->Scrub(0);
  // 6 data chunks + 2 stripes x 2 parity = 10.
  EXPECT_EQ(report.chunks_scanned, 10u);
  EXPECT_EQ(report.corrupt_found, 0u);
  EXPECT_EQ(report.chunks_repaired, 0u);
  EXPECT_TRUE(report.lost.empty());
}

TEST(ScrubberTest, RepairsLatentCorruptionWithinParity) {
  Fixture fx;
  auto payload = fx.Put(1, 6 * kChunk, RedundancyLevel::kParity2);
  // Corrupt one slot silently.
  ASSERT_TRUE(fx.array->device(0).CorruptSlot(0, 3).ok());

  auto report = fx.stripes->Scrub(0);
  EXPECT_EQ(report.corrupt_found, 1u);
  EXPECT_EQ(report.chunks_repaired, 1u);
  EXPECT_TRUE(report.lost.empty());
  EXPECT_GT(report.complete, 0u);

  auto got = fx.stripes->GetObject(Oid(1), 0);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->degraded);
  EXPECT_EQ(got->payload, payload);
  EXPECT_EQ(fx.stripes->SurvivalOf(Oid(1)), ObjectSurvival::kIntact);
}

TEST(ScrubberTest, UnprotectedCorruptionIsLost) {
  Fixture fx;
  fx.Put(1, 5 * kChunk, RedundancyLevel::kNone);
  ASSERT_TRUE(fx.array->device(0).CorruptSlot(0, 0).ok());
  auto report = fx.stripes->Scrub(0);
  EXPECT_EQ(report.corrupt_found, 1u);
  EXPECT_EQ(report.chunks_repaired, 0u);
  ASSERT_EQ(report.lost.size(), 1u);
  EXPECT_EQ(report.lost[0], Oid(1));
}

TEST(ScrubberTest, ReplicatedObjectSurvivesManyCorruptions) {
  Fixture fx;
  auto payload = fx.Put(1, kChunk, RedundancyLevel::kReplicate);
  // Corrupt four of the five copies (slot 0 on four devices).
  for (DeviceIndex d = 0; d < 4; ++d) {
    ASSERT_TRUE(fx.array->device(d).CorruptSlot(0, 1).ok());
  }
  auto report = fx.stripes->Scrub(0);
  EXPECT_EQ(report.corrupt_found, 4u);
  EXPECT_EQ(report.chunks_repaired, 4u);
  auto got = fx.stripes->GetObject(Oid(1), 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload, payload);
}

TEST(ScrubberTest, CacheManagerEvictsScrubLosses) {
  FlashDeviceConfig dev;
  dev.capacity_bytes = 1 << 20;
  FlashArray array(5, dev);
  StripeManager stripes(array, {.chunk_logical_bytes = kChunk, .scale_shift = 0});
  ReoDataPlane plane(stripes, RedundancyPolicy({.mode = ProtectionMode::kReo,
                                                .reo_reserve_fraction = 0.2}));
  OsdTarget target(plane);
  FailurePlane failure(plane);
  BackendStore backend(HddConfig{}, NetworkLinkConfig{});
  CacheManager cache(target, plane, failure, backend, CacheManagerConfig{});
  cache.Initialize(0);

  backend.RegisterObject(Oid(1), 5 * kChunk, stripes.PhysicalSize(5 * kChunk));
  (void)cache.Get(Oid(1), 5 * kChunk, 0);  // admitted cold (unprotected)
  ASSERT_TRUE(stripes.Contains(Oid(1)));

  // Silently corrupt one of its chunks, then scrub.
  bool corrupted = false;
  for (DeviceIndex d = 0; d < array.size() && !corrupted; ++d) {
    for (SlotId s = 0; s < 64 && !corrupted; ++s) {
      // Skip metadata slots: corrupt only if this slot belongs to a cold
      // 0-parity stripe — cheap heuristic: try, scrub will tell.
      corrupted = array.device(d).CorruptSlot(s, 2).ok();
    }
  }
  ASSERT_TRUE(corrupted);
  auto report = failure.RunScrub(0);
  EXPECT_EQ(report.corrupt_found, 1u);
  // Either it hit a replicated metadata chunk (repaired) or the cold
  // object (evicted); both leave the cache consistent.
  if (!report.lost.empty()) {
    EXPECT_FALSE(stripes.Contains(report.lost[0]));
  }
  EXPECT_TRUE(stripes.DamagedObjects().empty());
}

}  // namespace
}  // namespace reo
