// Randomized end-to-end soak: arbitrary interleavings of reads, writes,
// device failures, spare insertions, scrubs, and latent corruption, with
// every hit CRC-verified against the expected version. The invariants:
//   * served content is always correct (no stale or corrupt hit);
//   * dirty data written at full array health is never lost under Reo
//     while any device survives (data written *while degraded* is only
//     replicated across the survivors — by design it can die if the
//     remaining devices fail too, so the soak pauses writes then);
//   * the system stays internally consistent (no damaged leftovers after
//     full repair, accounting matches).
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "core/cache_manager.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 2048;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

class CacheSoak : public ::testing::TestWithParam<uint64_t> {
 protected:
  CacheSoak() {
    FlashDeviceConfig dev;
    dev.capacity_bytes = 2 << 20;
    array_ = std::make_unique<FlashArray>(5, dev);
    stripes_ = std::make_unique<StripeManager>(
        *array_,
        StripeManagerConfig{.chunk_logical_bytes = kChunk, .scale_shift = 0});
    plane_ = std::make_unique<ReoDataPlane>(
        *stripes_, RedundancyPolicy({.mode = ProtectionMode::kReo,
                                     .reo_reserve_fraction = 0.25}));
    target_ = std::make_unique<OsdTarget>(*plane_);
    failure_ = std::make_unique<FailurePlane>(*plane_);
    backend_ = std::make_unique<BackendStore>(HddConfig{}, NetworkLinkConfig{});
    CacheManagerConfig cfg;
    cfg.hhot_refresh_interval = 50;
    cfg.verify_hits = true;  // every hit is content-checked
    cache_ = std::make_unique<CacheManager>(*target_, *plane_, *failure_,
                                            *backend_, cfg);
    cache_->Initialize(0);
    for (uint64_t n = 0; n < kObjects; ++n) {
      uint64_t logical = (1 + (n % 7)) * kChunk;
      backend_->RegisterObject(Oid(n), logical, stripes_->PhysicalSize(logical));
      sizes_[n] = logical;
    }
  }

  static constexpr uint64_t kObjects = 48;

  std::unique_ptr<FlashArray> array_;
  std::unique_ptr<StripeManager> stripes_;
  std::unique_ptr<ReoDataPlane> plane_;
  std::unique_ptr<OsdTarget> target_;
  std::unique_ptr<FailurePlane> failure_;
  std::unique_ptr<BackendStore> backend_;
  std::unique_ptr<CacheManager> cache_;
  std::unordered_map<uint64_t, uint64_t> sizes_;
  SimClock clock_;
};

TEST_P(CacheSoak, EverythingStaysConsistent) {
  Pcg32 rng(GetParam());
  size_t failed = 0;

  for (int step = 0; step < 3000; ++step) {
    uint32_t op = rng.NextBounded(100);
    uint64_t n = rng.NextBounded(kObjects);
    bool fully_healthy = array_->healthy_count() == array_->size();
    if (op < 70 || (op < 88 && !fully_healthy)) {
      auto r = cache_->Get(Oid(n), sizes_[n], clock_.now());
      clock_.Advance(r.latency);
    } else if (op < 88) {
      auto r = cache_->Put(Oid(n), sizes_[n], clock_.now());
      clock_.Advance(r.latency);
    } else if (op < 92) {
      // Fail a device, keeping at least one alive.
      if (failed < 4) {
        auto healthy = array_->HealthyDevices();
        DeviceIndex d =
            healthy[rng.NextBounded(static_cast<uint32_t>(healthy.size()))];
        failure_->OnDeviceFailure(d, clock_.now());
        ++failed;
      }
    } else if (op < 96) {
      // Insert a spare for some failed device.
      for (DeviceIndex d = 0; d < array_->size(); ++d) {
        if (!array_->device(d).healthy()) {
          failure_->OnSpareInserted(d, clock_.now());
          --failed;
          break;
        }
      }
    } else if (op < 98) {
      // Latent corruption somewhere, then a scrub pass.
      auto healthy = array_->HealthyDevices();
      DeviceIndex d =
          healthy[rng.NextBounded(static_cast<uint32_t>(healthy.size()))];
      (void)array_->device(d).CorruptSlot(rng.NextBounded(64), rng.Next());
      (void)failure_->RunScrub(clock_.now());
    } else {
      failure_->DrainRecovery(clock_.now());
    }

    // Standing invariants.
    ASSERT_EQ(cache_->stats().verify_failures, 0u) << "step " << step;
    ASSERT_EQ(cache_->stats().dirty_lost, 0u) << "step " << step;
  }

  // Quiesce: flush everything, repair everything, then re-read the world.
  for (DeviceIndex d = 0; d < array_->size(); ++d) {
    if (!array_->device(d).healthy()) failure_->OnSpareInserted(d, clock_.now());
  }
  failure_->DrainRecovery(clock_.now());
  clock_.Advance(120 * kNsPerSec);
  cache_->AdvanceBackground(clock_.now());
  (void)failure_->RunScrub(clock_.now());
  EXPECT_TRUE(stripes_->DamagedObjects().empty());

  for (uint64_t n = 0; n < kObjects; ++n) {
    auto r = cache_->Get(Oid(n), sizes_[n], clock_.now());
    clock_.Advance(r.latency);
    ASSERT_EQ(r.sense, SenseCode::kOk) << "object " << n;
  }
  EXPECT_EQ(cache_->stats().verify_failures, 0u);
  EXPECT_EQ(cache_->stats().dirty_lost, 0u);
  EXPECT_EQ(cache_->stats().gets,
            cache_->stats().hits + cache_->stats().misses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheSoak, ::testing::Values(11, 22, 33, 44, 55),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace reo
