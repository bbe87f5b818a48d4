// Write-back demonstration: dirty data protection (paper §VI.D).
//
// Writes flow into the cache as Class 1 (replicated across all devices),
// the background flusher pushes them to the backend, and after the flush
// they are reclassified clean — releasing the replication space. Four of
// five devices then fail; every dirty object must still be intact.
//
//   $ ./build/examples/writeback_flush
#include <cstdio>

#include "core/cache_manager.h"
#include "common/units.h"

using namespace reo;

int main() {
  FlashDeviceConfig dev;
  dev.capacity_bytes = 64ULL << 20;
  FlashArray array(5, dev);
  StripeManager stripes(array, {.chunk_logical_bytes = 64 * 1024, .scale_shift = 0});
  ReoDataPlane plane(stripes, RedundancyPolicy({.mode = ProtectionMode::kReo,
                                                .reo_reserve_fraction = 0.4}));
  OsdTarget target(plane);
  FailurePlane failure(plane);
  BackendStore backend(HddConfig{}, NetworkLinkConfig{});
  CacheManager cache(target, plane, failure, backend, CacheManagerConfig{});
  cache.Initialize(0);

  const uint64_t kSize = 512 * 1024;
  SimClock clock;
  auto oid = [](int i) {
    return ObjectId{kFirstUserId, 0x20000u + static_cast<uint64_t>(i)};
  };
  for (int i = 0; i < 8; ++i) {
    backend.RegisterObject(oid(i), kSize, stripes.PhysicalSize(kSize));
  }

  std::printf("writing 8 objects (write-back)...\n");
  for (int i = 0; i < 8; ++i) {
    auto r = cache.Put(oid(i), kSize, clock.now());
    clock.Advance(r.latency);
  }
  std::printf("  after writes : redundancy in use %s (dirty data replicated)\n",
              HumanBytes(stripes.redundancy_bytes()).c_str());
  std::printf("  level of obj0: %s\n",
              std::string(to_string(*stripes.LevelOf(oid(0)))).c_str());

  // Let the flusher run (virtual time passes).
  clock.Advance(60 * kNsPerSec);
  cache.AdvanceBackground(clock.now());
  std::printf("  after flush  : %llu flushed, redundancy in use %s\n",
              static_cast<unsigned long long>(cache.stats().flushes),
              HumanBytes(stripes.redundancy_bytes()).c_str());
  std::printf("  level of obj0: %s (clean now)\n",
              std::string(to_string(*stripes.LevelOf(oid(0)))).c_str());

  // Write two more, then lose FOUR devices before they flush.
  auto r1 = cache.Put(oid(0), kSize, clock.now());
  clock.Advance(r1.latency);
  auto r2 = cache.Put(oid(1), kSize, clock.now());
  clock.Advance(r2.latency);
  for (DeviceIndex d = 0; d < 4; ++d) failure.OnDeviceFailure(d, clock.now());

  auto g = cache.Get(oid(0), kSize, clock.now());
  std::printf("  after 4 device failures: dirty obj0 %s, dirty lost = %llu\n",
              g.hit ? "still served from cache" : "LOST",
              static_cast<unsigned long long>(cache.stats().dirty_lost));
  std::printf("  (full replication keeps the only valid copy alive on the "
              "last surviving device)\n");
  return 0;
}
