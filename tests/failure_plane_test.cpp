// FailurePlane tests through its own seam: a hand-built stack, objects
// written straight through the data plane, and a recording fake owner in
// place of the cache manager.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "backend/backend_store.h"
#include "core/failure_plane.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

/// One recovery.rebuild event: (object, mode).
using Rebuild = std::pair<std::string, std::string>;
Rebuild OnDemand(uint64_t n) { return {Oid(n).ToString(), "on-demand"}; }
Rebuild Background(uint64_t n) { return {Oid(n).ToString(), "background"}; }

/// Records every hook the plane calls; answers from `tracked`.
struct FakeOwner {
  FailurePlane::Owner Hooks() {
    return {
        .describe = [this](ObjectId id) -> std::optional<TrackedObject> {
          ++describes;
          auto it = tracked.find(id);
          if (it == tracked.end()) return std::nullopt;
          return it->second;
        },
        .lose =
            [this](ObjectId id, SimTime) {
              lost.push_back(id);
              tracked.erase(id);
            },
        .lose_all =
            [this](SimTime) {
              ++lose_all_calls;
              tracked.clear();
            },
    };
  }

  size_t hook_calls() const { return describes + lost.size() + lose_all_calls; }

  std::unordered_map<ObjectId, TrackedObject, ObjectIdHash> tracked;
  size_t describes = 0;
  std::vector<ObjectId> lost;
  size_t lose_all_calls = 0;
};

struct PlaneStack {
  explicit PlaneStack(ProtectionMode mode) {
    FlashDeviceConfig dev;
    dev.capacity_bytes = 256 * kChunk;
    array = std::make_unique<FlashArray>(5, dev);
    stripes = std::make_unique<StripeManager>(
        *array,
        StripeManagerConfig{.chunk_logical_bytes = kChunk, .scale_shift = 0});
    data = std::make_unique<ReoDataPlane>(
        *stripes,
        RedundancyPolicy({.mode = mode, .reo_reserve_fraction = 0.5}));
    failure = std::make_unique<FailurePlane>(*data);
    failure->SetOwner(owner.Hooks());
    failure->AttachEvents(events);
  }

  /// Stores object `n` at `stored_class`; a tracked object is described to
  /// the plane as `cls` with hotness `h`.
  void Write(uint64_t n, uint64_t logical, uint8_t stored_class, bool track,
             DataClass cls = DataClass::kColdClean, double h = 0.0) {
    auto payload = BackendStore::SynthesizePayload(
        Oid(n), 0, stripes->PhysicalSize(logical));
    ASSERT_TRUE(
        data->WriteObject(Oid(n), payload, logical, stored_class, 0).ok());
    if (track) {
      owner.tracked[Oid(n)] = {.cls = cls, .h = h, .logical_size = logical};
    }
  }

  /// Every recovery.rebuild event, in log order.
  std::vector<Rebuild> Rebuilds() const {
    std::vector<Rebuild> out;
    for (const LoggedEvent& e : events.events()) {
      if (e.category != "recovery.rebuild") continue;
      out.emplace_back(std::string(e.Field("object")),
                       std::string(e.Field("mode")));
    }
    return out;
  }

  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
  std::unique_ptr<ReoDataPlane> data;
  std::unique_ptr<FailurePlane> failure;
  FakeOwner owner;
  EventLog events;
};

TEST(FailurePlaneTest, DifferentiatedRecoveryThroughTheOwner) {
  PlaneStack s(ProtectionMode::kReo);
  // Five-chunk stripes: each object has a chunk on every device.
  s.Write(1, 2 * kChunk, 0, true, DataClass::kMetadata);
  s.Write(2, 2 * kChunk, 1, true, DataClass::kDirty);
  s.Write(3, 3 * kChunk, 2, true, DataClass::kHotClean, /*h=*/0.5);
  s.Write(4, 3 * kChunk, 2, true, DataClass::kHotClean, /*h=*/2.0);
  // Still stored at 2-parity, but its owner already counts it cold (a
  // pending downgrade): recovery follows the owner's class, not its H.
  s.Write(5, 3 * kChunk, 2, true, DataClass::kColdClean, /*h=*/9.0);
  s.Write(6, 5 * kChunk, 3, true);   // unprotected: lost
  s.Write(7, 3 * kChunk, 2, false);  // untracked, recoverable
  s.Write(8, 5 * kChunk, 3, false);  // untracked, lost
  for (uint64_t n = 3; n <= 5; ++n) {
    ASSERT_EQ(*s.stripes->LevelOf(Oid(n)), RedundancyLevel::kParity2) << n;
  }

  s.failure->OnDeviceFailure(0, 0);

  // Every lost tracked object reaches the owner exactly once; the
  // untracked one does not.
  ASSERT_EQ(s.stripes->SurvivalOf(Oid(8)), ObjectSurvival::kLost);
  EXPECT_EQ(s.owner.lost, std::vector<ObjectId>{Oid(6)});
  // Classes 0/1 were rebuilt inside the handler, on demand.
  EXPECT_EQ(s.stripes->SurvivalOf(Oid(1)), ObjectSurvival::kIntact);
  EXPECT_EQ(s.stripes->SurvivalOf(Oid(2)), ObjectSurvival::kIntact);
  EXPECT_EQ(s.Rebuilds(), (std::vector<Rebuild>{OnDemand(1), OnDemand(2)}));
  // Classes 2/3 wait; the untracked object is not queued.
  EXPECT_EQ(s.failure->backlog(), 3u);
  EXPECT_TRUE(s.data->recovery_active());

  s.failure->DrainRecovery(0);
  // Class order first, then H descending within a class.
  EXPECT_EQ(s.Rebuilds(),
            (std::vector<Rebuild>{OnDemand(1), OnDemand(2), Background(4),
                                  Background(3), Background(5)}));
  EXPECT_EQ(s.failure->rebuilds(), 5u);
  EXPECT_EQ(s.failure->backlog(), 0u);
  EXPECT_FALSE(s.data->recovery_active());
  EXPECT_EQ(s.stripes->SurvivalOf(Oid(7)), ObjectSurvival::kRecoverable);
  EXPECT_EQ(s.owner.lost.size(), 1u);
}

TEST(FailurePlaneTest, UniformVolumeUnusablePastItsTolerance) {
  PlaneStack s(ProtectionMode::kUniform1);
  s.Write(1, 4 * kChunk, 3, true);
  s.Write(2, 4 * kChunk, 1, true, DataClass::kDirty);

  // Within 1-parity's tolerance: block-level protection rebuilds nothing
  // until a spare arrives, and nothing is lost.
  s.failure->OnDeviceFailure(0, 0);
  EXPECT_EQ(s.failure->backlog(), 0u);
  EXPECT_FALSE(s.failure->array_unusable());
  EXPECT_TRUE(s.owner.lost.empty());
  EXPECT_EQ(s.owner.lose_all_calls, 0u);

  // Past it, the whole volume goes at once.
  s.failure->OnDeviceFailure(1, 0);
  EXPECT_TRUE(s.failure->array_unusable());
  EXPECT_EQ(s.owner.lose_all_calls, 1u);
  EXPECT_TRUE(s.owner.lost.empty());
  EXPECT_EQ(s.failure->backlog(), 0u);
  EXPECT_FALSE(s.data->recovery_active());

  // Only spares for every failed device bring it back.
  s.failure->OnSpareInserted(0, 0);
  EXPECT_TRUE(s.failure->array_unusable());
  s.failure->OnSpareInserted(1, 0);
  EXPECT_FALSE(s.failure->array_unusable());
  EXPECT_EQ(s.owner.lose_all_calls, 1u);
}

TEST(FailurePlaneTest, RefusedDeviceEventsDoNothing) {
  PlaneStack s(ProtectionMode::kReo);
  s.Write(1, 2 * kChunk, 1, true, DataClass::kDirty);
  s.Write(2, 3 * kChunk, 2, true, DataClass::kHotClean, 1.0);
  s.failure->OnDeviceFailure(0, 0);
  ASSERT_EQ(s.failure->backlog(), 1u);
  const size_t events = s.events.size();
  const size_t hooks = s.owner.hook_calls();
  const uint64_t used = s.array->device(3).used_bytes();

  s.failure->OnSpareInserted(3, 0);  // device 3 never failed
  s.failure->OnDeviceFailure(0, 0);  // device 0 already has
  s.failure->OnDeviceFailure(5, 0);  // no such device
  s.failure->OnSpareInserted(9, 0);  // no such slot

  EXPECT_EQ(s.events.size(), events);
  EXPECT_EQ(s.owner.hook_calls(), hooks);
  EXPECT_EQ(s.array->healthy_count(), 4u);
  EXPECT_EQ(s.array->device(3).used_bytes(), used);
  EXPECT_EQ(s.failure->backlog(), 1u);
  EXPECT_EQ(s.failure->rebuilds(), 1u);
}

}  // namespace
}  // namespace reo
