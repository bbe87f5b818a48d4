// Differentiated-recovery ordering tests (paper §IV.D): class 0 first,
// then class 1, 2, 3; hottest first within a class — for the shared
// RecoveryKey, at the scheduler level, and as observed through the
// EventLog's recovery timeline.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/recovery_order.h"
#include "core/cache_manager.h"
#include "core/recovery_scheduler.h"
#include "trace/tracer.h"

namespace reo {
namespace {

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

TEST(RecoverySchedulerTest, ClassOrderDominates) {
  RecoveryScheduler s;
  s.Enqueue(Oid(3), DataClass::kColdClean, 99.0, 10);
  s.Enqueue(Oid(2), DataClass::kHotClean, 0.5, 10);
  s.Enqueue(Oid(0), DataClass::kMetadata, 0.0, 10);
  s.Enqueue(Oid(1), DataClass::kDirty, 0.1, 10);

  EXPECT_EQ(*s.Pop(), Oid(0));  // metadata first
  EXPECT_EQ(*s.Pop(), Oid(1));  // dirty
  EXPECT_EQ(*s.Pop(), Oid(2));  // hot clean
  EXPECT_EQ(*s.Pop(), Oid(3));  // cold clean — even with the highest H
  EXPECT_FALSE(s.Pop().has_value());
}

TEST(RecoverySchedulerTest, HotFirstWithinClass) {
  RecoveryScheduler s;
  s.Enqueue(Oid(1), DataClass::kHotClean, 0.1, 1);
  s.Enqueue(Oid(2), DataClass::kHotClean, 0.9, 1);
  s.Enqueue(Oid(3), DataClass::kHotClean, 0.5, 1);
  EXPECT_EQ(*s.Pop(), Oid(2));
  EXPECT_EQ(*s.Pop(), Oid(3));
  EXPECT_EQ(*s.Pop(), Oid(1));
}

TEST(RecoverySchedulerTest, PendingBytesTracked) {
  RecoveryScheduler s;
  s.Enqueue(Oid(1), DataClass::kHotClean, 0.1, 100);
  s.Enqueue(Oid(2), DataClass::kHotClean, 0.2, 50);
  EXPECT_EQ(s.pending_bytes(), 150u);
  s.Remove(Oid(1));
  EXPECT_EQ(s.pending_bytes(), 50u);
  EXPECT_EQ(s.size(), 1u);
  s.Clear();
  EXPECT_EQ(s.pending_bytes(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(RecoverySchedulerTest, ReEnqueueReplaces) {
  RecoveryScheduler s;
  s.Enqueue(Oid(1), DataClass::kColdClean, 0.1, 100);
  s.Enqueue(Oid(2), DataClass::kHotClean, 0.5, 10);
  // Re-prioritize object 1 as dirty: it must now pop first.
  s.Enqueue(Oid(1), DataClass::kDirty, 0.1, 100);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.pending_bytes(), 110u);
  EXPECT_EQ(*s.Pop(), Oid(1));
}

TEST(RecoverySchedulerTest, RemoveMissingIsNoop) {
  RecoveryScheduler s;
  s.Remove(Oid(7));
  EXPECT_TRUE(s.empty());
}

TEST(RecoverySchedulerTest, PeekDoesNotConsume) {
  RecoveryScheduler s;
  s.Enqueue(Oid(1), DataClass::kDirty, 0.1, 1);
  EXPECT_EQ(*s.Peek(), Oid(1));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(*s.Pop(), Oid(1));
}

TEST(RecoverySchedulerTest, DeterministicTieBreakById) {
  RecoveryScheduler s;
  s.Enqueue(Oid(5), DataClass::kHotClean, 0.5, 1);
  s.Enqueue(Oid(3), DataClass::kHotClean, 0.5, 1);
  EXPECT_EQ(*s.Pop(), Oid(3));
  EXPECT_EQ(*s.Pop(), Oid(5));
}

// --- RecoveryKey: the one recovery order -------------------------------------

TEST(RecoveryKeyTest, ClassDominatesHotness) {
  using Key = RecoveryKey<ObjectId>;
  EXPECT_LT(Key(0, 0.0, Oid(9)), Key(1, 1e9, Oid(1)));
  EXPECT_LT(Key(1, 0.0, Oid(9)), Key(2, 1e9, Oid(1)));
  EXPECT_LT(Key(2, 0.0, Oid(9)), Key(3, 1e9, Oid(1)));
  EXPECT_FALSE(Key(3, 1e9, Oid(1)) < Key(2, 0.0, Oid(9)));
}

TEST(RecoveryKeyTest, HotnessSortsDescending) {
  std::vector<RecoveryKey<uint64_t>> keys = {
      {2, 0.1, 1}, {2, 0.9, 2}, {2, 0.5, 3}, {2, 7.0, 4}};
  SortRecoveryOrder(keys.begin(), keys.end(), [](const auto& k) { return k; });
  std::vector<uint64_t> order;
  for (const auto& k : keys) order.push_back(k.tie);
  EXPECT_EQ(order, (std::vector<uint64_t>{4, 2, 3, 1}));
}

TEST(RecoveryKeyTest, CountAndDoubleHotnessOrderAlikeUpTo2To53) {
  // A read count and an H order alike while the count converts exactly:
  // up to 2^53, JsonDoc's integer cap.
  constexpr uint64_t kCap = uint64_t{1} << 53;
  const uint64_t counts[] = {0, 1, 2, 1000, kCap - 2, kCap - 1, kCap};
  for (uint64_t a : counts) {
    for (uint64_t b : counts) {
      RecoveryKey<uint64_t> count_a(1, a, 7), count_b(1, b, 8);
      RecoveryKey<uint64_t> h_a(1, static_cast<double>(a), 7);
      RecoveryKey<uint64_t> h_b(1, static_cast<double>(b), 8);
      // Hotter first; equal hotness falls to the tie-break (7 < 8).
      EXPECT_EQ(count_a < count_b, a >= b) << a << " vs " << b;
      EXPECT_EQ(h_a < h_b, count_a < count_b) << a << " vs " << b;
    }
  }
}

TEST(RecoveryKeyTest, TiesFallToTheCallersKey) {
  // ObjectId tie-break (device rebuild, cluster refetch, OWNERS dump).
  using IdKey = RecoveryKey<ObjectId>;
  EXPECT_LT(IdKey(2, 0.5, Oid(3)), IdKey(2, 0.5, Oid(5)));
  EXPECT_FALSE(IdKey(2, 0.5, Oid(5)) < IdKey(2, 0.5, Oid(3)));
  EXPECT_FALSE(IdKey(2, 0.5, Oid(3)) < IdKey(2, 0.5, Oid(3)));
  // LSN tie-break (restart restore).
  using LsnKey = RecoveryKey<uint64_t>;
  EXPECT_LT(LsnKey(1, uint64_t{4}, 10), LsnKey(1, uint64_t{4}, 11));
  EXPECT_FALSE(LsnKey(1, uint64_t{4}, 11) < LsnKey(1, uint64_t{4}, 10));
}

TEST(RecoveryTimelineTest, EventLogShowsDifferentiatedOrder) {
  // End-to-end view of the same ordering through the structured event log:
  // a device failure emits "device.failure" first, the critical classes
  // (0 metadata, 1 dirty) rebuild synchronously inside the handler
  // (mode=on-demand), and the drain rebuilds the rest in nondecreasing
  // class order (mode=background), closed by "recovery.complete".
  constexpr uint64_t kChunk = 1024;
  FlashDeviceConfig dev;
  dev.capacity_bytes = 256 * kChunk;
  auto array = std::make_unique<FlashArray>(5, dev);
  auto stripes = std::make_unique<StripeManager>(
      *array,
      StripeManagerConfig{.chunk_logical_bytes = kChunk, .scale_shift = 0});
  auto plane = std::make_unique<ReoDataPlane>(
      *stripes, RedundancyPolicy({.mode = ProtectionMode::kReo,
                                  .reo_reserve_fraction = 0.25}));
  auto target = std::make_unique<OsdTarget>(*plane);
  auto failure = std::make_unique<FailurePlane>(*plane);
  auto backend = std::make_unique<BackendStore>(HddConfig{}, NetworkLinkConfig{});
  CacheManagerConfig cfg;
  cfg.hhot_refresh_interval = 10;
  auto cache = std::make_unique<CacheManager>(*target, *plane, *failure,
                                              *backend, cfg);
  Tracer tracer;
  cache->AttachTracing(tracer);
  plane->AttachTracing(tracer);
  failure->AttachEvents(tracer.events());
  failure->AttachTracing(tracer);
  cache->Initialize(0);

  SimClock clock;
  auto run = [&](auto&& fn) { clock.Advance(fn(clock.now()).latency); };
  // Class 1: a dirty write. Class 2: a hammered-hot object. Class 3: a
  // cold single-access object (unprotected; lost, not rebuilt).
  backend->RegisterObject(Oid(1), 4 * kChunk, stripes->PhysicalSize(4 * kChunk));
  backend->RegisterObject(Oid(2), 8 * kChunk, stripes->PhysicalSize(8 * kChunk));
  backend->RegisterObject(Oid(3), 8 * kChunk, stripes->PhysicalSize(8 * kChunk));
  run([&](SimTime t) { return cache->Put(Oid(1), 4 * kChunk, t); });
  for (int i = 0; i < 12; ++i) {
    run([&](SimTime t) { return cache->Get(Oid(2), 8 * kChunk, t); });
  }
  ASSERT_EQ(*stripes->LevelOf(Oid(2)), RedundancyLevel::kParity2);
  run([&](SimTime t) { return cache->Get(Oid(3), 8 * kChunk, t); });

  failure->OnDeviceFailure(0, clock.now());
  failure->DrainRecovery(clock.now());

  const auto& events = tracer.events().events();
  int failure_at = -1, complete_at = -1;
  std::vector<std::pair<int, const LoggedEvent*>> rebuilds;  // (index, event)
  for (size_t i = 0; i < events.size(); ++i) {
    const LoggedEvent& e = events[i];
    if (e.category == "device.failure" && failure_at < 0) {
      failure_at = static_cast<int>(i);
    } else if (e.category == "recovery.complete") {
      complete_at = static_cast<int>(i);
    } else if (e.category == "recovery.rebuild") {
      rebuilds.emplace_back(static_cast<int>(i), &e);
    }
  }
  ASSERT_GE(failure_at, 0);
  ASSERT_GE(complete_at, 0);
  ASSERT_FALSE(rebuilds.empty());

  // Every rebuild sits between the failure and the completion event, and
  // the on-demand (critical, class <= 1) block strictly precedes the
  // background block, whose classes never decrease.
  bool seen_background = false;
  int prev_background_class = -1;
  for (const auto& [idx, e] : rebuilds) {
    EXPECT_GT(idx, failure_at);
    EXPECT_LT(idx, complete_at);
    int cls = std::stoi(std::string(e->Field("class")));
    if (e->Field("mode") == "on-demand") {
      EXPECT_FALSE(seen_background) << "critical rebuild after background";
      EXPECT_LE(cls, 1);
    } else {
      ASSERT_EQ(e->Field("mode"), "background");
      seen_background = true;
      EXPECT_GE(cls, prev_background_class);
      prev_background_class = cls;
    }
  }
  EXPECT_TRUE(seen_background);  // the hot clean object went through drain

  // The rolled-up timeline mentions the milestones and the class tallies.
  std::string timeline = tracer.events().RecoveryTimeline();
  EXPECT_NE(timeline.find("device.failure"), std::string::npos);
  EXPECT_NE(timeline.find("rebuilds by class"), std::string::npos);
  EXPECT_NE(timeline.find("recovery.complete"), std::string::npos);
}

}  // namespace
}  // namespace reo
