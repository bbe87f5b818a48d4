// EventLog's thread-safety contract: many writers emit concurrently into
// the one mutex-guarded log while readers snapshot.
// Run under TSan (the dedicated CI job builds this binary with
// -fsanitize=thread); the exactness assertions below catch lost updates and
// broken ordering even without it.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "trace/event_log.h"

namespace reo {
namespace {

TEST(EventLogConcurrencyTest, ConcurrentEmitsAreExactAndBounded) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5'000;
  EventLog log(kThreads * kPerThread);  // roomy: nothing should drop

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        log.Emit(static_cast<SimTime>(i), EventSeverity::kInfo,
                 "test.writer" + std::to_string(t), std::to_string(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(log.size(), kThreads * kPerThread);
  EXPECT_EQ(log.dropped(), 0u);

  // Per-thread program order survives: each writer's own events appear
  // in increasing sequence in the log.
  const auto& events = log.events();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  std::vector<uint64_t> next(kThreads, 0);
  for (const auto& e : events) {
    int writer = e.category.back() - '0';
    ASSERT_GE(writer, 0);
    ASSERT_LT(writer, kThreads);
    EXPECT_EQ(e.message, std::to_string(next[writer]));
    ++next[writer];
  }
}

TEST(EventLogConcurrencyTest, CapacityBoundHoldsUnderContention) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 2'000;
  constexpr size_t kCapacity = 1'000;  // far less than the emit total
  EventLog log(kCapacity);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        log.Emit(0, EventSeverity::kInfo, "test.flood", "x");
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(log.size(), kCapacity);
  EXPECT_EQ(log.dropped(), kThreads * kPerThread - kCapacity);
  EXPECT_EQ(log.events().size(), kCapacity);
}

TEST(EventLogConcurrencyTest, ReadersAreSafeAgainstConcurrentEmit) {
  // ToText/ToJson/RecoveryTimeline/size/dropped all aggregate on read and
  // must never crash or report garbage while writers are mid-flight.
  constexpr int kWriters = 4;
  constexpr uint64_t kPerThread = 10'000;
  EventLog log(kWriters * kPerThread);
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&log] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        log.Emit(static_cast<SimTime>(i), EventSeverity::kWarn,
                 "device.failure", "shot", {{"device", "0"}});
      }
    });
  }
  std::thread reader([&] {
    size_t prev = 0;
    while (!done.load(std::memory_order_acquire)) {
      size_t n = log.size();
      EXPECT_GE(n, prev);
      EXPECT_LE(n, kWriters * kPerThread);
      prev = n;
      // Writers keep emitting between reads, so no count assertion on
      // the rendered views — exercising them race-free is the contract.
      std::string text = log.ToText();
      std::string json = log.ToJson(16);
      EXPECT_NE(json.find("\"schema\":\"reo.events.v1\""), std::string::npos);
      std::string timeline = log.RecoveryTimeline();
      EXPECT_NE(timeline.find("== Recovery timeline =="), std::string::npos);
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(log.size(), kWriters * kPerThread);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogConcurrencyTest, ClearResetsEverything) {
  EventLog log(8);
  for (int i = 0; i < 12; ++i) {
    log.Emit(i, EventSeverity::kInfo, "test.fill", "x");
  }
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(log.dropped(), 4u);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(log.events().empty());
  log.Emit(0, EventSeverity::kInfo, "test.after", "y");
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.events()[0].category, "test.after");
}

}  // namespace
}  // namespace reo
