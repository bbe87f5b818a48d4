// MetricRegistry: registration semantics, snapshot export, collisions.
#include "telemetry/metric_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "flash/flash_device.h"

namespace reo {
namespace {

TEST(MetricRegistryTest, CounterGaugeBasics) {
  MetricRegistry reg;
  Counter& c = reg.GetCounter("osd.commands");
  c.Inc();
  c.Inc(9);
  EXPECT_EQ(c.value(), 10u);

  Gauge& g = reg.GetGauge("flash.devices");
  g.Set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);

  ShardedHistogram& h = reg.GetHistogram("cache.latency.hit_us");
  h.Add(100.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricRegistryTest, RegistrationIsIdempotent) {
  MetricRegistry reg;
  Counter& a = reg.GetCounter("cache.class0.hits");
  a.Inc(7);
  Counter& b = reg.GetCounter("cache.class0.hits");
  EXPECT_EQ(&a, &b);  // same object, not a fresh zeroed one
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistryTest, NullTolerantHelpers) {
  // Un-attached components call through null pointers freely.
  Inc(static_cast<Counter*>(nullptr));
  Set(static_cast<Gauge*>(nullptr), 1.0);
  Observe(static_cast<Histogram*>(nullptr), 1.0);
  Observe(static_cast<ShardedHistogram*>(nullptr), 1.0);

  MetricRegistry reg;
  Counter& c = reg.GetCounter("x");
  Inc(&c, 3);
  EXPECT_EQ(c.value(), 3u);
}

TEST(MetricRegistryTest, CrossKindCollisionYieldsScratchMetric) {
  MetricRegistry reg;
  Counter& c = reg.GetCounter("cache.hits");
  c.Inc(4);

  // Same name, different kind: the caller gets a writable scratch gauge
  // instead of a crash or a corrupted counter.
  Gauge& g = reg.GetGauge("cache.hits");
  g.Set(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  EXPECT_EQ(reg.name_collisions(), 1u);
  EXPECT_EQ(c.value(), 4u);  // original counter untouched
  EXPECT_EQ(reg.size(), 1u);  // scratch metric not registered

  // Snapshot keeps the original registration only.
  MetricSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].kind, MetricSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(snap.entries[0].value, 4.0);
}

TEST(MetricRegistryTest, SnapshotSortedAndFindable) {
  MetricRegistry reg;
  reg.GetCounter("b.second").Inc(2);
  reg.GetCounter("a.first").Inc(1);
  reg.GetGauge("c.third").Set(3.0);

  MetricSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "a.first");
  EXPECT_EQ(snap.entries[1].name, "b.second");
  EXPECT_EQ(snap.entries[2].name, "c.third");

  const MetricSnapshot::Entry* e = snap.Find("b.second");
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->value, 2.0);
  EXPECT_EQ(snap.Find("no.such.metric"), nullptr);
}

TEST(MetricRegistryTest, HistogramSnapshotSummarizes) {
  MetricRegistry reg;
  ShardedHistogram& h = reg.GetHistogram("cache.latency.miss_us");
  for (int i = 1; i <= 100; ++i) h.Add(static_cast<double>(i) * 10.0);

  MetricSnapshot snap = reg.Snapshot();
  const MetricSnapshot::Entry* e = snap.Find("cache.latency.miss_us");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricSnapshot::Kind::kHistogram);
  EXPECT_EQ(e->count, 100u);
  EXPECT_NEAR(e->mean, 505.0, 1e-9);
  EXPECT_GT(e->p99, e->p50);
  EXPECT_GE(e->p999, e->p99);
  EXPECT_DOUBLE_EQ(e->max, 1000.0);
}

TEST(MetricRegistryTest, JsonExportShape) {
  MetricRegistry reg;
  reg.GetCounter("osd.reads").Inc(3);
  reg.GetGauge("flash.devices").Set(5.0);
  reg.GetHistogram("cache.latency.hit_us").Add(42.0);

  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\":{\"osd.reads\":3}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"flash.devices\":5}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cache.latency.hit_us\":{\"count\":1"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricRegistryTest, NonFiniteGaugeStaysValidJson) {
  // An unbounded classifier threshold sets a gauge to +inf; JSON has no
  // literal for that, so the exporter must render null, not "inf".
  MetricRegistry reg;
  reg.GetGauge("cache.h_hot").Set(std::numeric_limits<double>::infinity());
  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"cache.h_hot\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(MetricRegistryTest, CsvExportShape) {
  MetricRegistry reg;
  reg.GetCounter("osd.reads").Inc(3);
  reg.GetHistogram("cache.latency.hit_us").Add(42.0);

  std::string csv = reg.Snapshot().ToCsv();
  EXPECT_EQ(csv.rfind("kind,name,value,count,mean,p50,p99,p999,max,sum\n", 0),
            0u)
      << csv;
  EXPECT_NE(csv.find("counter,osd.reads,3"), std::string::npos) << csv;
  EXPECT_NE(csv.find("histogram,cache.latency.hit_us,"), std::string::npos)
      << csv;
}

// Snapshot() is the one-registry merge, so a one-shard server and a
// one-shard simulator export exactly what a registry alone always did.
// The expected text pins those bytes: counters, negative, zero and
// negative-zero gauges, a filled and an empty histogram.
TEST(MetricRegistryTest, SnapshotIsTheOneRegistryMerge) {
  MetricRegistry reg;
  reg.GetCounter("osd.reads").Inc(7);
  reg.GetCounter("osd.writes");
  reg.GetGauge("cache.h_hot").Set(-2.5);
  reg.GetGauge("flash.devices").Set(0.0);
  reg.GetGauge("server.connections.active").Set(-0.0);
  ShardedHistogram& h = reg.GetHistogram("server.latency.read_us");
  for (int i = 1; i <= 10; ++i) h.Add(i * 3.0);
  reg.GetHistogram("server.latency.write_us");

  const MetricRegistry* one[] = {&reg};
  MetricSnapshot merged = MetricRegistry::Merged(one);
  MetricSnapshot snap = reg.Snapshot();
  EXPECT_EQ(merged.ToJson(), snap.ToJson());
  EXPECT_EQ(merged.ToCsv(), snap.ToCsv());
  EXPECT_EQ(snap.ToJson(),
            "{\"counters\":{\"osd.reads\":7,\"osd.writes\":0},"
            "\"gauges\":{\"cache.h_hot\":-2.5,\"flash.devices\":0,"
            "\"server.connections.active\":-0},"
            "\"histograms\":{\"server.latency.read_us\":{\"count\":10,"
            "\"mean\":16.5,\"p50\":16,\"p99\":30,\"p999\":30,\"max\":30,"
            "\"sum\":165},\"server.latency.write_us\":{\"count\":0,"
            "\"mean\":0,\"p50\":0,\"p99\":0,\"p999\":0,\"max\":0,\"sum\":0}}}");
  EXPECT_EQ(snap.ToCsv(),
            "kind,name,value,count,mean,p50,p99,p999,max,sum\n"
            "gauge,cache.h_hot,-2.5,,,,,,,\n"
            "gauge,flash.devices,0,,,,,,,\n"
            "counter,osd.reads,7,,,,,,,\n"
            "counter,osd.writes,0,,,,,,,\n"
            "gauge,server.connections.active,-0,,,,,,,\n"
            "histogram,server.latency.read_us,,10,16.5,16,30,30,30,165\n"
            "histogram,server.latency.write_us,,0,0,0,0,0,0,0\n");
}

TEST(MetricRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricRegistry reg;
  Counter& c = reg.GetCounter("osd.reads");
  Gauge& g = reg.GetGauge("flash.devices");
  ShardedHistogram& h = reg.GetHistogram("cache.latency.hit_us");
  c.Inc(3);
  g.Set(5.0);
  h.Add(42.0);

  reg.Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(&c, &reg.GetCounter("osd.reads"));  // addresses stable
}

TEST(MetricRegistryTest, CsvEscapesDelimitersInNames) {
  // Metric names are caller-chosen strings; one with a comma, quote, or
  // newline must not shift the CSV columns of every row after it.
  MetricRegistry reg;
  reg.GetCounter("plain.reads").Inc(7);
  reg.GetCounter("weird,name").Inc(1);
  reg.GetCounter("say \"what\"").Inc(2);
  reg.GetGauge("multi\nline").Set(3.0);
  MetricSnapshot snap = reg.Snapshot();
  std::string csv = snap.ToCsv();

  EXPECT_NE(csv.find("counter,plain.reads,7"), std::string::npos);
  // RFC 4180: quote the field, double embedded quotes.
  EXPECT_NE(csv.find("counter,\"weird,name\",1"), std::string::npos);
  EXPECT_NE(csv.find("counter,\"say \"\"what\"\"\",2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,\"multi\nline\",3"), std::string::npos);

  // Every unquoted line still has exactly 8 commas (9 columns).
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t eol = csv.find('\n', pos);
    std::string line = csv.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find('"') != std::string::npos) continue;  // quoted: multi-line
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 9) << line;
  }
}

TEST(MetricRegistryTest, DeviceCountersSurviveSpareReplacement) {
  // A spare swapped into an array position must keep reporting under the
  // same metric names (counters are position-lifetime, not device-lifetime).
  MetricRegistry reg;
  FlashDeviceConfig cfg;
  cfg.capacity_bytes = 1 << 20;
  FlashDevice dev(cfg);
  dev.AttachTelemetry(reg, "flash.dev0");

  auto slot = dev.AllocateSlot(4096);
  ASSERT_TRUE(slot.ok());
  std::vector<uint8_t> payload(4096, 0xAB);
  ASSERT_TRUE(dev.WriteSlot(*slot, payload).ok());
  uint64_t writes_before = reg.GetCounter("flash.dev0.writes").value();
  EXPECT_GT(writes_before, 0u);

  dev.Fail();
  dev.Replace();

  // Same registry entries, still wired to the fresh device.
  auto slot2 = dev.AllocateSlot(4096);
  ASSERT_TRUE(slot2.ok());
  ASSERT_TRUE(dev.WriteSlot(*slot2, payload).ok());
  EXPECT_GT(reg.GetCounter("flash.dev0.writes").value(), writes_before);
  EXPECT_EQ(reg.name_collisions(), 0u);
}

TEST(MetricRegistryTest, SnapshotExportsHistogramSum) {
  MetricRegistry reg;
  ShardedHistogram& h = reg.GetHistogram("server.latency.read_us");
  h.Add(10.0);
  h.Add(30.0);

  MetricSnapshot snap = reg.Snapshot();
  const MetricSnapshot::Entry* e = snap.Find("server.latency.read_us");
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->sum, 40.0);
  EXPECT_NE(snap.ToJson().find("\"sum\":40"), std::string::npos);
  EXPECT_NE(snap.ToCsv().find(",40\n"), std::string::npos);
}

TEST(MetricRegistryTest, ShardedHistogramMergesPlainHistogram) {
  // The load generator's rollup path: per-worker plain histograms merged
  // into one registry histogram. Percentiles must survive the trip — the
  // merge has to carry buckets, not just moments.
  Histogram worker_a;
  Histogram worker_b;
  for (int i = 1; i <= 50; ++i) worker_a.Add(10.0);
  for (int i = 1; i <= 50; ++i) worker_b.Add(1000.0);

  MetricRegistry reg;
  ShardedHistogram& h = reg.GetHistogram("loadgen.latency.all_us");
  h.Merge(worker_a);
  h.Merge(worker_b);

  Histogram folded = h.Merged();
  EXPECT_EQ(folded.count(), 100u);
  EXPECT_DOUBLE_EQ(folded.sum(), 50.0 * 10.0 + 50.0 * 1000.0);
  EXPECT_DOUBLE_EQ(folded.max(), 1000.0);
  EXPECT_LT(folded.Percentile(0.25), 20.0);   // low half near 10
  EXPECT_GT(folded.Percentile(0.75), 800.0);  // high half near 1000
}

// --- Concurrency: the registry's core thread-safety contract. Run under
// TSan (the dedicated CI job builds these tests with -fsanitize=thread);
// the exactness assertions below catch lost updates even without it.

TEST(MetricRegistryTest, ConcurrentCountersAreExact) {
  MetricRegistry reg;
  Counter& c = reg.GetCounter("server.requests");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(MetricRegistryTest, ConcurrentHistogramObservationsAreExact) {
  MetricRegistry reg;
  ShardedHistogram& h = reg.GetHistogram("server.latency.read_us");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20'000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Add(static_cast<double>((t + 1) * 100));
      }
    });
  }
  for (auto& t : threads) t.join();

  Histogram folded = h.Merged();
  EXPECT_EQ(folded.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(folded.max(), 800.0);
  // Every sample landed in a bucket: the bucket total matches the count.
  uint64_t bucketed = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    bucketed += folded.bucket_count(b);
  }
  EXPECT_EQ(bucketed, kThreads * kPerThread);
}

TEST(MetricRegistryTest, SnapshotWhileWritingIsMonotoneAndSane) {
  // Readers must never perturb writers or observe garbage: counters in a
  // mid-flight snapshot are between 0 and the final total and never
  // decrease across successive snapshots.
  MetricRegistry reg;
  Counter& c = reg.GetCounter("server.requests");
  ShardedHistogram& h = reg.GetHistogram("server.latency.read_us");
  constexpr int kWriters = 4;
  constexpr uint64_t kPerThread = 50'000;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Inc();
        h.Add(50.0);
      }
    });
  }
  std::thread reader([&] {
    double prev = 0.0;
    while (!done.load(std::memory_order_acquire)) {
      MetricSnapshot snap = reg.Snapshot();
      const MetricSnapshot::Entry* e = snap.Find("server.requests");
      ASSERT_NE(e, nullptr);
      EXPECT_GE(e->value, prev);
      EXPECT_LE(e->value, static_cast<double>(kWriters * kPerThread));
      prev = e->value;
      const MetricSnapshot::Entry* lh = snap.Find("server.latency.read_us");
      ASSERT_NE(lh, nullptr);
      EXPECT_LE(lh->count, kWriters * kPerThread);
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(c.value(), kWriters * kPerThread);
  EXPECT_EQ(h.count(), kWriters * kPerThread);
}

TEST(MetricRegistryTest, ConcurrentRegistrationReturnsStableObjects) {
  // Many threads race to register overlapping names; every thread must get
  // the same object per name and no update may be lost.
  MetricRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 100; ++i) {
        reg.GetCounter("shared.counter." + std::to_string(i % 10)).Inc();
        reg.GetHistogram("shared.hist." + std::to_string(i % 10)).Add(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t total = 0;
  for (int i = 0; i < 10; ++i) {
    total += reg.GetCounter("shared.counter." + std::to_string(i)).value();
  }
  EXPECT_EQ(total, kThreads * 100u);
  EXPECT_EQ(reg.name_collisions(), 0u);
  EXPECT_EQ(reg.size(), 20u);
}

}  // namespace
}  // namespace reo
