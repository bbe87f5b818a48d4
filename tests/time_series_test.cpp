// TimeSeriesRing: window boundary math, rollover, gap fast-forward,
// per-window percentiles, JSON export shape — plus the JsonDoc reader the
// admin tooling uses to consume that export.
#include "telemetry/time_series.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/json_scan.h"

namespace reo {
namespace {

constexpr uint64_t kMs = 1'000'000;  // ns

TimeSeriesConfig SmallCfg(uint64_t window_ms = 10, size_t capacity = 4) {
  TimeSeriesConfig cfg;
  cfg.window_ns = window_ms * kMs;
  cfg.capacity = capacity;
  return cfg;
}

TEST(TimeSeriesTest, CounterDeltasLandInTheRightWindows) {
  MetricRegistry reg;
  Counter& c = reg.GetCounter("server.requests");
  TimeSeriesRing ring(SmallCfg());
  ring.TrackCounter("server.requests", &c);

  ring.Advance(0);  // epoch: opens [0, 10ms)
  c.Inc(5);
  ring.Advance(10 * kMs);  // closes [0,10): delta 5
  c.Inc(7);
  ring.Advance(9 * kMs);   // before epoch of open window? no-op (monotone)
  ring.Advance(20 * kMs);  // closes [10,20): delta 7

  EXPECT_EQ(ring.windows(), 2u);
  std::vector<double> v = ring.Values("server.requests");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 5.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
  std::vector<uint64_t> t = ring.WindowStartMs();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], 0u);
  EXPECT_EQ(t[1], 10u);
}

TEST(TimeSeriesTest, BoundaryIsHalfOpen) {
  // A window [s, s+W) closes exactly when now reaches s+W, not before.
  MetricRegistry reg;
  Counter& c = reg.GetCounter("x");
  TimeSeriesRing ring(SmallCfg());
  ring.TrackCounter("x", &c);

  ring.Advance(0);
  c.Inc(1);
  ring.Advance(10 * kMs - 1);  // one ns short: still open
  EXPECT_EQ(ring.windows(), 0u);
  ring.Advance(10 * kMs);  // exactly the edge: closes
  EXPECT_EQ(ring.windows(), 1u);

  // Multiple whole windows elapse in one call: each closes; the delta
  // lands in the first (re-reads between closes see no new increments).
  c.Inc(9);
  ring.Advance(40 * kMs);
  EXPECT_EQ(ring.windows(), 4u);
  std::vector<double> v = ring.Values("x");
  EXPECT_DOUBLE_EQ(v[1], 9.0);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
  EXPECT_DOUBLE_EQ(v[3], 0.0);
}

TEST(TimeSeriesTest, RolloverKeepsNewestCapacityWindows) {
  MetricRegistry reg;
  Counter& c = reg.GetCounter("x");
  TimeSeriesRing ring(SmallCfg(10, 4));
  ring.TrackCounter("x", &c);

  ring.Advance(0);
  for (int w = 1; w <= 7; ++w) {
    c.Inc(static_cast<uint64_t>(w));
    ring.Advance(static_cast<uint64_t>(w) * 10 * kMs);
  }
  // 7 windows closed with deltas 1..7; only the last 4 retained.
  EXPECT_EQ(ring.windows(), 4u);
  std::vector<double> v = ring.Values("x");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 4.0);
  EXPECT_DOUBLE_EQ(v[3], 7.0);
  std::vector<uint64_t> t = ring.WindowStartMs();
  EXPECT_EQ(t[0], 30u);
  EXPECT_EQ(t[3], 60u);
  EXPECT_EQ(ring.skipped_windows(), 0u);  // rollover is not a gap

  // max_windows trims from the oldest side.
  std::vector<double> last2 = ring.Values("x", 2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_DOUBLE_EQ(last2[0], 6.0);
  EXPECT_DOUBLE_EQ(last2[1], 7.0);
}

TEST(TimeSeriesTest, LongStallFastForwardsAndCountsSkippedWindows) {
  MetricRegistry reg;
  Counter& c = reg.GetCounter("x");
  TimeSeriesRing ring(SmallCfg(10, 4));
  ring.TrackCounter("x", &c);

  ring.Advance(0);
  c.Inc(100);
  // 1000 windows elapse in one call: only capacity materialize, the rest
  // are accounted, and the whole stalled delta lands in the first
  // materialized window. Cost is O(capacity), not O(elapsed).
  ring.Advance(10'000 * kMs);
  EXPECT_EQ(ring.windows(), 4u);
  EXPECT_EQ(ring.skipped_windows(), 996u);
  std::vector<double> v = ring.Values("x");
  EXPECT_DOUBLE_EQ(v[0], 100.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);

  // Timeline stays aligned after the jump: next window continues from now.
  c.Inc(3);
  ring.Advance(10'010 * kMs);
  EXPECT_DOUBLE_EQ(ring.Values("x").back(), 3.0);
  std::vector<uint64_t> t = ring.WindowStartMs();
  for (size_t i = 1; i < t.size(); ++i) EXPECT_GT(t[i], t[i - 1]);
}

TEST(TimeSeriesTest, GaugeIsSampledNotDeltaed) {
  MetricRegistry reg;
  Gauge& g = reg.GetGauge("server.connections.active");
  TimeSeriesRing ring(SmallCfg());
  ring.TrackGauge("conns", &g);

  ring.Advance(0);
  g.Set(3.0);
  ring.Advance(10 * kMs);
  // No further Set: the level carries forward into later windows.
  ring.Advance(30 * kMs);
  std::vector<double> v = ring.Values("conns");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 3.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(TimeSeriesTest, RatioIsDeltaOverDeltaAndEmptyWindowIsNaN) {
  MetricRegistry reg;
  Counter& miss = reg.GetCounter("osd.read_misses");
  Counter& reads = reg.GetCounter("osd.reads");
  TimeSeriesRing ring(SmallCfg());
  ring.TrackRatio("miss_ratio", {&miss}, {&reads});

  // Pre-epoch traffic must not leak into the first window.
  miss.Inc(1000);
  reads.Inc(1000);
  ring.Advance(0);

  miss.Inc(1);
  reads.Inc(4);
  ring.Advance(10 * kMs);  // 1/4
  ring.Advance(20 * kMs);  // no ops: NaN window
  std::vector<double> v = ring.Values("miss_ratio");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_TRUE(std::isnan(v[1]));
}

TEST(TimeSeriesTest, MultiCounterRatioSumsBothSides) {
  MetricRegistry reg;
  Counter& w0 = reg.GetCounter("flash.dev0.writes");
  Counter& w1 = reg.GetCounter("flash.dev1.writes");
  Counter& ops = reg.GetCounter("server.requests");
  TimeSeriesRing ring(SmallCfg());
  ring.TrackRatio("flash.writes_per_op", {&w0, &w1}, {&ops});

  ring.Advance(0);
  w0.Inc(6);
  w1.Inc(4);
  ops.Inc(5);
  ring.Advance(10 * kMs);
  std::vector<double> v = ring.Values("flash.writes_per_op");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
}

TEST(TimeSeriesTest, HistogramTracksPerWindowPercentiles) {
  MetricRegistry reg;
  ShardedHistogram& h = reg.GetHistogram("server.latency.read_us");
  TimeSeriesRing ring(SmallCfg());
  ring.TrackHistogram("server.latency.read_us", &h);

  ring.Advance(0);
  for (int i = 0; i < 100; ++i) h.Add(100.0);
  ring.Advance(10 * kMs);
  for (int i = 0; i < 100; ++i) h.Add(10000.0);
  ring.Advance(20 * kMs);

  std::vector<double> p50 = ring.Values("server.latency.read_us.p50");
  std::vector<double> count = ring.Values("server.latency.read_us.count");
  ASSERT_EQ(p50.size(), 2u);
  // Per-window percentiles reflect only that window's samples: the slow
  // second window must not be averaged down by the fast first one.
  EXPECT_NEAR(p50[0], 100.0, 100.0 * 0.10);
  EXPECT_GT(p50[1], 5000.0);
  EXPECT_DOUBLE_EQ(count[0], 100.0);
  EXPECT_DOUBLE_EQ(count[1], 100.0);
  std::vector<double> p99 = ring.Values("server.latency.read_us.p99");
  EXPECT_GE(p99[1], p50[1]);
}

TEST(TimeSeriesTest, ToJsonIsWellFormedAndRoundTrips) {
  MetricRegistry reg;
  Counter& c = reg.GetCounter("server.requests");
  Counter& miss = reg.GetCounter("osd.read_misses");
  Counter& reads = reg.GetCounter("osd.reads");
  ShardedHistogram& h = reg.GetHistogram("server.latency.read_us");
  TimeSeriesRing ring(SmallCfg());
  ring.TrackCounter("server.requests", &c);
  ring.TrackRatio("osd.read_miss_ratio", {&miss}, {&reads});
  ring.TrackHistogram("server.latency.read_us", &h);

  ring.Advance(0);
  c.Inc(42);
  h.Add(100.0);
  ring.Advance(10 * kMs);
  ring.Advance(20 * kMs);  // empty window: ratio NaN -> null

  std::string json = ring.ToJson();
  JsonDoc::Error error;
  EXPECT_TRUE(JsonDoc::Check(json, &error)) << error.reason << "\n" << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;

  auto doc = JsonDoc::Parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  EXPECT_EQ(doc->str(doc->Find({"schema"})), "reo.series.v1");
  EXPECT_DOUBLE_EQ(doc->number(doc->Find({"window_ms"})), 10.0);
  EXPECT_DOUBLE_EQ(doc->number(doc->Find({"windows"})), 2.0);
  std::vector<double> reqs =
      doc->NumberArray(doc->Find({"series", "server.requests"}));
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_DOUBLE_EQ(reqs[0], 42.0);
  std::vector<double> ratio =
      doc->NumberArray(doc->Find({"series", "osd.read_miss_ratio"}));
  ASSERT_EQ(ratio.size(), 2u);
  EXPECT_TRUE(std::isnan(ratio[1]));  // null decodes as NaN
  EXPECT_EQ(doc->NumberArray(doc->Find({"t_ms"})).size(), 2u);
}

TEST(TimeSeriesTest, TrackServingDefaultsWiresTheStandardColumns) {
  MetricRegistry reg;
  TimeSeriesRing ring(SmallCfg(10, 8));
  TrackServingDefaults(reg, ring, 3);

  ring.Advance(0);
  reg.GetCounter("server.requests").Inc(10);
  reg.GetCounter("osd.reads").Inc(8);
  reg.GetCounter("osd.read_misses").Inc(2);
  reg.GetCounter("flash.dev0.writes").Inc(3);
  reg.GetCounter("flash.dev2.writes").Inc(2);
  reg.GetHistogram("server.latency.read_us").Add(120.0);
  ring.Advance(10 * kMs);

  EXPECT_DOUBLE_EQ(ring.Values("server.requests")[0], 10.0);
  EXPECT_DOUBLE_EQ(ring.Values("osd.read_miss_ratio")[0], 0.25);
  EXPECT_DOUBLE_EQ(ring.Values("flash.writes_per_op")[0], 0.5);
  EXPECT_EQ(ring.Values("server.latency.read_us.count").size(), 1u);
  EXPECT_GT(ring.columns(), 20u);
  EXPECT_EQ(reg.name_collisions(), 0u);
}

TEST(TimeSeriesTest, ConcurrentAdvanceAndExportStaysConsistent) {
  // The server's poll timer advances while admin connections export: no
  // torn windows, no crashes, every export parses.
  MetricRegistry reg;
  Counter& c = reg.GetCounter("server.requests");
  ShardedHistogram& h = reg.GetHistogram("server.latency.read_us");
  TimeSeriesRing ring(SmallCfg(1, 16));
  ring.TrackCounter("server.requests", &c);
  ring.TrackHistogram("server.latency.read_us", &h);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t now = 0;
    while (!stop.load(std::memory_order_acquire)) {
      c.Inc();
      h.Add(50.0);
      now += kMs;
      ring.Advance(now);
    }
  });
  for (int i = 0; i < 200; ++i) {
    std::string json = ring.ToJson(8);
    auto doc = JsonDoc::Parse(json);
    ASSERT_TRUE(doc.has_value()) << json;
    size_t windows =
        static_cast<size_t>(doc->number(doc->Find({"windows"})));
    EXPECT_LE(windows, 16u);
    EXPECT_EQ(doc->NumberArray(doc->Find({"t_ms"})).size(),
              std::min<size_t>(windows, 8u));
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

// --- JsonDoc reader edge cases (the admin tooling's parse path).

TEST(JsonScanTest, ParsesScalarsStringsAndNesting) {
  auto doc = JsonDoc::Parse(
      " {\"a\":1.5e2, \"b\":[true,false,null,\"x\\n\\u0041\"],"
      "\"c\":{\"d.dotted\":-7}} ");
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->number(doc->Find({"a"})), 150.0);
  int b = doc->Find({"b"});
  ASSERT_EQ(doc->size(b), 4u);
  EXPECT_TRUE(doc->boolean(doc->item(b, 0)));
  EXPECT_EQ(doc->type(doc->item(b, 2)), JsonDoc::Type::kNull);
  EXPECT_EQ(doc->str(doc->item(b, 3)), "x\nA");
  // Dotted keys look up exactly (metric names carry dots).
  EXPECT_DOUBLE_EQ(doc->number(doc->Find({"c", "d.dotted"})), -7.0);
}

TEST(JsonScanTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonDoc::Parse("").has_value());
  EXPECT_FALSE(JsonDoc::Parse("{").has_value());
  EXPECT_FALSE(JsonDoc::Parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(JsonDoc::Parse("[1,2,]").has_value());
  EXPECT_FALSE(JsonDoc::Parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(JsonDoc::Parse("01").has_value());
  EXPECT_FALSE(JsonDoc::Parse("1 2").has_value());  // trailing garbage
  EXPECT_FALSE(JsonDoc::Parse("\"unterminated").has_value());
  EXPECT_FALSE(JsonDoc::Parse("{\"a\":\"\x01\"}").has_value());
  EXPECT_FALSE(JsonDoc::Parse("nul").has_value());
  // Depth bomb: deeper than kMaxDepth must fail cleanly, not overflow.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonDoc::Parse(deep).has_value());
}

TEST(JsonScanTest, ReportsTheOffsetAndReasonOfTheFirstError) {
  struct Case {
    const char* text;
    size_t offset;
    const char* reason;
  };
  const Case cases[] = {
      {"{\"a\" 1}", 5, "expected ':'"},
      {"[1,2,]", 5, "expected a value"},
      {"{\"a\":\"x\x01\"}", 7, "raw control character in string"},
  };
  for (const Case& c : cases) {
    // Both passes run the one grammar, so they stop at the same byte.
    JsonDoc::Error parse_error, check_error;
    EXPECT_FALSE(JsonDoc::Parse(c.text, &parse_error).has_value()) << c.text;
    EXPECT_FALSE(JsonDoc::Check(c.text, &check_error)) << c.text;
    for (const JsonDoc::Error& e : {parse_error, check_error}) {
      EXPECT_EQ(e.offset, c.offset) << c.text;
      EXPECT_EQ(e.reason, c.reason) << c.text;
    }
  }
}

TEST(JsonScanTest, CheckStopsADepthBombJustPastTheLimit) {
  // 1 MiB of '[' recursed once per byte would overflow the stack; the
  // DOM-free pass keeps kMaxDepth and fails on the first level past it.
  std::string bomb(1 << 20, '[');
  JsonDoc::Error error;
  EXPECT_FALSE(JsonDoc::Check(bomb, &error));
  EXPECT_EQ(error.offset, static_cast<size_t>(JsonDoc::kMaxDepth) + 1);
  EXPECT_NE(error.reason.find("nested deeper"), std::string::npos)
      << error.reason;
}

TEST(JsonScanTest, CheckVisitsEveryStringMemberDecoded) {
  std::vector<std::pair<std::string, std::string>> seen;
  EXPECT_TRUE(JsonDoc::Check(
      "{\"ph\":\"X\",\"n\":1,\"a\":[\"skip\",{\"ph\":\"i\\n\"}],"
      "\"o\":{\"k\":\"\\u0041\"}}",
      nullptr, [&](std::string_view key, std::string_view value) {
        seen.emplace_back(key, value);
      }));
  // "skip" sits in an array, so it is no member, and "n" holds a number:
  // neither is visited. Nested objects are visited in document order.
  std::vector<std::pair<std::string, std::string>> want = {
      {"ph", "X"}, {"ph", "i\n"}, {"k", "A"}};
  EXPECT_EQ(seen, want);
}

TEST(JsonScanTest, IntegerAcceptsOnlyExactValuesInRange) {
  auto doc = JsonDoc::Parse(
      "{\"a\":5,\"b\":2.5,\"c\":-1,\"d\":9007199254740994,\"e\":true,"
      "\"f\":1e20}");
  ASSERT_TRUE(doc.has_value());
  auto at = [&](const char* key, int64_t min, int64_t max) {
    return doc->integer(doc->Find({key}), min, max);
  };
  EXPECT_EQ(at("a", 0, 10), 5);
  EXPECT_EQ(at("a", 6, 10), std::nullopt);
  EXPECT_EQ(at("b", 0, 10), std::nullopt);  // fraction
  EXPECT_EQ(at("c", 0, 10), std::nullopt);
  EXPECT_EQ(at("c", -1, 10), -1);
  EXPECT_EQ(at("d", 0, INT64_MAX), std::nullopt);  // past 2^53
  EXPECT_EQ(at("e", 0, 10), std::nullopt);         // a bool is no number
  EXPECT_EQ(at("f", INT64_MIN, INT64_MAX), std::nullopt);
  EXPECT_EQ(at("missing", 0, 10), std::nullopt);
}

TEST(JsonScanTest, MissingLookupsAreInvalidNotUb) {
  auto doc = JsonDoc::Parse("{\"a\":[1]}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find({"zzz"}), JsonDoc::kInvalid);
  EXPECT_EQ(doc->Find({"a", "b"}), JsonDoc::kInvalid);  // array, not object
  EXPECT_EQ(doc->item(doc->Find({"a"}), 5), JsonDoc::kInvalid);
  EXPECT_DOUBLE_EQ(doc->number(JsonDoc::kInvalid), 0.0);
  EXPECT_EQ(doc->str(JsonDoc::kInvalid), "");
  EXPECT_EQ(doc->size(JsonDoc::kInvalid), 0u);
}

}  // namespace
}  // namespace reo
