// Always-on runtime telemetry: a registry of named counters, gauges, and
// log-bucketed histograms shared by every layer of the cache (data plane,
// OSD target, flash array, recovery scheduler, simulator, TCP server).
//
// Design goals, in order:
//   1. Cheap on the hot path. Components resolve their metrics ONCE (at
//      AttachTelemetry time) into raw pointers; per-event cost is a single
//      relaxed atomic increment / store with no map lookup, lock, or
//      allocation.
//   2. Thread-safe by construction, without striping. Each metric is its
//      own relaxed atomics, cache-line aligned so no two metrics share a
//      line. The server gives each shard its own registry and runs each
//      shard's stack under that shard's lock, so a metric's writers
//      already take turns; the atomics keep any other writer exact, and
//      Snapshot() reads them without mutating shared state — readers
//      never perturb writers.
//   3. Optional. Components run un-attached (null pointers) with zero
//      telemetry overhead beyond a predictable branch; the Inc/Set/Observe
//      helpers below fold the null check away from call sites.
//   4. Mergeable & exportable. Histograms reuse common/histogram.h's
//      fixed log-bucket layout (merged across registries at the bucket
//      level); the registry renders one consistent JSON or CSV snapshot.
//
// Metric naming scheme: dot-separated lowercase path,
//   <subsystem>[.<instance>][.<group>].<metric>[_<unit>]
// e.g. "cache.class2.hits", "flash.dev0.writes", "cache.latency.hit_us",
// "recovery.class1.ondemand.rebuilds". Instances are zero-indexed
// ("dev0".."devN", "class0".."class3"). Units are suffixes (_us, _bytes).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace reo {

/// Destination cache-line size for the padding below (std::
/// hardware_destructive_interference_size is 64 on every target we build).
inline constexpr size_t kMetricCacheLine = 64;

/// Monotonically increasing event count: one relaxed atomic on its own
/// cache line.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  alignas(kMetricCacheLine) std::atomic<uint64_t> v_{0};
};

/// Point-in-time level (last write wins). A single relaxed atomic; gauges
/// are updated rarely (per accept/close, per wear recalculation), never
/// per-op.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  alignas(kMetricCacheLine) std::atomic<double> value_{0.0};
};

/// The registry's histogram: one atomic bucket array in common/
/// histogram.h's layout plus count, sum and max, all relaxed, folded into
/// a plain Histogram on demand. One array per metric, not one per writer
/// thread: the server keeps a registry per shard, so a shard's writers
/// already take turns under its lock. Add() is wait-free (two relaxed
/// fetch_adds, one relaxed float accumulate, one bounded CAS loop for the
/// max).
class ShardedHistogram {
 public:
  ShardedHistogram() = default;
  ShardedHistogram(const ShardedHistogram&) = delete;
  ShardedHistogram& operator=(const ShardedHistogram&) = delete;

  void Add(double v) {
    if (v < 0) v = 0;
    buckets_[static_cast<size_t>(Histogram::BucketFor(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    RaiseMax(v);
  }

  /// Bulk-merges a plain (thread-local) histogram in — the load
  /// generator's per-worker rollup path.
  void Merge(const Histogram& other);

  /// Reads the buckets into one plain Histogram. Concurrent Add()s are
  /// fine: each field is read relaxed, so the fold is a consistent-enough
  /// instant (a racing sample may appear in the bucket array but not yet
  /// in the sum, skewing one summary by one sample).
  Histogram Merged() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double max() const { return max_.load(std::memory_order_relaxed); }
  double Percentile(double q) const { return Merged().Percentile(q); }
  std::string Summary() const { return Merged().Summary(); }

  void Reset();

 private:
  void RaiseMax(double v) {
    double m = max_.load(std::memory_order_relaxed);
    while (v > m &&
           !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }

  alignas(kMetricCacheLine)
      std::array<std::atomic<uint64_t>, Histogram::kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Null-tolerant hot-path helpers: un-attached components pass nullptr.
inline void Inc(Counter* c, uint64_t n = 1) {
  if (c) c->Inc(n);
}
inline void Set(Gauge* g, double v) {
  if (g) g->Set(v);
}
inline void Observe(ShardedHistogram* h, double v) {
  if (h) h->Add(v);
}
inline void Observe(Histogram* h, double v) {
  if (h) h->Add(v);
}

/// Flat, copyable export of one registry at one instant. Plain data:
/// reports can carry it by value after the registry is gone.
struct MetricSnapshot {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    double value = 0.0;  ///< counter / gauge reading
    // Histogram summary (kind == kHistogram only).
    uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    double max = 0.0;
    double sum = 0.0;
  };

  std::vector<Entry> entries;  ///< sorted by name

  const Entry* Find(std::string_view name) const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,...}}}
  std::string ToJson() const;
  /// Header + one row per metric:
  /// kind,name,value,count,mean,p50,p99,p999,max,sum
  std::string ToCsv() const;
};

/// Owner of all metrics for one system instance. Registration is
/// idempotent: a second Get* with the same name and kind returns the same
/// object. Re-using a name with a *different* kind is a programming error
/// the registry survives: the caller receives a private scratch metric
/// (excluded from snapshots) and `name_collisions()` records the bug.
/// Metric addresses are stable for the registry's lifetime.
///
/// Thread safety: registration, Reset, and Snapshot serialize on an
/// internal mutex (they are attach/export-path operations); metric
/// *updates* through resolved pointers are lock-free relaxed atomics and
/// may race freely with everything, including Snapshot().
class MetricRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  ShardedHistogram& GetHistogram(const std::string& name);

  /// Number of cross-kind name collisions observed (0 in a healthy system).
  uint64_t name_collisions() const {
    return name_collisions_.load(std::memory_order_relaxed);
  }

  /// Metrics registered (collided scratch metrics excluded).
  size_t size() const;

  /// Zeroes every metric, keeping registrations (and addresses) intact.
  void Reset();

  /// This registry alone: Merged({this}).
  MetricSnapshot Snapshot() const;

  /// One snapshot merged across several registries — the multi-shard
  /// ADMIN STATS view. Counters and gauges sum (gauges are levels of
  /// per-shard resources — active connections, DRAM bytes — whose
  /// whole-process reading is the sum); histograms merge at the BUCKET
  /// level before summarizing, so merged percentiles are computed over
  /// the union of samples, never averaged from per-shard summaries.
  /// A name registered in only some registries merges with zero
  /// contributions from the rest. Null registry pointers are skipped.
  static MetricSnapshot Merged(std::span<const MetricRegistry* const> regs);

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  /// True if `name` is free for `kind` (or already that kind); on
  /// cross-kind clash records the collision and returns false. Caller
  /// holds mu_.
  bool ClaimName(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ShardedHistogram>> histograms_;
  std::map<std::string, Kind> kinds_;

  // Scratch metrics handed out on collision: writable, never exported.
  std::vector<std::unique_ptr<Counter>> orphan_counters_;
  std::vector<std::unique_ptr<Gauge>> orphan_gauges_;
  std::vector<std::unique_ptr<ShardedHistogram>> orphan_histograms_;
  std::atomic<uint64_t> name_collisions_{0};
};

}  // namespace reo
