// Always-on runtime telemetry: a registry of named counters, gauges, and
// log-bucketed histograms shared by every layer of the cache (data plane,
// OSD target, flash array, recovery scheduler, simulator, TCP server).
//
// Design goals, in order:
//   1. Cheap on the hot path. Components resolve their metrics ONCE (at
//      AttachTelemetry time) into raw pointers; per-event cost is a single
//      relaxed atomic increment / store with no map lookup, lock, or
//      allocation.
//   2. Thread-safe by construction. Counters and histogram buffers are
//      striped across kMetricDomains cache-line-padded domains (each
//      writer thread picks a stable domain, so concurrent shards of a
//      future multi-threaded server never contend on one line), updates
//      are relaxed atomics, and Snapshot() aggregates across domains
//      instead of mutating shared state — readers never perturb writers.
//   3. Optional. Components run un-attached (null pointers) with zero
//      telemetry overhead beyond a predictable branch; the Inc/Set/Observe
//      helpers below fold the null check away from call sites.
//   4. Mergeable & exportable. Histograms reuse common/histogram.h's
//      fixed log-bucket layout (merged across domains at snapshot time);
//      the registry renders one consistent JSON or CSV snapshot.
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

/// Update-side striping width. One domain per concurrently-writing thread
/// is the target shape (ROADMAP item 1 plans N serving shards); threads
/// beyond the width share domains correctly (updates stay atomic), they
/// just contend. Power of two so future shard-id masking stays cheap.
inline constexpr size_t kMetricDomains = 8;

/// Stable per-thread domain index in [0, kMetricDomains): assigned
/// round-robin on a thread's first metric update and cached thread-local.
size_t CurrentMetricDomain();

/// Destination cache-line size for the padding below (std::
/// hardware_destructive_interference_size is 64 on every target we build).
inline constexpr size_t kMetricCacheLine = 64;

/// Monotonically increasing event count. Writers add into their own
/// domain's line with relaxed ordering; value() folds the stripes.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    shards_[CurrentMetricDomain()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(kMetricCacheLine) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kMetricDomains> shards_;
};

/// Point-in-time level (last write wins). A single relaxed atomic: striping
/// cannot compose last-write-wins semantics, and gauges are updated rarely
/// (per accept/close, per wear recalculation), never per-op.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  alignas(kMetricCacheLine) std::atomic<double> value_{0.0};
};

/// Thread-safe log-bucketed histogram: per-domain atomic bucket buffers
/// sharing common/histogram.h's bucket layout, folded into a plain
/// Histogram on demand. Add() is wait-free (two relaxed fetch_adds, one
/// relaxed float accumulate, one bounded CAS loop for the max).
class ShardedHistogram {
 public:
  ShardedHistogram() = default;
  ShardedHistogram(const ShardedHistogram&) = delete;
  ShardedHistogram& operator=(const ShardedHistogram&) = delete;

  void Add(double v) {
    if (v < 0) v = 0;
    Shard& s = shards_[CurrentMetricDomain()];
    s.buckets[static_cast<size_t>(Histogram::BucketFor(v))].fetch_add(
        1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    double m = s.max.load(std::memory_order_relaxed);
    while (v > m && !s.max.compare_exchange_weak(m, v,
                                                 std::memory_order_relaxed)) {
    }
  }

  /// Bulk-merges a plain (thread-local) histogram into the caller's
  /// domain — the load generator's per-worker rollup path.
  void Merge(const Histogram& other);

  /// Folds every domain into one plain Histogram. Concurrent Add()s are
  /// fine: each shard's fields are read relaxed, so the fold is a
  /// consistent-enough instant (a racing sample may appear in the bucket
  /// array but not yet in the count, skewing one summary by one sample).
  Histogram Merged() const;

  // Convenience passthroughs (fold on demand; snapshot-path cost only).
  uint64_t count() const;
  double sum() const;
  double mean() const;
  double max() const;
  double Percentile(double q) const { return Merged().Percentile(q); }
  std::string Summary() const { return Merged().Summary(); }

  void Reset();

 private:
  struct alignas(kMetricCacheLine) Shard {
    std::array<std::atomic<uint64_t>, Histogram::kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
  };
  std::array<Shard, kMetricDomains> shards_;
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
