// Log-bucketed latency histogram with percentile queries: the fixed
// bucket layout the telemetry plane's sharded histograms share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace reo {

/// Log-bucketed histogram for non-negative values (e.g. latencies in µs).
/// Buckets grow geometrically (8 per factor of 2); percentile queries
/// interpolate within a bucket. ~9% relative error — ample for reporting.
class Histogram {
 public:
  Histogram();

  void Add(double v);
  void Merge(const Histogram& other);
  void Reset();

  /// Bulk-merge primitive for external aggregators (the telemetry plane's
  /// sharded histograms accumulate into atomic per-domain bucket arrays and
  /// fold them into a plain Histogram at snapshot time): adds `counts`
  /// (length kBuckets) to the buckets plus the raw moments in one call.
  void MergeBuckets(const uint64_t counts[/*kBuckets*/], uint64_t total,
                    double sum, double max);

  /// Windowed-delta view: the samples added to `*this` since `prev` was
  /// captured, assuming `prev` is an earlier snapshot of the same stream
  /// (bucketwise monotone). Bucket counts and sum subtract; `max` cannot be
  /// un-merged from a cumulative stream, so the delta carries the
  /// cumulative max (documented approximation — per-window percentiles
  /// interpolate inside log buckets and clamp at it).
  Histogram DeltaSince(const Histogram& prev) const;

  uint64_t count() const { return total_; }
  double mean() const;
  double sum() const { return sum_; }
  /// Largest value added; 0 if empty.
  double max() const { return max_; }
  /// Value at quantile q in [0, 1]; 0 if empty. Nearest-rank-up with
  /// in-bucket interpolation; Percentile(1.0) == max() exactly.
  double Percentile(double q) const;

  /// One-line summary: count, mean, p50, p99, max.
  std::string Summary() const;

  static constexpr int kBuckets = 256;

  /// Samples recorded in bucket `b` (external aggregators walk the layout).
  uint64_t bucket_count(int b) const { return buckets_[static_cast<size_t>(b)]; }

  /// Bucket index for v: exponent bit-scan plus an exact-crossover threshold
  /// table, no libm call per sample. Agrees with BucketForReference for
  /// every double (the equivalence test pins this).
  static int BucketFor(double v);

  /// The original log2-per-sample formulation, kept as the semantic
  /// definition of the bucketing and the oracle for the equivalence test.
  static int BucketForReference(double v);

 private:
  static double BucketLow(int b);
  static double BucketHigh(int b);

  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace reo
