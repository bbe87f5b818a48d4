#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace reo {

Histogram::Histogram() : buckets_(kBuckets, 0) {}

int Histogram::BucketForReference(double v) {
  if (v <= 1.0) return 0;
  // 8 buckets per factor of 2 (~9 % resolution), covering up to ~2^31.
  int b = static_cast<int>(std::log2(v) * 8.0) + 1;
  return std::clamp(b, 0, kBuckets - 1);
}

namespace {

// t[b] = smallest double whose reference bucket is >= b. Computed once by
// binary search over positive-double bit patterns (ordered the same as the
// values) against the reference formula, so the razor-edge rounding of
// log2(v)*8 at each boundary is captured exactly rather than re-derived.
struct BucketCrossovers {
  double t[Histogram::kBuckets];
};

const BucketCrossovers& Crossovers() {
  static const BucketCrossovers table = [] {
    BucketCrossovers c{};
    c.t[0] = 0.0;
    for (int b = 1; b < Histogram::kBuckets; ++b) {
      uint64_t lo = std::bit_cast<uint64_t>(1.0);
      // 2^33 buckets far past the clamp, so Ref(hi) >= b for every b.
      uint64_t hi = std::bit_cast<uint64_t>(std::exp2(33.0));
      while (lo < hi) {
        uint64_t mid = lo + (hi - lo) / 2;
        if (Histogram::BucketForReference(std::bit_cast<double>(mid)) >= b) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      c.t[b] = std::bit_cast<double>(lo);
    }
    return c;
  }();
  return table;
}

}  // namespace

int Histogram::BucketFor(double v) {
  if (v <= 1.0) return 0;
  // v > 1 is a normal double, so its biased exponent gives floor-ish log2:
  // the bucket lies in [8e+1, 8e+9] (2^e maps exactly to 8e+1 because
  // log2(2^e)*8 is exact; the top slot exists because log2 of a value just
  // under 2^(e+1) rounds up to exactly e+1). At most 8 threshold compares.
  uint64_t bits = std::bit_cast<uint64_t>(v);
  int e = static_cast<int>((bits >> 52) & 0x7FF) - 1023;
  int b = 8 * e + 1;
  if (b >= kBuckets - 1) return kBuckets - 1;
  const double* t = Crossovers().t;
  int limit = std::min(b + 8, kBuckets - 1);
  while (b < limit && v >= t[b + 1]) ++b;
  return b;
}

double Histogram::BucketLow(int b) {
  if (b <= 0) return 0.0;
  return std::exp2(static_cast<double>(b - 1) / 8.0);
}

double Histogram::BucketHigh(int b) {
  return std::exp2(static_cast<double>(b) / 8.0);
}

void Histogram::Add(double v) {
  if (v < 0) v = 0;
  buckets_[static_cast<size_t>(BucketFor(v))]++;
  ++total_;
  sum_ += v;
  max_ = std::max(max_, v);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  total_ += other.total_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void Histogram::MergeBuckets(const uint64_t counts[], uint64_t total,
                             double sum, double max) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] += counts[i];
  }
  total_ += total;
  sum_ += sum;
  max_ = std::max(max_, max);
}

Histogram Histogram::DeltaSince(const Histogram& prev) const {
  Histogram delta;
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    uint64_t now = buckets_[static_cast<size_t>(i)];
    uint64_t before = prev.buckets_[static_cast<size_t>(i)];
    // Clamp per bucket: a reset between snapshots must not wrap.
    uint64_t d = now > before ? now - before : 0;
    delta.buckets_[static_cast<size_t>(i)] = d;
    total += d;
  }
  delta.total_ = total;
  delta.sum_ = sum_ > prev.sum_ ? sum_ - prev.sum_ : 0.0;
  delta.max_ = max_;  // cumulative (see header)
  return delta;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
  max_ = 0.0;
}

double Histogram::mean() const {
  return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

double Histogram::Percentile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank-up: the value whose 1-indexed rank is ceil(q*n). A floor
  // rank (q*(n-1)) lands one sample short at high quantiles — p99.5 of 100
  // samples must be the 100th sample, not the 99th.
  uint64_t rank = 0;
  if (q > 0.0) {
    rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_))) - 1;
  }
  if (rank >= total_) rank = total_ - 1;

  // The top occupied bucket's true upper edge is max_, not its nominal
  // bound: interpolation clamps there so Percentile(1.0) == max() exactly
  // (the nominal bound also under-reports values clamped into the overflow
  // bucket, where max_ exceeds BucketHigh).
  int top = kBuckets - 1;
  while (top > 0 && buckets_[static_cast<size_t>(top)] == 0) --top;

  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    uint64_t n = buckets_[static_cast<size_t>(b)];
    if (n > 0 && seen + n > rank) {
      double lo = BucketLow(b);
      double hi = b == top ? max_ : BucketHigh(b);
      if (hi < lo) hi = lo;
      // Position of the rank within the bucket, counting the sample itself:
      // the last sample of the bucket maps to the bucket's upper edge.
      double frac = static_cast<double>(rank - seen + 1) / static_cast<double>(n);
      return lo + frac * (hi - lo);
    }
    seen += n;
  }
  return max_;
}

std::string Histogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.2f p50=%.2f p99=%.2f max=%.2f",
                static_cast<unsigned long long>(total_), mean(),
                Percentile(0.50), Percentile(0.99), max_);
  return buf;
}

}  // namespace reo
