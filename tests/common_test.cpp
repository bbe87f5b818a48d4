// Unit tests for the common substrate: status/result, CRC32C, PCG32,
// Zipf sampling, histograms, file utilities, and the virtual clock.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <thread>

#include "common/buffer.h"
#include "common/crc32c.h"
#include "common/file_util.h"
#include "common/histogram.h"
#include "common/object_id.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/units.h"
#include "common/zipf.h"

namespace reo {
namespace {

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s{ErrorCode::kNoSpace, "cache full"};
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(s.to_string(), "NO_SPACE: cache full");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto c : {ErrorCode::kOk, ErrorCode::kNotFound, ErrorCode::kCorrupted,
                 ErrorCode::kUnrecoverable, ErrorCode::kNoSpace,
                 ErrorCode::kInvalidArgument, ErrorCode::kAlreadyExists,
                 ErrorCode::kUnavailable, ErrorCode::kInternal}) {
    EXPECT_NE(to_string(c), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r{ErrorCode::kNotFound, "missing"};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// --- ObjectId ---------------------------------------------------------------

TEST(ObjectIdTest, ReservedIdsMatchTableI) {
  EXPECT_EQ(kRootObject.pid, 0u);
  EXPECT_EQ(kRootObject.oid, 0u);
  EXPECT_EQ(kSuperBlockObject.pid, 0x10000u);
  EXPECT_EQ(kSuperBlockObject.oid, 0x10000u);
  EXPECT_EQ(kDeviceTableObject.oid, 0x10001u);
  EXPECT_EQ(kRootDirectoryObject.oid, 0x10002u);
  EXPECT_EQ(kControlObject.oid, 0x10004u);
}

TEST(ObjectIdTest, EqualityAndOrdering) {
  ObjectId a{1, 2}, b{1, 3}, c{1, 2};
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

TEST(ObjectIdTest, HashSpreadsValues) {
  ObjectIdHash h;
  std::set<size_t> hashes;
  for (uint64_t i = 0; i < 1000; ++i) {
    hashes.insert(h(ObjectId{0x10000, 0x10000 + i}));
  }
  EXPECT_GT(hashes.size(), 990u);  // essentially collision-free
}

TEST(ObjectIdTest, ToStringIsHex) {
  EXPECT_EQ((ObjectId{0x10000, 0x10004}.ToString()), "0x10000:0x10004");
}

// --- CRC32C -----------------------------------------------------------------

TEST(Crc32cTest, KnownVector) {
  // RFC 3720 test vector: crc32c("123456789") == 0xE3069283.
  const char* s = "123456789";
  EXPECT_EQ(Crc32c({reinterpret_cast<const uint8_t*>(s), 9}), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c({}), 0u); }

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::vector<uint8_t> buf(257, 0xAB);
  uint32_t clean = Crc32c(buf);
  for (size_t i = 0; i < buf.size(); i += 37) {
    buf[i] ^= 0x01;
    EXPECT_NE(Crc32c(buf), clean) << "flip at " << i;
    buf[i] ^= 0x01;
  }
}

// Differential: the dispatched path (SSE4.2 on capable CPUs) must agree with
// the table-driven portable path over every alignment of the 8/4/1-byte
// hardware tail handling — unaligned starts, odd lengths 0..64, and
// multi-chunk seeded continuation.
TEST(Crc32cTest, DispatchedMatchesPortable) {
  Pcg32 rng(11);
  std::vector<uint8_t> backing(64 + 13);
  for (auto& b : backing) b = static_cast<uint8_t>(rng.Next());
  for (size_t off = 0; off < 13; ++off) {
    for (size_t len = 0; len + off <= backing.size() && len <= 64; ++len) {
      std::span<const uint8_t> data(backing.data() + off, len);
      ASSERT_EQ(Crc32c(data), Crc32cPortable(data))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32cTest, SeededContinuationMatchesWholeBuffer) {
  Pcg32 rng(12);
  std::vector<uint8_t> buf(1024);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  uint32_t whole = Crc32c(buf);
  // Split at awkward points: the seeded continuation must match computing the
  // whole buffer in one call, on both paths.
  for (size_t split : {size_t{1}, size_t{7}, size_t{63}, size_t{512},
                       size_t{1023}}) {
    std::span<const uint8_t> head(buf.data(), split);
    std::span<const uint8_t> tail(buf.data() + split, buf.size() - split);
    EXPECT_EQ(Crc32c(tail, Crc32c(head)), whole) << "split=" << split;
    EXPECT_EQ(Crc32cPortable(tail, Crc32cPortable(head)), whole)
        << "split=" << split;
  }
}

// Differential for the PCLMULQDQ-folded bulk path: buffer sizes straddling
// the fold threshold (the dispatch boundary between the plain SSE4.2 loop
// and the 3-lane folded kernel), each at unaligned starting offsets, must
// agree with the portable table. Runs regardless of CPU support — on
// machines without PCLMULQDQ it degenerates to re-checking the SSE4.2 or
// portable path, which keeps the test meaningful everywhere.
TEST(Crc32cTest, ClmulFoldedPathMatchesPortableAcrossThreshold) {
  Pcg32 rng(13);
  std::vector<uint8_t> backing(4 * kCrc32cFoldThreshold + 64);
  for (auto& b : backing) b = static_cast<uint8_t>(rng.Next());
  const size_t lens[] = {
      kCrc32cFoldThreshold - 1,      kCrc32cFoldThreshold,
      kCrc32cFoldThreshold + 1,      kCrc32cFoldThreshold + 17,
      2 * kCrc32cFoldThreshold - 5,  3 * kCrc32cFoldThreshold,
      4 * kCrc32cFoldThreshold + 11,
  };
  for (size_t off : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{9}}) {
    for (size_t len : lens) {
      ASSERT_LE(off + len, backing.size());
      std::span<const uint8_t> data(backing.data() + off, len);
      ASSERT_EQ(Crc32c(data), Crc32cPortable(data))
          << "off=" << off << " len=" << len
          << " clmul=" << Crc32cHasTier(Crc32cTier::kClmul);
    }
  }
}

// Seeded continuation across the fold threshold: splitting a large buffer
// so one side takes the folded path and the other the small-input path
// must still compose to the whole-buffer CRC.
TEST(Crc32cTest, ClmulSeededContinuationAcrossThreshold) {
  Pcg32 rng(14);
  std::vector<uint8_t> buf(3 * kCrc32cFoldThreshold);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  uint32_t whole = Crc32cPortable(buf);
  EXPECT_EQ(Crc32c(buf), whole);
  for (size_t split : {size_t{1}, size_t{64}, kCrc32cFoldThreshold - 1,
                       kCrc32cFoldThreshold, kCrc32cFoldThreshold + 1,
                       buf.size() - 7}) {
    std::span<const uint8_t> head(buf.data(), split);
    std::span<const uint8_t> tail(buf.data() + split, buf.size() - split);
    EXPECT_EQ(Crc32c(tail, Crc32c(head)), whole) << "split=" << split;
  }
}

// Per-tier differentials: each hardware tier, called directly rather than
// through dispatch, against the portable table. A tier this CPU lacks skips
// with its name, so a green run shows which tiers it exercised.
class Crc32cTierTest : public ::testing::TestWithParam<Crc32cTier> {
 protected:
  void SetUp() override {
    if (!Crc32cHasTier(GetParam())) {
      GTEST_SKIP() << "CPU lacks " << Crc32cTierName(GetParam());
    }
  }
};

/// Lengths 0-1100 in steps of 1 (the kVpclmul threshold is 512), the kClmul
/// threshold +-1, and 64 KiB + 61.
std::vector<size_t> TierLengths() {
  std::vector<size_t> lens;
  for (size_t n = 0; n <= 1100; ++n) lens.push_back(n);
  for (size_t n : {kCrc32cFoldThreshold - 1, kCrc32cFoldThreshold,
                   kCrc32cFoldThreshold + 1, size_t{64 * 1024 + 61}}) {
    lens.push_back(n);
  }
  return lens;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

/// Split points for seeded continuation: each side of both thresholds.
std::vector<size_t> ContinuationSplits(size_t n) {
  return {1, 255, kCrc32cVpclmulThreshold - 1, kCrc32cVpclmulThreshold,
          kCrc32cVpclmulThreshold + 1, kCrc32cFoldThreshold, n - 513, n - 7};
}

TEST_P(Crc32cTierTest, MatchesPortableAtEveryLengthAndOffset) {
  const Crc32cTier tier = GetParam();
  const auto backing = RandomBytes(64 * 1024 + 61 + 64, 21);
  for (size_t len : TierLengths()) {
    for (size_t off = 0; off < 64; ++off) {
      std::span<const uint8_t> data(backing.data() + off, len);
      ASSERT_EQ(Crc32c(tier, data), Crc32cPortable(data))
          << "len=" << len << " off=" << off;
      ASSERT_EQ(Crc32c(tier, data, 0x9E3779B9u),
                Crc32cPortable(data, 0x9E3779B9u))
          << "seeded len=" << len << " off=" << off;
    }
  }
}

TEST_P(Crc32cTierTest, SeededContinuationMatchesWholeBuffer) {
  const Crc32cTier tier = GetParam();
  const auto buf = RandomBytes(3 * kCrc32cFoldThreshold + 61, 23);
  const uint32_t whole = Crc32cPortable(buf);
  for (size_t split : ContinuationSplits(buf.size())) {
    std::span<const uint8_t> head(buf.data(), split);
    std::span<const uint8_t> tail(buf.data() + split, buf.size() - split);
    EXPECT_EQ(Crc32c(tier, tail, Crc32c(tier, head)), whole) << "split=" << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, Crc32cTierTest,
                         ::testing::Values(Crc32cTier::kSse42, Crc32cTier::kClmul,
                                           Crc32cTier::kVpclmul),
                         [](const auto& info) {
                           std::string name = Crc32cTierName(info.param);
                           std::erase(name, '.');
                           return name;
                         });

// Crc32cCopy through dispatch: on a CPU with the kVpclmul tier, the fused
// loop from its threshold up and a copy then Crc32c below it.
TEST(Crc32cCopyTest, MatchesPortableAndMemcmp) {
  const auto backing = RandomBytes(64 * 1024 + 61 + 64, 22);
  std::vector<uint8_t> dst(backing.size() + 64);
  auto check = [&](size_t len, size_t src_off, size_t dst_off, uint32_t want) {
    std::span<const uint8_t> src(backing.data() + src_off, len);
    std::fill_n(dst.begin(), dst_off + len + 64, 0xA5);
    std::span<uint8_t> out(dst.data() + dst_off, len);
    ASSERT_EQ(Crc32cCopy(out, src, 7), want)
        << "len=" << len << " src_off=" << src_off << " dst_off=" << dst_off;
    ASSERT_EQ(std::memcmp(out.data(), src.data(), len), 0);
    // Nothing around the destination is written.
    for (size_t i = 0; i < dst_off; ++i) ASSERT_EQ(dst[i], 0xA5);
    for (size_t i = 0; i < 64; ++i) ASSERT_EQ(dst[dst_off + len + i], 0xA5);
  };
  for (size_t len : TierLengths()) {
    // Every destination offset at the tier thresholds, one per source
    // offset elsewhere.
    const bool all_dst = len == 0 || len == kCrc32cVpclmulThreshold - 1 ||
                         len == kCrc32cVpclmulThreshold ||
                         len == kCrc32cVpclmulThreshold + 1 ||
                         len == kCrc32cFoldThreshold;
    for (size_t src_off = 0; src_off < 64; ++src_off) {
      uint32_t want = Crc32cPortable({backing.data() + src_off, len}, 7);
      for (size_t dst_off = 0; dst_off < 64; ++dst_off) {
        if (!all_dst && dst_off != (src_off * 37 + len) % 64) continue;
        check(len, src_off, dst_off, want);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(Crc32cCopyTest, SeededContinuationMatchesWholeBuffer) {
  const auto buf = RandomBytes(3 * kCrc32cFoldThreshold + 61, 23);
  const uint32_t whole = Crc32cPortable(buf);
  std::vector<uint8_t> copy(buf.size());
  for (size_t split : ContinuationSplits(buf.size())) {
    std::span<uint8_t> out(copy);
    uint32_t crc = Crc32cCopy(out.first(split), {buf.data(), split});
    EXPECT_EQ(Crc32cCopy(out.subspan(split),
                         {buf.data() + split, buf.size() - split}, crc),
              whole)
        << "split=" << split;
    EXPECT_EQ(copy, buf);
  }
}

// --- Pcg32 ------------------------------------------------------------------

TEST(Pcg32Test, Deterministic) {
  Pcg32 a(7, 1), b(7, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg32Test, StreamsDiffer) {
  Pcg32 a(7, 1), b(7, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Pcg32Test, BoundedStaysInRange) {
  Pcg32 rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(1), 0u);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(Pcg32Test, DoubleInUnitInterval) {
  Pcg32 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// --- Zipf -------------------------------------------------------------------

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler z(100, 0.9);
  double sum = 0;
  for (uint32_t i = 0; i < 100; ++i) sum += z.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PmfMonotoneDecreasing) {
  ZipfSampler z(50, 1.1);
  for (uint32_t i = 1; i < 50; ++i) {
    EXPECT_LE(z.Pmf(i), z.Pmf(i - 1));
  }
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  ZipfSampler z(10, 0.0);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_NEAR(z.Pmf(i), 0.1, 1e-12);
}

TEST(ZipfTest, SamplingMatchesPmf) {
  ZipfSampler z(20, 1.0);
  Pcg32 rng(99);
  std::vector<int> counts(20, 0);
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) counts[z.Sample(rng)]++;
  for (uint32_t r = 0; r < 20; ++r) {
    double expect = z.Pmf(r) * kDraws;
    EXPECT_NEAR(counts[r], expect, 5 * std::sqrt(expect) + 5) << "rank " << r;
  }
}

TEST(ZipfTest, HigherSkewConcentratesMass) {
  ZipfSampler weak(1000, 0.6), strong(1000, 1.2);
  EXPECT_GT(strong.Cdf(9), weak.Cdf(9));
}

// --- Histogram -------------------------------------------------------------

// The bit-scan bucketing must agree with the original log2 formulation for
// every double. Exhaustive over the sensitive inputs: the exact nominal
// boundary of every bucket and its neighbouring representable doubles,
// every exact power of two in range, the sub-1.0 floor, and the overflow
// clamp; plus a broad random sweep.
TEST(HistogramTest, BucketForMatchesReferenceAtAllBoundaries) {
  for (int b = 0; b < Histogram::kBuckets + 8; ++b) {
    double edge = std::exp2(static_cast<double>(b) / 8.0);
    double probes[] = {
        std::nextafter(edge, 0.0), edge,
        std::nextafter(edge, std::numeric_limits<double>::infinity())};
    for (double v : probes) {
      ASSERT_EQ(Histogram::BucketFor(v), Histogram::BucketForReference(v))
          << "bucket edge " << b << " v=" << std::hexfloat << v;
    }
  }
}

TEST(HistogramTest, BucketForMatchesReferenceAtPowersOfTwo) {
  for (int e = 0; e <= 40; ++e) {
    double p = std::exp2(static_cast<double>(e));
    for (double v :
         {std::nextafter(p, 0.0), p,
          std::nextafter(p, std::numeric_limits<double>::infinity())}) {
      ASSERT_EQ(Histogram::BucketFor(v), Histogram::BucketForReference(v))
          << "2^" << e << " v=" << std::hexfloat << v;
    }
  }
}

TEST(HistogramTest, BucketForMatchesReferenceBelowOneAndAtClamp) {
  for (double v : {0.0, 1e-300, 0.25, 0.999999, 1.0}) {
    EXPECT_EQ(Histogram::BucketFor(v), 0);
    EXPECT_EQ(Histogram::BucketForReference(v), 0);
  }
  // Values past bucket 255's lower edge all clamp into the overflow bucket.
  for (double v : {std::exp2(254.0 / 8.0), std::exp2(32.0), std::exp2(40.0),
                   1e30, std::numeric_limits<double>::max()}) {
    ASSERT_EQ(Histogram::BucketFor(v), Histogram::BucketForReference(v))
        << std::hexfloat << v;
  }
  EXPECT_EQ(Histogram::BucketFor(1e30), Histogram::kBuckets - 1);
}

TEST(HistogramTest, BucketForMatchesReferenceRandomSweep) {
  Pcg32 rng(13);
  for (int i = 0; i < 200000; ++i) {
    // Log-uniform over [2^-2, 2^38): exercises every octave the histogram
    // covers plus the clamp region.
    double e = -2.0 + 40.0 * rng.NextDouble();
    double v = std::exp2(e) * (0.5 + rng.NextDouble());
    ASSERT_EQ(Histogram::BucketFor(v), Histogram::BucketForReference(v))
        << std::hexfloat << v;
  }
}

TEST(HistogramTest, MeanExact) {
  Histogram h;
  h.Add(10);
  h.Add(20);
  h.Add(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_EQ(h.count(), 3u);
}

TEST(HistogramTest, PercentileApproximate) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_NEAR(h.Percentile(0.5), 500, 40);
  EXPECT_NEAR(h.Percentile(0.99), 990, 60);
  EXPECT_NEAR(h.Percentile(1.0), 1000, 60);
}

TEST(HistogramTest, WideRangePercentiles) {
  // Latencies in µs can span sub-ms hits to multi-second queueing storms;
  // the log buckets must resolve both ends (previously capped near 2^16).
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Add(5'000);      // 5 ms
  h.Add(30'000'000);                              // a 30 s outlier
  EXPECT_NEAR(h.Percentile(0.50), 5'000, 500);
  EXPECT_GT(h.Percentile(0.995), 1'000'000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 30'000'000.0);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a, b;
  a.Add(5);
  b.Add(500);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.mean(), 252.5, 1e-9);
}

TEST(HistogramTest, SingleSampleIsExactAtEveryQuantile) {
  Histogram h;
  h.Add(12'345);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(q), 12'345.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.max(), 12'345.0);
  EXPECT_DOUBLE_EQ(h.sum(), 12'345.0);
}

TEST(HistogramTest, PercentilesAfterMerge) {
  // Merged histograms must answer quantiles over the combined stream.
  Histogram fast, slow;
  for (int i = 0; i < 90; ++i) fast.Add(100);
  for (int i = 0; i < 10; ++i) slow.Add(1'000'000);
  fast.Merge(slow);
  EXPECT_EQ(fast.count(), 100u);
  EXPECT_NEAR(fast.Percentile(0.5), 100, 15);
  EXPECT_GT(fast.Percentile(0.95), 500'000.0);
  EXPECT_DOUBLE_EQ(fast.Percentile(1.0), 1'000'000.0);
}

TEST(HistogramTest, ValuesBeyondBucketRange) {
  // Values past the last regular bucket boundary (~2^32) land in the
  // overflow bucket; the top must still report the true maximum.
  Histogram h;
  h.Add(5e9);
  h.Add(6e9);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 6e9);
  EXPECT_GE(h.Percentile(0.5), 3e9);
  EXPECT_LE(h.Percentile(0.5), 6e9);
  EXPECT_DOUBLE_EQ(h.max(), 6e9);
}

TEST(HistogramTest, PercentileMonotoneAndCappedAtMax) {
  Histogram h;
  for (int i = 1; i <= 257; ++i) h.Add(i * i);  // spread across buckets
  double prev = -1.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    double p = h.Percentile(q);
    EXPECT_GE(p, prev) << "q=" << q;
    EXPECT_LE(p, h.max()) << "q=" << q;
    prev = p;
  }
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), h.max());
  EXPECT_FALSE(h.Summary().empty());
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

// --- SimClock / units --------------------------------------------------------

TEST(SimClockTest, AdvanceMonotone) {
  SimClock c;
  EXPECT_EQ(c.now(), 0u);
  c.Advance(100);
  EXPECT_EQ(c.now(), 100u);
  c.AdvanceTo(50);  // into the past: no-op
  EXPECT_EQ(c.now(), 100u);
  c.AdvanceTo(200);
  EXPECT_EQ(c.now(), 200u);
}

TEST(SimClockTest, TransferTimeMath) {
  // 100 MB at 100 MB/s = 1 second.
  EXPECT_EQ(TransferTime(100'000'000, 100.0), kNsPerSec);
  EXPECT_EQ(TransferTime(0, 100.0), 0u);
  EXPECT_EQ(TransferTime(12345, 0.0), 0u);
}

TEST(UnitsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(4 * kKiB), "4.00 KiB");
  EXPECT_EQ(HumanBytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(HumanBytes(2 * kGiB), "2.00 GiB");
}

// --- File utilities --------------------------------------------------------

TEST(FileUtilTest, WriteReadRoundTrip) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "reo_file_util_rt";
  std::filesystem::create_directories(dir);
  std::string path = (dir / "blob.bin").string();
  std::string payload = "hello\0world";
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  std::filesystem::remove_all(dir);
}

TEST(FileUtilTest, OverwriteReplacesContents) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "reo_file_util_ow";
  std::filesystem::create_directories(dir);
  std::string path = (dir / "blob.bin").string();
  ASSERT_TRUE(WriteFileAtomic(path, "first image, rather long").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "second");
  std::filesystem::remove_all(dir);
}

// Regression: the tmp name used to be a fixed `path + ".tmp"`, so two
// concurrent writers interleaved bytes in the SAME tmp file and rename
// could publish a mixed image. With per-call unique tmp names, the final
// file must always be exactly one writer's payload, and no tmp debris
// may survive.
TEST(FileUtilTest, ConcurrentWritersNeverTearTheFile) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "reo_file_util_race";
  std::filesystem::create_directories(dir);
  std::string path = (dir / "contended.bin").string();

  constexpr int kWriters = 8;
  constexpr int kRounds = 25;
  std::vector<std::string> payloads;
  for (int w = 0; w < kWriters; ++w) {
    // Distinct lengths AND distinct bytes: any interleaving is detectable.
    payloads.push_back(std::string(1024 + 257 * w, static_cast<char>('A' + w)));
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        ASSERT_TRUE(WriteFileAtomic(path, payloads[w]).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  bool matches_one_writer = false;
  for (const std::string& p : payloads) matches_one_writer |= (*back == p);
  EXPECT_TRUE(matches_one_writer)
      << "final file is a mix of writers (size " << back->size() << ")";

  // The unique-suffix scheme must also clean up after itself.
  size_t leftovers = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().filename().string() != "contended.bin") ++leftovers;
  }
  EXPECT_EQ(leftovers, 0u);
  std::filesystem::remove_all(dir);
}

// --- PayloadBuffer (non-zeroing resize) ------------------------------------

/// Base allocator that counts value-initializing (no-arg) constructions —
/// the memset-equivalent work PayloadBuffer exists to skip.
template <typename T>
struct ZeroCountingAllocator : std::allocator<T> {
  static inline uint64_t value_constructions = 0;

  template <typename U>
  struct rebind {
    using other = ZeroCountingAllocator<U>;
  };

  template <typename U, typename... Args>
  void construct(U* ptr, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) ++value_constructions;
    ::new (static_cast<void*>(ptr)) U(std::forward<Args>(args)...);
  }
};

TEST(PayloadBufferTest, ResizeSkipsValueInitialization) {
  using Counting = ZeroCountingAllocator<uint8_t>;
  // A plain vector over the counting base value-initializes every element.
  Counting::value_constructions = 0;
  std::vector<uint8_t, Counting> zeroing;
  zeroing.resize(4096);
  EXPECT_EQ(Counting::value_constructions, 4096u);

  // The DefaultInitAllocator wrapper routes resize() to default-init and
  // never reaches the base's value-initializing construct.
  Counting::value_constructions = 0;
  std::vector<uint8_t, DefaultInitAllocator<uint8_t, Counting>> raw;
  raw.resize(4096);
  EXPECT_EQ(Counting::value_constructions, 0u);

  // Explicit values still construct through the base as before.
  raw.resize(4096 + 16, 0xAB);
  EXPECT_EQ(raw.back(), 0xAB);
}

TEST(PayloadBufferTest, InteroperatesWithPlainVectors) {
  PayloadBuffer buf;
  buf.resize(8);
  std::vector<uint8_t> src{1, 2, 3, 4, 5, 6, 7, 8};
  std::copy(src.begin(), src.end(), buf.begin());
  EXPECT_TRUE(buf == src);
  EXPECT_TRUE(src == buf);
  buf[0] = 9;
  EXPECT_FALSE(buf == src);
  // Explicit value-fill forms keep zeroing semantics.
  PayloadBuffer zeroed(16, 0);
  EXPECT_TRUE(std::all_of(zeroed.begin(), zeroed.end(),
                          [](uint8_t b) { return b == 0; }));
}

}  // namespace
}  // namespace reo
