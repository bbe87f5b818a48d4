// Erasure-coding tests: GF(256) field laws, matrix algebra, Reed-Solomon
// encode/decode properties across stripe geometries, and parity-update
// strategies (direct vs delta).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "ec/gf256.h"
#include "ec/matrix.h"
#include "ec/parity_update.h"
#include "ec/rs_code.h"

namespace reo {
namespace {

// --- GF(256) field laws ------------------------------------------------------

TEST(Gf256Test, AddIsXor) {
  EXPECT_EQ(gf256::Add(0x55, 0xAA), 0xFF);
  EXPECT_EQ(gf256::Add(0x13, 0x13), 0x00);
}

TEST(Gf256Test, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    auto x = static_cast<uint8_t>(a);
    EXPECT_EQ(gf256::Mul(x, 1), x);
    EXPECT_EQ(gf256::Mul(1, x), x);
    EXPECT_EQ(gf256::Mul(x, 0), 0);
  }
}

TEST(Gf256Test, MulCommutative) {
  Pcg32 rng(1);
  for (int i = 0; i < 2000; ++i) {
    auto a = static_cast<uint8_t>(rng.Next());
    auto b = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(gf256::Mul(a, b), gf256::Mul(b, a));
  }
}

TEST(Gf256Test, MulAssociative) {
  Pcg32 rng(2);
  for (int i = 0; i < 2000; ++i) {
    auto a = static_cast<uint8_t>(rng.Next());
    auto b = static_cast<uint8_t>(rng.Next());
    auto c = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(gf256::Mul(gf256::Mul(a, b), c), gf256::Mul(a, gf256::Mul(b, c)));
  }
}

TEST(Gf256Test, DistributesOverAdd) {
  Pcg32 rng(3);
  for (int i = 0; i < 2000; ++i) {
    auto a = static_cast<uint8_t>(rng.Next());
    auto b = static_cast<uint8_t>(rng.Next());
    auto c = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(gf256::Mul(a, gf256::Add(b, c)),
              gf256::Add(gf256::Mul(a, b), gf256::Mul(a, c)));
  }
}

TEST(Gf256Test, InverseRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    auto x = static_cast<uint8_t>(a);
    EXPECT_EQ(gf256::Mul(x, gf256::Inv(x)), 1) << "a=" << a;
    EXPECT_EQ(gf256::Div(x, x), 1);
  }
}

TEST(Gf256Test, DivIsMulByInverse) {
  Pcg32 rng(4);
  for (int i = 0; i < 1000; ++i) {
    auto a = static_cast<uint8_t>(rng.Next());
    auto b = static_cast<uint8_t>(rng.Next() | 1);  // non-zero
    if (b == 0) continue;
    EXPECT_EQ(gf256::Div(a, b), gf256::Mul(a, gf256::Inv(b)));
  }
}

TEST(Gf256Test, PowMatchesRepeatedMul) {
  for (int a = 1; a < 256; a += 17) {
    uint8_t acc = 1;
    for (uint32_t e = 0; e < 10; ++e) {
      EXPECT_EQ(gf256::Pow(static_cast<uint8_t>(a), e), acc);
      acc = gf256::Mul(acc, static_cast<uint8_t>(a));
    }
  }
  EXPECT_EQ(gf256::Pow(0, 0), 1);
  EXPECT_EQ(gf256::Pow(0, 5), 0);
}

TEST(Gf256Test, MulAccMatchesScalar) {
  Pcg32 rng(5);
  std::vector<uint8_t> dst(257), src(257), expect(257);
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] = static_cast<uint8_t>(rng.Next());
    src[i] = static_cast<uint8_t>(rng.Next());
  }
  for (uint8_t c : {0, 1, 2, 37, 255}) {
    expect = dst;
    for (size_t i = 0; i < dst.size(); ++i) {
      expect[i] = gf256::Add(expect[i], gf256::Mul(c, src[i]));
    }
    auto out = dst;
    gf256::MulAcc(out, src, c);
    EXPECT_EQ(out, expect) << "c=" << int(c);
  }
}

TEST(Gf256Test, MulBufMatchesScalar) {
  Pcg32 rng(6);
  std::vector<uint8_t> src(100);
  for (auto& v : src) v = static_cast<uint8_t>(rng.Next());
  for (uint8_t c : {0, 1, 19, 200}) {
    std::vector<uint8_t> out(100), expect(100);
    for (size_t i = 0; i < src.size(); ++i) expect[i] = gf256::Mul(c, src[i]);
    gf256::MulBuf(out, src, c);
    EXPECT_EQ(out, expect);
  }
}

// Differential: the dispatched kernels (SSSE3 pshufb on capable CPUs) must be
// byte-identical to the scalar reference for every coefficient, across
// unaligned starts, odd lengths spanning the 16-byte vector width, and the
// sub-cutover sizes that stay scalar.
TEST(Gf256Test, DispatchedKernelsMatchScalarExhaustively) {
  Pcg32 rng(7);
  constexpr size_t kMax = 4096 + 19;
  std::vector<uint8_t> backing_src(kMax + 16), backing_dst(kMax + 16);
  for (auto& v : backing_src) v = static_cast<uint8_t>(rng.Next());
  for (auto& v : backing_dst) v = static_cast<uint8_t>(rng.Next());
  const size_t lens[] = {0, 1, 15, 16, 17, 31, 32, 33, 47, 63, 64, 100, 4096};
  const size_t offsets[] = {0, 1, 7, 13};
  for (int c = 0; c < 256; ++c) {
    for (size_t len : lens) {
      for (size_t off : offsets) {
        std::span<const uint8_t> src(backing_src.data() + off, len);
        std::vector<uint8_t> scalar_acc(backing_dst.begin() + off,
                                        backing_dst.begin() + off + len);
        std::vector<uint8_t> simd_acc = scalar_acc;
        gf256::MulAccScalar(scalar_acc, src, static_cast<uint8_t>(c));
        gf256::MulAcc(simd_acc, src, static_cast<uint8_t>(c));
        ASSERT_EQ(simd_acc, scalar_acc)
            << "MulAcc c=" << c << " len=" << len << " off=" << off;

        std::vector<uint8_t> scalar_buf(len, 0xAA), simd_buf(len, 0x55);
        gf256::MulBufScalar(scalar_buf, src, static_cast<uint8_t>(c));
        gf256::MulBuf(simd_buf, src, static_cast<uint8_t>(c));
        ASSERT_EQ(simd_buf, scalar_buf)
            << "MulBuf c=" << c << " len=" << len << " off=" << off;
      }
    }
  }
}

// --- Kernel tiers ---------------------------------------------------------------

// Per-tier differentials for the one-pass DotProduct kernel: each tier called
// directly, against the scalar reference. A tier this CPU lacks skips with
// its name, so a green run shows which tiers it exercised.
class Gf256TierTest : public ::testing::TestWithParam<gf256::Tier> {
 protected:
  void SetUp() override {
    if (!gf256::HasTier(GetParam())) {
      GTEST_SKIP() << "CPU lacks " << gf256::TierName(GetParam());
    }
  }
};

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

TEST_P(Gf256TierTest, DotProductMatchesScalarForEveryCoefficient) {
  const auto backing = RandomBytes(4096 + 19 + 64, 31);
  const size_t lens[] = {0, 1, 15, 16, 33, 63, 64, 65, 127, 128, 1000, 4096 + 19};
  for (int c = 0; c < 256; ++c) {
    const uint8_t coef[1] = {static_cast<uint8_t>(c)};
    const uint64_t affine[1] = {gf256::AffineMatrix(coef[0])};
    for (size_t len : lens) {
      for (size_t off : {size_t{0}, size_t{5}, size_t{61}}) {
        std::span<const uint8_t> src[1] = {{backing.data() + off, len}};
        std::vector<uint8_t> want(len), got(len, 0xEE);
        gf256::MulBufScalar(want, src[0], coef[0]);
        std::span<uint8_t> out[1] = {got};
        gf256::DotProduct(GetParam(), coef, affine, src, out);
        ASSERT_EQ(got, want) << "c=" << c << " len=" << len << " off=" << off;
      }
    }
  }
}

/// out[r] = sum over s of coef[r][s] * src[s], by the field's definition.
std::vector<std::vector<uint8_t>> ReferenceDot(
    std::span<const uint8_t> coef, const std::vector<std::vector<uint8_t>>& src,
    size_t rows) {
  const size_t len = src[0].size();
  std::vector<std::vector<uint8_t>> out(rows, std::vector<uint8_t>(len, 0));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t s = 0; s < src.size(); ++s) {
      gf256::MulAccScalar(out[r], src[s], coef[r * src.size() + s]);
    }
  }
  return out;
}

TEST_P(Gf256TierTest, MultiOutputDotProductMatchesReference) {
  // Up to six outputs (the kGfni kernel groups them by four) over up to
  // four sources, coefficients walking all 256 values, lengths around the
  // 64-byte vector.
  uint8_t next = 0;
  for (size_t rows = 1; rows <= 6; ++rows) {
    for (size_t cols = 1; cols <= 4; ++cols) {
      for (size_t len : {size_t{1}, size_t{64}, size_t{100}, size_t{4096 + 3}}) {
        std::vector<std::vector<uint8_t>> src;
        for (size_t s = 0; s < cols; ++s) src.push_back(RandomBytes(len, 40 + s + len));
        std::vector<uint8_t> coef(rows * cols);
        std::vector<uint64_t> affine(coef.size());
        for (size_t i = 0; i < coef.size(); ++i) {
          coef[i] = next;
          next = static_cast<uint8_t>(next + 37);
          affine[i] = gf256::AffineMatrix(coef[i]);
        }
        std::vector<std::vector<uint8_t>> got(rows, std::vector<uint8_t>(len, 0xEE));
        std::vector<std::span<const uint8_t>> ss(src.begin(), src.end());
        std::vector<std::span<uint8_t>> os(got.begin(), got.end());
        gf256::DotProduct(GetParam(), coef, affine, ss, os);
        ASSERT_EQ(got, ReferenceDot(coef, src, rows))
            << "rows=" << rows << " cols=" << cols << " len=" << len;
      }
    }
  }
}

TEST_P(Gf256TierTest, ReoGeometriesEncodeAndReconstructLikeScalar) {
  // Every stripe geometry Reo builds on a 5-device array (m <= 4 data,
  // k <= 2 parity), both constructions, lengths off the 64-byte vector.
  for (auto construction : {RsConstruction::kVandermonde, RsConstruction::kCauchy}) {
    for (size_t m = 1; m <= 4; ++m) {
      for (size_t k = 1; k <= 2; ++k) {
        RsCode code(m, k, construction);
        for (size_t len : {size_t{1}, size_t{63}, size_t{65}, size_t{1000},
                           size_t{64 * 1024 + 13}}) {
          std::vector<std::vector<uint8_t>> data;
          for (size_t d = 0; d < m; ++d) data.push_back(RandomBytes(len, 50 + d));
          std::vector<std::vector<uint8_t>> want(k, std::vector<uint8_t>(len));
          std::vector<std::vector<uint8_t>> got(k, std::vector<uint8_t>(len, 0xEE));
          std::vector<std::span<const uint8_t>> ds(data.begin(), data.end());
          std::vector<std::span<uint8_t>> ws(want.begin(), want.end());
          std::vector<std::span<uint8_t>> gs(got.begin(), got.end());
          code.Encode(ds, ws, gf256::Tier::kScalar);
          code.Encode(ds, gs, GetParam());
          ASSERT_EQ(got, want) << "m=" << m << " k=" << k << " len=" << len;

          // Erase every data fragment in turn (and, with k = 2, the next
          // fragment too) and rebuild it through the tier.
          for (size_t lost = 0; lost < m; ++lost) {
            std::vector<size_t> missing{lost};
            if (k == 2) missing.push_back(lost + 1);
            std::vector<std::pair<size_t, std::span<const uint8_t>>> present;
            for (size_t f = 0; f < m + k; ++f) {
              if (std::find(missing.begin(), missing.end(), f) != missing.end()) continue;
              present.emplace_back(f, f < m ? std::span<const uint8_t>(data[f])
                                            : std::span<const uint8_t>(want[f - m]));
            }
            std::vector<std::vector<uint8_t>> out(missing.size(),
                                                  std::vector<uint8_t>(len, 0xEE));
            std::vector<std::span<uint8_t>> os(out.begin(), out.end());
            ASSERT_TRUE(code.Reconstruct(present, missing, os, GetParam()).ok());
            for (size_t i = 0; i < missing.size(); ++i) {
              size_t f = missing[i];
              ASSERT_EQ(out[i], f < m ? data[f] : want[f - m])
                  << "m=" << m << " k=" << k << " len=" << len << " fragment " << f;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, Gf256TierTest,
                         ::testing::Values(gf256::Tier::kScalar, gf256::Tier::kSsse3,
                                           gf256::Tier::kGfni),
                         [](const auto& info) {
                           return std::string(gf256::TierName(info.param));
                         });

// --- Matrix -------------------------------------------------------------------

TEST(GfMatrixTest, IdentityMultiply) {
  GfMatrix id = GfMatrix::Identity(4);
  GfMatrix v = GfMatrix::Vandermonde(4, 4);
  EXPECT_EQ(id.Multiply(v), v);
  EXPECT_EQ(v.Multiply(id), v);
}

TEST(GfMatrixTest, InverseRoundTrip) {
  GfMatrix v = GfMatrix::Vandermonde(5, 5);
  auto inv = v.Inverse();
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(v.Multiply(*inv), GfMatrix::Identity(5));
  EXPECT_EQ(inv->Multiply(v), GfMatrix::Identity(5));
}

TEST(GfMatrixTest, SingularDetected) {
  GfMatrix m(2, 2);  // all zeros
  EXPECT_FALSE(m.Inverse().ok());
}

TEST(GfMatrixTest, SelectRows) {
  GfMatrix v = GfMatrix::Vandermonde(5, 3);
  GfMatrix sel = v.SelectRows({0, 4});
  EXPECT_EQ(sel.rows(), 2u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(sel.at(0, c), v.at(0, c));
    EXPECT_EQ(sel.at(1, c), v.at(4, c));
  }
}

TEST(GfMatrixTest, ReduceLeadingSquare) {
  GfMatrix v = GfMatrix::Vandermonde(6, 4);
  ASSERT_TRUE(v.ReduceLeadingSquareToIdentity().ok());
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(v.at(r, c), r == c ? 1 : 0);
    }
  }
}

// --- Reed-Solomon property sweep ----------------------------------------------

struct RsGeometry {
  size_t m;
  size_t k;
  RsConstruction construction = RsConstruction::kVandermonde;
};

class RsCodeP : public ::testing::TestWithParam<RsGeometry> {
 protected:
  RsCode MakeCode() const {
    return RsCode(GetParam().m, GetParam().k, GetParam().construction);
  }
};

std::vector<std::vector<uint8_t>> RandomChunks(size_t n, size_t len, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::vector<uint8_t>> chunks(n, std::vector<uint8_t>(len));
  for (auto& c : chunks) {
    for (auto& b : c) b = static_cast<uint8_t>(rng.Next());
  }
  return chunks;
}

/// Encodes, erases `erased` fragments, reconstructs, and verifies that every
/// erased fragment is restored bit-exactly.
void RoundTrip(const RsCode& code, const std::vector<size_t>& erased,
               size_t len, uint64_t seed) {
  size_t m = code.data_chunks(), k = code.parity_chunks();
  auto data = RandomChunks(m, len, seed);
  std::vector<std::vector<uint8_t>> parity(k, std::vector<uint8_t>(len));

  std::vector<std::span<const uint8_t>> dspans(data.begin(), data.end());
  std::vector<std::span<uint8_t>> pspans(parity.begin(), parity.end());
  code.Encode(dspans, pspans);

  auto fragment = [&](size_t f) -> const std::vector<uint8_t>& {
    return f < m ? data[f] : parity[f - m];
  };

  std::vector<std::pair<size_t, std::span<const uint8_t>>> present;
  for (size_t f = 0; f < m + k; ++f) {
    if (std::find(erased.begin(), erased.end(), f) == erased.end()) {
      present.emplace_back(f, fragment(f));
    }
  }
  std::vector<std::vector<uint8_t>> out(erased.size(), std::vector<uint8_t>(len));
  std::vector<std::span<uint8_t>> out_spans(out.begin(), out.end());

  ASSERT_TRUE(code.Reconstruct(present, erased, out_spans).ok());
  for (size_t i = 0; i < erased.size(); ++i) {
    EXPECT_EQ(out[i], fragment(erased[i])) << "fragment " << erased[i];
  }
}

TEST_P(RsCodeP, SurvivesEverySingleErasure) {
  auto [m, k, construction] = GetParam();
  if (k == 0) GTEST_SKIP() << "0-parity cannot recover";
  RsCode code = MakeCode();
  for (size_t f = 0; f < m + k; ++f) RoundTrip(code, {f}, 64, 77 + f);
}

TEST_P(RsCodeP, SurvivesEveryErasurePairWithinK) {
  auto [m, k, construction] = GetParam();
  if (k < 2) GTEST_SKIP();
  RsCode code = MakeCode();
  for (size_t a = 0; a < m + k; ++a) {
    for (size_t b = a + 1; b < m + k; ++b) {
      RoundTrip(code, {a, b}, 32, a * 131 + b);
    }
  }
}

TEST_P(RsCodeP, FailsBeyondK) {
  auto [m, k, construction] = GetParam();
  RsCode code = MakeCode();
  size_t len = 16;
  auto data = RandomChunks(m, len, 5);
  std::vector<std::vector<uint8_t>> parity(k, std::vector<uint8_t>(len));
  std::vector<std::span<const uint8_t>> dspans(data.begin(), data.end());
  std::vector<std::span<uint8_t>> pspans(parity.begin(), parity.end());
  code.Encode(dspans, pspans);

  // Keep only m-1 fragments: below the decode threshold.
  std::vector<std::pair<size_t, std::span<const uint8_t>>> present;
  for (size_t f = 0; f + 1 < m; ++f) present.emplace_back(f, data[f]);
  std::vector<size_t> missing{m - 1};
  std::vector<uint8_t> out(len);
  std::vector<std::span<uint8_t>> out_spans{std::span<uint8_t>(out)};
  EXPECT_EQ(code.Reconstruct(present, missing, out_spans).code(),
            ErrorCode::kUnrecoverable);
}

TEST_P(RsCodeP, ParityIsDeterministic) {
  auto [m, k, construction] = GetParam();
  if (k == 0) GTEST_SKIP();
  RsCode code = MakeCode();
  auto data = RandomChunks(m, 48, 9);
  std::vector<std::span<const uint8_t>> dspans(data.begin(), data.end());
  std::vector<std::vector<uint8_t>> p1(k, std::vector<uint8_t>(48));
  std::vector<std::vector<uint8_t>> p2(k, std::vector<uint8_t>(48));
  std::vector<std::span<uint8_t>> s1(p1.begin(), p1.end());
  std::vector<std::span<uint8_t>> s2(p2.begin(), p2.end());
  code.Encode(dspans, s1);
  code.Encode(dspans, s2);
  EXPECT_EQ(p1, p2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RsCodeP,
    ::testing::Values(
        RsGeometry{1, 1}, RsGeometry{1, 4}, RsGeometry{2, 1},
        RsGeometry{3, 2}, RsGeometry{4, 1}, RsGeometry{4, 2},
        RsGeometry{5, 0}, RsGeometry{5, 3}, RsGeometry{8, 4},
        RsGeometry{10, 2},
        RsGeometry{3, 2, RsConstruction::kCauchy},
        RsGeometry{4, 1, RsConstruction::kCauchy},
        RsGeometry{4, 2, RsConstruction::kCauchy},
        RsGeometry{8, 4, RsConstruction::kCauchy},
        RsGeometry{10, 2, RsConstruction::kCauchy}),
    [](const auto& info) {
      std::string name = "m" + std::to_string(info.param.m) + "k" +
                         std::to_string(info.param.k);
      if (info.param.construction == RsConstruction::kCauchy) name += "cauchy";
      return name;
    });

// --- Parity updating (paper §II.B) ---------------------------------------------

TEST(ParityUpdateTest, DeltaMatchesReencode) {
  RsCode code(4, 2);
  size_t len = 128;
  auto data = RandomChunks(4, len, 11);
  std::vector<std::vector<uint8_t>> parity(2, std::vector<uint8_t>(len));
  std::vector<std::span<const uint8_t>> dspans(data.begin(), data.end());
  std::vector<std::span<uint8_t>> pspans(parity.begin(), parity.end());
  code.Encode(dspans, pspans);

  // Update data chunk 2.
  auto old_chunk = data[2];
  Pcg32 rng(12);
  for (auto& b : data[2]) b = static_cast<uint8_t>(rng.Next());

  // Delta-update both parity chunks.
  for (size_t p = 0; p < 2; ++p) {
    ApplyDeltaUpdate(code, p, 2, old_chunk, data[2], parity[p]);
  }

  // Compare with a full re-encode.
  std::vector<std::vector<uint8_t>> fresh(2, std::vector<uint8_t>(len));
  std::vector<std::span<uint8_t>> fspans(fresh.begin(), fresh.end());
  std::vector<std::span<const uint8_t>> dspans2(data.begin(), data.end());
  code.Encode(dspans2, fspans);
  EXPECT_EQ(parity, fresh);
}

TEST(ParityUpdateTest, CostModel) {
  // m=4 live data, k=1: direct reads 3 siblings; delta reads 1 data + 1
  // parity = 2 -> delta wins.
  auto c = ComputeUpdateCost(4, 1);
  EXPECT_EQ(c.direct_reads, 3u);
  EXPECT_EQ(c.delta_reads, 2u);
  EXPECT_EQ(ChooseStrategy(4, 1), ParityUpdateStrategy::kDelta);

  // m=2, k=2: direct reads 1; delta reads 3 -> direct wins.
  EXPECT_EQ(ChooseStrategy(2, 2), ParityUpdateStrategy::kDirect);

  // Tie prefers delta: m=4, k=2 -> direct 3, delta 3.
  EXPECT_EQ(ChooseStrategy(4, 2), ParityUpdateStrategy::kDelta);
}

TEST(ParityUpdateTest, CoefficientMatchesGenerator) {
  RsCode code(3, 2);
  // Encoding a unit vector isolates one generator coefficient.
  size_t len = 4;
  for (size_t d = 0; d < 3; ++d) {
    std::vector<std::vector<uint8_t>> data(3, std::vector<uint8_t>(len, 0));
    data[d][0] = 1;
    std::vector<std::vector<uint8_t>> parity(2, std::vector<uint8_t>(len));
    std::vector<std::span<const uint8_t>> ds(data.begin(), data.end());
    std::vector<std::span<uint8_t>> ps(parity.begin(), parity.end());
    code.Encode(ds, ps);
    for (size_t p = 0; p < 2; ++p) {
      EXPECT_EQ(parity[p][0], code.Coefficient(p, d));
    }
  }
}

}  // namespace
}  // namespace reo
