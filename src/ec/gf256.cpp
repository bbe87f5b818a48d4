#include "ec/gf256.h"

#include <algorithm>
#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/status.h"

namespace reo::gf256 {
namespace {

constexpr uint16_t kPoly = 0x11D;  // x^8+x^4+x^3+x^2+1

struct Tables {
  std::array<uint8_t, 512> exp{};  // doubled to avoid a mod in Mul
  std::array<uint8_t, 256> log{};
};

constexpr Tables MakeTables() {
  Tables t{};
  uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[static_cast<size_t>(i)] = static_cast<uint8_t>(x);
    t.log[static_cast<size_t>(x)] = static_cast<uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPoly;
  }
  for (int i = 255; i < 512; ++i) {
    t.exp[static_cast<size_t>(i)] = t.exp[static_cast<size_t>(i - 255)];
  }
  return t;
}

constexpr Tables kT = MakeTables();

}  // namespace

uint8_t Mul(uint8_t a, uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return kT.exp[static_cast<size_t>(kT.log[a]) + kT.log[b]];
}

uint8_t Div(uint8_t a, uint8_t b) {
  REO_CHECK(b != 0);
  if (a == 0) return 0;
  return kT.exp[static_cast<size_t>(kT.log[a]) + 255 - kT.log[b]];
}

uint8_t Inv(uint8_t a) {
  REO_CHECK(a != 0);
  return kT.exp[static_cast<size_t>(255 - kT.log[a])];
}

uint8_t Pow(uint8_t a, uint32_t e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  uint32_t l = (static_cast<uint32_t>(kT.log[a]) * e) % 255;
  return kT.exp[l];
}

void MulAccScalar(std::span<uint8_t> dst, std::span<const uint8_t> src,
                  uint8_t c) {
  REO_CHECK(dst.size() == src.size());
  if (c == 0) return;
  if (c == 1) {
    for (size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
    return;
  }
  // Per-coefficient 256-entry product table: one lookup per byte.
  uint8_t table[256];
  for (int v = 0; v < 256; ++v) table[v] = Mul(c, static_cast<uint8_t>(v));
  for (size_t i = 0; i < dst.size(); ++i) dst[i] ^= table[src[i]];
}

void MulBufScalar(std::span<uint8_t> dst, std::span<const uint8_t> src,
                  uint8_t c) {
  REO_CHECK(dst.size() == src.size());
  if (c == 0) {
    for (auto& b : dst) b = 0;
    return;
  }
  if (c == 1) {
    for (size_t i = 0; i < dst.size(); ++i) dst[i] = src[i];
    return;
  }
  uint8_t table[256];
  for (int v = 0; v < 256; ++v) table[v] = Mul(c, static_cast<uint8_t>(v));
  for (size_t i = 0; i < dst.size(); ++i) dst[i] = table[src[i]];
}

#if defined(__x86_64__) || defined(__i386__)
namespace {

/// Split-nibble product tables for one coefficient: lo[v] = c*v,
/// hi[v] = c*(v<<4), so c*b = lo[b & 0xF] ^ hi[b >> 4] — exactly the two
/// pshufb lookups per 16 bytes the SIMD kernels run.
struct NibbleTables {
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
};

NibbleTables MakeNibbleTables(uint8_t c) {
  NibbleTables t;
  for (int v = 0; v < 16; ++v) {
    t.lo[v] = Mul(c, static_cast<uint8_t>(v));
    t.hi[v] = Mul(c, static_cast<uint8_t>(v << 4));
  }
  return t;
}

/// 16 products per iteration: two pshufb table lookups (low and high
/// nibble) and a xor, instead of sixteen serial L1 loads.
__attribute__((target("ssse3")))
void MulAccSimd(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c) {
  const NibbleTables t = MakeNibbleTables(c);
  const __m128i lo_tbl = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi_tbl = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    __m128i lo = _mm_shuffle_epi8(lo_tbl, _mm_and_si128(s, mask));
    __m128i hi = _mm_shuffle_epi8(
        hi_tbl, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
    d = _mm_xor_si128(d, _mm_xor_si128(lo, hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d);
  }
  for (; i < n; ++i) dst[i] ^= t.lo[src[i] & 0x0F] ^ t.hi[src[i] >> 4];
}

__attribute__((target("ssse3")))
void MulBufSimd(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c) {
  const NibbleTables t = MakeNibbleTables(c);
  const __m128i lo_tbl = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi_tbl = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i lo = _mm_shuffle_epi8(lo_tbl, _mm_and_si128(s, mask));
    __m128i hi = _mm_shuffle_epi8(
        hi_tbl, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(lo, hi));
  }
  for (; i < n; ++i) dst[i] = t.lo[src[i] & 0x0F] ^ t.hi[src[i] >> 4];
}

bool HasSsse3() {
  static const bool has = __builtin_cpu_supports("ssse3");
  return has;
}

/// Below this, building the nibble tables costs more than it saves.
constexpr size_t kSimdCutover = 32;

}  // namespace
#endif  // x86

#if defined(__x86_64__)
namespace {

// GFNI's vgf2p8mulb multiplies in the AES field (0x11B), not in this one
// (0x11D). But multiplying by a constant is GF(2)-linear in the bits of the
// other operand, so vgf2p8affineqb with AffineMatrix(c) computes c * x in
// any field: 64 products per instruction.

/// Output bytes [i, i + popcount(mask)) of kRows outputs: each source vector
/// is loaded once and feeds every output's accumulator.
template <size_t kRows>
__attribute__((target("avx512f,avx512bw,gfni"), always_inline))
inline void GfniStep(const uint64_t* mats, std::span<const std::span<const uint8_t>> src,
                     const std::span<uint8_t>* out, size_t i, __mmask64 mask) {
  const size_t cols = src.size();
  __m512i acc[kRows];
  for (size_t r = 0; r < kRows; ++r) acc[r] = _mm512_setzero_si512();
  for (size_t s = 0; s < cols; ++s) {
    const __m512i x = _mm512_maskz_loadu_epi8(mask, src[s].data() + i);
    for (size_t r = 0; r < kRows; ++r) {
      const __m512i a = _mm512_set1_epi64(static_cast<long long>(mats[r * cols + s]));
      acc[r] = _mm512_xor_si512(acc[r], _mm512_gf2p8affine_epi64_epi8(x, a, 0));
    }
  }
  for (size_t r = 0; r < kRows; ++r) {
    _mm512_mask_storeu_epi8(out[r].data() + i, mask, acc[r]);
  }
}

/// One pass over the sources for kRows outputs; the last partial vector goes
/// through masked loads and stores.
template <size_t kRows>
__attribute__((target("avx512f,avx512bw,gfni")))
void GfniPass(const uint64_t* mats, std::span<const std::span<const uint8_t>> src,
              const std::span<uint8_t>* out) {
  const size_t n = src[0].size();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) GfniStep<kRows>(mats, src, out, i, ~__mmask64{0});
  if (i < n) GfniStep<kRows>(mats, src, out, i, (__mmask64{1} << (n - i)) - 1);
}

/// Outputs in groups of up to four, one pass over the sources per group (the
/// stripe geometries have at most two outputs).
void DotProductGfni(std::span<const uint64_t> affine,
                    std::span<const std::span<const uint8_t>> src,
                    std::span<const std::span<uint8_t>> out) {
  for (size_t r = 0; r < out.size(); r += 4) {
    const uint64_t* mats = affine.data() + r * src.size();
    const std::span<uint8_t>* o = out.data() + r;
    switch (std::min<size_t>(4, out.size() - r)) {
      case 1: GfniPass<1>(mats, src, o); break;
      case 2: GfniPass<2>(mats, src, o); break;
      case 3: GfniPass<3>(mats, src, o); break;
      default: GfniPass<4>(mats, src, o); break;
    }
  }
}

bool HasGfni() {
  static const bool has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512bw") &&
                          __builtin_cpu_supports("gfni");
  return has;
}

}  // namespace
#endif  // x86_64

bool HasTier(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return true;
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kSsse3: return HasSsse3();
#endif
#if defined(__x86_64__)
    case Tier::kGfni: return HasGfni();
#endif
    default: return false;
  }
}

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kSsse3: return "ssse3";
    case Tier::kGfni: return "gfni";
  }
  return "?";
}

Tier BestTier() {
  if (HasTier(Tier::kGfni)) return Tier::kGfni;
  return HasTier(Tier::kSsse3) ? Tier::kSsse3 : Tier::kScalar;
}

uint64_t AffineMatrix(uint8_t c) {
  uint64_t m = 0;
  for (int j = 0; j < 8; ++j) {
    const uint8_t column = Mul(c, static_cast<uint8_t>(1u << j));
    for (int i = 0; i < 8; ++i) {
      if ((column >> i) & 1) m |= uint64_t{1} << (8 * (7 - i) + j);
    }
  }
  return m;
}

void MulAcc(std::span<uint8_t> dst, std::span<const uint8_t> src, uint8_t c) {
#if defined(__x86_64__) || defined(__i386__)
  if (c > 1 && dst.size() == src.size() && dst.size() >= kSimdCutover &&
      HasSsse3()) {
    MulAccSimd(dst.data(), src.data(), dst.size(), c);
    return;
  }
#endif
  MulAccScalar(dst, src, c);
}

void MulBuf(std::span<uint8_t> dst, std::span<const uint8_t> src, uint8_t c) {
#if defined(__x86_64__) || defined(__i386__)
  if (c > 1 && dst.size() == src.size() && dst.size() >= kSimdCutover &&
      HasSsse3()) {
    MulBufSimd(dst.data(), src.data(), dst.size(), c);
    return;
  }
#endif
  MulBufScalar(dst, src, c);
}

void DotProduct(std::span<const uint8_t> coef, std::span<const uint64_t> affine,
                std::span<const std::span<const uint8_t>> src,
                std::span<const std::span<uint8_t>> out) {
  DotProduct(BestTier(), coef, affine, src, out);
}

void DotProduct(Tier tier, std::span<const uint8_t> coef,
                std::span<const uint64_t> affine,
                std::span<const std::span<const uint8_t>> src,
                std::span<const std::span<uint8_t>> out) {
  REO_CHECK(HasTier(tier));
  REO_CHECK(!src.empty());
  REO_CHECK(coef.size() == out.size() * src.size());
  REO_CHECK(affine.size() == coef.size());
  for (const auto& s : src) REO_CHECK(s.size() == src[0].size());
  for (const auto& o : out) REO_CHECK(o.size() == src[0].size());
  if (out.empty() || src[0].empty()) return;
#if defined(__x86_64__)
  // One source with coefficients 0 and 1 (the 1+k geometries) makes every
  // output a fill or a copy: MulBuf's copy beats an affine multiply by 1.
  const bool copies = src.size() == 1 &&
                      std::ranges::all_of(coef, [](uint8_t c) { return c <= 1; });
  if (tier == Tier::kGfni && !copies) {
    DotProductGfni(affine, src, out);
    return;
  }
#endif
  const bool scalar = tier == Tier::kScalar;
  const size_t cols = src.size();
  for (size_t r = 0; r < out.size(); ++r) {
    const uint8_t* c = coef.data() + r * cols;
    (scalar ? MulBufScalar : MulBuf)(out[r], src[0], c[0]);
    for (size_t s = 1; s < cols; ++s) {
      (scalar ? MulAccScalar : MulAcc)(out[r], src[s], c[s]);
    }
  }
}

}  // namespace reo::gf256
