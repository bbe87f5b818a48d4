#include "common/crc32c.h"

#include <algorithm>
#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/status.h"

namespace reo {
namespace {

// Table-driven CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

uint32_t Crc32cSoftware(std::span<const uint8_t> data, uint32_t crc) {
  for (uint8_t byte : data) {
    crc = kTable[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) || defined(__i386__)
// Hardware path: the SSE4.2 CRC32 instruction computes exactly CRC32C.
// The data plane checksums every chunk on every IO, so this is hot.
__attribute__((target("sse4.2")))
uint32_t Crc32cHardware(std::span<const uint8_t> data, uint32_t crc) {
  const uint8_t* p = data.data();
  size_t n = data.size();
#if defined(__x86_64__)
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    crc64 = __builtin_ia32_crc32di(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
#endif
  while (n >= 4) {
    uint32_t word;
    __builtin_memcpy(&word, p, 4);
    crc = __builtin_ia32_crc32si(crc, word);
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p);
    ++p;
    --n;
  }
  return crc;
}

bool HasSse42() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}
#endif

#if defined(__x86_64__)
// --- PCLMULQDQ-folded bulk path ---------------------------------------------
//
// The SSE4.2 crc32q instruction has 3-cycle latency but 1-cycle
// throughput, so a single dependent stream leaves 2/3 of the unit idle.
// The folded path runs THREE independent crc32q streams over adjacent
// kFoldLane-byte lanes of each block, then recombines the three partial
// CRCs with carry-less multiplies.
//
// Combine math, in the reflected-CRC state convention (state bit i =
// coefficient of x^i; G below is the degree-32 CRC32C polynomial in that
// convention, G = (0x82F63B78 << 1) | 1):
//
//   * Appending one zero BIT to the message multiplies the state
//     polynomial by x^-1 mod G, so appending N zero bytes multiplies by
//     x^-8N — "shifting" a lane CRC across the lanes after it.
//   * crc32q with a zero seed maps a 64-bit operand D to D(x) * x^-64
//     mod G, and PCLMULQDQ computes the plain polynomial product, so
//     crc32q(0, clmul(C, K)) = C(x) * K(x) * x^-64 mod G.
//   * Picking K = x^(64 - 8N) mod G therefore turns that two-instruction
//     sequence into exactly the shift-by-N-zero-bytes map.
//
// With lane CRCs c0 (seeded with the running CRC), c1, c2 (seeded 0):
//   crc(block) = shift_2L(c0) ^ shift_L(c1) ^ c2
//              = crc32q(0, clmul(c0, K_2L) ^ clmul(c1, K_L)) ^ c2.
// The constants are powers of x^-1 = 0x82F63B78 mod G, computed once at
// first use by plain square-and-multiply — no opaque magic numbers, and
// the differential test pins the whole construction against the portable
// table implementation.

constexpr size_t kFoldLane = kCrc32cFoldThreshold / 3;
constexpr uint64_t kPolyG = (0x82F63B78ull << 1) | 1;  // x^32..x^0 coeffs

/// GF(2) polynomial multiply mod G; operands/result use bit i = coeff x^i.
constexpr uint32_t PolyMulMod(uint32_t a, uint32_t b) {
  uint64_t prod = 0;
  for (int i = 0; i < 32; ++i) {
    if ((a >> i) & 1) prod ^= static_cast<uint64_t>(b) << i;
  }
  for (int i = 62; i >= 32; --i) {
    if ((prod >> i) & 1) prod ^= kPolyG << (i - 32);
  }
  return static_cast<uint32_t>(prod);
}

/// (x^-1)^e mod G by square-and-multiply.
constexpr uint32_t PolyPowXInv(uint64_t e) {
  uint32_t result = 1;            // polynomial "1"
  uint32_t base = 0x82F63B78u;    // x^-1 mod G
  while (e != 0) {
    if (e & 1) result = PolyMulMod(result, base);
    base = PolyMulMod(base, base);
    e >>= 1;
  }
  return result;
}

// K_L = x^(64 - 8L), K_2L = x^(64 - 16L): both exponents are negative for
// any useful lane size, i.e. powers of x^-1.
constexpr uint32_t kFoldShiftL = PolyPowXInv(8 * kFoldLane - 64);
constexpr uint32_t kFoldShift2L = PolyPowXInv(16 * kFoldLane - 64);

__attribute__((target("sse4.2,pclmul")))
uint32_t Crc32cFolded(std::span<const uint8_t> data, uint32_t crc) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t c0 = crc;
  const __m128i k = _mm_set_epi64x(static_cast<long long>(kFoldShiftL),
                                   static_cast<long long>(kFoldShift2L));
  while (n >= 3 * kFoldLane) {
    uint64_t s0 = c0, s1 = 0, s2 = 0;
    const uint8_t* q0 = p;
    const uint8_t* q1 = p + kFoldLane;
    const uint8_t* q2 = p + 2 * kFoldLane;
    for (size_t i = 0; i < kFoldLane; i += 8) {
      uint64_t w0, w1, w2;
      __builtin_memcpy(&w0, q0 + i, 8);
      __builtin_memcpy(&w1, q1 + i, 8);
      __builtin_memcpy(&w2, q2 + i, 8);
      s0 = _mm_crc32_u64(s0, w0);
      s1 = _mm_crc32_u64(s1, w1);
      s2 = _mm_crc32_u64(s2, w2);
    }
    // imm 0x00: a.lo * k.lo (c0 * K_2L); 0x10: a.lo * k.hi (c1 * K_L).
    // Both products have degree <= 62, so the low 64 bits hold them fully.
    __m128i f0 =
        _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(s0)), k,
                             0x00);
    __m128i f1 =
        _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(s1)), k,
                             0x10);
    uint64_t folded =
        static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_xor_si128(f0, f1)));
    c0 = _mm_crc32_u64(0, folded) ^ s2;
    p += 3 * kFoldLane;
    n -= 3 * kFoldLane;
  }
  return Crc32cHardware({p, n}, static_cast<uint32_t>(c0));
}

bool HasClmul() {
  static const bool has =
      __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul");
  return has;
}

// --- VPCLMULQDQ + AVX-512 fold ----------------------------------------------
//
// Four 512-bit accumulators hold 256 bytes of message state: sixteen 128-bit
// lanes. Each step folds every lane forward by D = 2048 bits (256 bytes) onto
// the lane at the same position of the next 256 input bytes.
//
// Lane convention: the 16 bytes of a lane are loaded little-endian, and a
// reflected CRC consumes byte 0 first, LSB first, so lane bit j is the
// coefficient of x^(127-j). Call that a "reflected-128" value (likewise
// reflected-64/32). Splitting a lane X into its low qword L (bytes 0-7, the
// high-degree half) and high qword H: X = L*x^64 + H, so
//
//   X * x^D = L * x^(D+64) + H * x^D   (mod P).
//
// PCLMULQDQ of two reflected-64 operands a, b yields bits c_t = XOR over
// i+j=t of a_i*b_j, and read as reflected-128 that is A*B*x: the sum of the
// exponents (63-i)+(63-j) = 126-t is one short of the 127-t the output
// position stands for. So the constants carry one power of x less:
//
//   K_lo = x^(D+63) mod P   multiplies L,
//   K_hi = x^(D-1)  mod P   multiplies H,
//
// and clmul(L, K_lo) ^ clmul(H, K_hi) is a 128-bit value (degree <= 95 + 1)
// congruent to X * x^D: it goes into the lane D bits later, XORed with the
// input there. A residue of degree < 32 read as reflected-64 sits in bits
// 32-63, i.e. it is its reflected-32 form shifted left by 32.
//
// Reflected-32 of x^n mod P is what PolyPowXInv computes, up to an offset:
// in the state convention above (bit i = x^i modulo the reversed polynomial
// G), reversing 32 bits maps x^n mod P to x^(31-n) mod G = PolyPowXInv(n-31).
//
// The running CRC enters by XOR into the first four message bytes (crc32q
// does the same with its source operand), so after the last fold the 256
// bytes of state, taken as a message with initial state 0, have the CRC of
// everything folded; crc32q reduces them and continues over the tail.

constexpr size_t kFoldBits = 2048;
constexpr size_t kFoldBytes = kFoldBits / 8;
constexpr uint64_t kFoldLo = uint64_t{PolyPowXInv(kFoldBits + 63 - 31)} << 32;
constexpr uint64_t kFoldHi = uint64_t{PolyPowXInv(kFoldBits - 1 - 31)} << 32;

static_assert(kCrc32cVpclmulThreshold >= kFoldBytes);

__attribute__((target("avx512f,vpclmulqdq"), always_inline))
inline __m512i Fold(__m512i acc, __m512i k, __m512i next) {
  // 0x96: three-way XOR.
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11),
                                   next, 0x96);
}

/// Loads 64 bytes at `src + off` and, with kCopy, stores them at `dst + off`.
template <bool kCopy>
__attribute__((target("avx512f"), always_inline))
inline __m512i Load(const uint8_t* src, uint8_t* dst, size_t off) {
  __m512i v = _mm512_loadu_si512(src + off);
  if constexpr (kCopy) _mm512_storeu_si512(dst + off, v);
  return v;
}

/// CRC state over `n` bytes at `p`. With kCopy, every loaded vector (and the
/// tail) is also stored to `dst`: the bytes copied are the bytes CRC'd.
template <bool kCopy>
__attribute__((target("avx512f,vpclmulqdq,sse4.2")))
uint32_t Crc32cVpclmul(uint8_t* dst, const uint8_t* p, size_t n, uint32_t crc) {
  if (n >= kCrc32cVpclmulThreshold) {
    const auto lo = static_cast<long long>(kFoldLo);
    const auto hi = static_cast<long long>(kFoldHi);
    const __m512i k = _mm512_set4_epi64(hi, lo, hi, lo);  // per 128-bit lane
    __m512i x0 = _mm512_xor_si512(
        Load<kCopy>(p, dst, 0), _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(crc))));
    __m512i x1 = Load<kCopy>(p, dst, 64);
    __m512i x2 = Load<kCopy>(p, dst, 128);
    __m512i x3 = Load<kCopy>(p, dst, 192);
    for (size_t off = kFoldBytes; off + kFoldBytes <= n; off += kFoldBytes) {
      x0 = Fold(x0, k, Load<kCopy>(p, dst, off));
      x1 = Fold(x1, k, Load<kCopy>(p, dst, off + 64));
      x2 = Fold(x2, k, Load<kCopy>(p, dst, off + 128));
      x3 = Fold(x3, k, Load<kCopy>(p, dst, off + 192));
    }
    size_t done = n - n % kFoldBytes;
    alignas(64) uint8_t state[kFoldBytes];
    _mm512_store_si512(state, x0);
    _mm512_store_si512(state + 64, x1);
    _mm512_store_si512(state + 128, x2);
    _mm512_store_si512(state + 192, x3);
    crc = Crc32cHardware({state, kFoldBytes}, 0);
    p += done;
    n -= done;
    if constexpr (kCopy) dst += done;
  }
  if constexpr (kCopy) {
    std::copy(p, p + n, dst);
    p = dst;
  }
  return Crc32cHardware({p, n}, crc);
}

bool HasVpclmul() {
  static const bool has = __builtin_cpu_supports("sse4.2") &&
                          __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("vpclmulqdq");
  return has;
}
#endif

/// CRC state over `data` through one tier (the CPU must have it).
uint32_t StateAt(Crc32cTier tier, std::span<const uint8_t> data, uint32_t crc) {
  REO_CHECK(Crc32cHasTier(tier));
#if defined(__x86_64__)
  switch (tier) {
    case Crc32cTier::kSse42: return Crc32cHardware(data, crc);
    case Crc32cTier::kClmul: return Crc32cFolded(data, crc);
    case Crc32cTier::kVpclmul:
      return Crc32cVpclmul<false>(nullptr, data.data(), data.size(), crc);
  }
#endif
  return Crc32cSoftware(data, crc);
}

}  // namespace

bool Crc32cHasTier(Crc32cTier tier) {
#if defined(__x86_64__)
  switch (tier) {
    case Crc32cTier::kSse42: return HasSse42();
    case Crc32cTier::kClmul: return HasClmul();
    case Crc32cTier::kVpclmul: return HasVpclmul();
  }
#endif
  (void)tier;
  return false;
}

const char* Crc32cTierName(Crc32cTier tier) {
  switch (tier) {
    case Crc32cTier::kSse42: return "sse4.2";
    case Crc32cTier::kClmul: return "pclmulqdq";
    case Crc32cTier::kVpclmul: return "vpclmulqdq";
  }
  return "?";
}

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed) {
  uint32_t crc = ~seed;
#if defined(__x86_64__)
  if (data.size() >= kCrc32cVpclmulThreshold && HasVpclmul()) {
    return ~Crc32cVpclmul<false>(nullptr, data.data(), data.size(), crc);
  }
  if (data.size() >= kCrc32cFoldThreshold && HasClmul()) {
    return ~Crc32cFolded(data, crc);
  }
#endif
#if defined(__x86_64__) || defined(__i386__)
  if (HasSse42()) return ~Crc32cHardware(data, crc);
#endif
  return ~Crc32cSoftware(data, crc);
}

uint32_t Crc32cCopy(std::span<uint8_t> dst, std::span<const uint8_t> src,
                    uint32_t seed) {
  REO_CHECK(dst.size() == src.size());
#if defined(__x86_64__)
  if (src.size() >= kCrc32cVpclmulThreshold && HasVpclmul()) {
    return ~Crc32cVpclmul<true>(dst.data(), src.data(), src.size(), ~seed);
  }
#endif
  std::copy(src.begin(), src.end(), dst.begin());
  return Crc32c(dst, seed);
}

uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed) {
  return ~Crc32cSoftware(data, ~seed);
}

uint32_t Crc32c(Crc32cTier tier, std::span<const uint8_t> data, uint32_t seed) {
  return ~StateAt(tier, data, ~seed);
}

}  // namespace reo
