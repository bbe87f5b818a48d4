// GF(2^8) arithmetic for Reed-Solomon coding.
//
// Field: polynomial basis with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), generator 2. Multiplication and
// division go through exp/log tables; the bulk kernels over buffers (MulAcc,
// MulBuf, DotProduct) are the hot path of stripe encoding and
// reconstruction.
#pragma once

#include <cstdint>
#include <span>

namespace reo::gf256 {

/// a + b (== a - b) in GF(256).
constexpr uint8_t Add(uint8_t a, uint8_t b) { return a ^ b; }

/// a * b via exp/log tables.
uint8_t Mul(uint8_t a, uint8_t b);

/// a / b; b must be non-zero.
uint8_t Div(uint8_t a, uint8_t b);

/// Multiplicative inverse; a must be non-zero.
uint8_t Inv(uint8_t a);

/// a^e (e >= 0).
uint8_t Pow(uint8_t a, uint32_t e);

/// dst[i] ^= c * src[i] for all i. The stripe-encoding kernel. Dispatches
/// to an SSSE3 pshufb split-nibble kernel at runtime when the CPU has it
/// (mirroring the CRC32C SSE4.2 dispatch); byte-identical to the scalar
/// path either way.
void MulAcc(std::span<uint8_t> dst, std::span<const uint8_t> src, uint8_t c);

/// dst[i] = c * src[i] for all i.
void MulBuf(std::span<uint8_t> dst, std::span<const uint8_t> src, uint8_t c);

/// Portable table-per-coefficient reference kernels. Exposed so the
/// differential tests and micro-benches can pin the SIMD path against
/// them; production code calls MulAcc/MulBuf and gets the dispatch.
void MulAccScalar(std::span<uint8_t> dst, std::span<const uint8_t> src,
                  uint8_t c);
void MulBufScalar(std::span<uint8_t> dst, std::span<const uint8_t> src,
                  uint8_t c);

/// The kernel tiers, slowest first. Dispatch picks the best one this CPU
/// has, from CPUID at run time.
enum class Tier : uint8_t {
  kScalar,  ///< per-coefficient 256-entry product table, one byte at a time
  kSsse3,   ///< pshufb split-nibble lookups, 16 bytes at a time
  kGfni,    ///< vgf2p8affineqb (GFNI + AVX-512BW), 64 bytes at a time
};

/// True when this CPU has the tier's instructions (kScalar: always).
bool HasTier(Tier tier);

/// "scalar", "ssse3", "gfni": the tier in test and bench names.
const char* TierName(Tier tier);

/// The tier DotProduct dispatches to on this CPU.
Tier BestTier();

/// Multiplication by `c` as an 8x8 GF(2) bit matrix in vgf2p8affineqb's
/// operand layout: byte 7-i of the result is the row of output bit i (bit j
/// set when bit i of c * 2^j is set).
uint64_t AffineMatrix(uint8_t c);

/// out[r] = XOR over s of coef[r * src.size() + s] * src[s], for every output
/// r: a (out.size() x src.size()) row-major coefficient matrix applied to
/// equal-size buffers. `affine` holds AffineMatrix of each coefficient, in
/// the same layout. Every output byte is written once, so `out` need not be
/// initialized and no output may alias a source.
///
/// kGfni makes one pass over the sources for up to four outputs at a time;
/// kSsse3 and kScalar run MulBuf on the first source and MulAcc on the rest,
/// per output (kSsse3 through the dispatched MulBuf/MulAcc). kGfni takes the
/// kSsse3 path when there is one source and every coefficient is 0 or 1:
/// each output is then a fill or a copy. This overload uses BestTier(); the
/// other takes a tier the CPU must have.
void DotProduct(std::span<const uint8_t> coef, std::span<const uint64_t> affine,
                std::span<const std::span<const uint8_t>> src,
                std::span<const std::span<uint8_t>> out);
void DotProduct(Tier tier, std::span<const uint8_t> coef,
                std::span<const uint64_t> affine,
                std::span<const std::span<const uint8_t>> src,
                std::span<const std::span<uint8_t>> out);

}  // namespace reo::gf256
