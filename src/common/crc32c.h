// CRC32C (Castagnoli) checksum, used to verify chunk payload integrity in
// the flash data plane and to detect corruption injected by device failures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace reo {

/// Computes CRC32C over `data`, continuing from `seed` (0 for a fresh CRC).
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

/// Copies `src` into `dst` (same size) and returns the CRC32C of the bytes
/// copied, continuing from `seed`: equal to Crc32c(src, seed). On the
/// VPCLMULQDQ tier every vector is stored as it is loaded for the CRC, so the
/// bytes are read once; elsewhere it is a copy followed by Crc32c(dst).
uint32_t Crc32cCopy(std::span<uint8_t> dst, std::span<const uint8_t> src,
                    uint32_t seed = 0);

/// Table-driven portable path, always available: the reference the
/// differential tests pin every hardware tier against.
uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed = 0);

/// The hardware tiers. Crc32c picks, from what the CPU has (CPUID at run
/// time), the fastest tier whose size threshold the input meets.
enum class Crc32cTier : uint8_t {
  /// One SSE4.2 crc32q stream: 8 bytes per instruction.
  kSse42,
  /// Three crc32q streams over the three lanes of a kCrc32cFoldThreshold
  /// block, recombined with one PCLMULQDQ multiply.
  kClmul,
  /// Four 512-bit accumulators folding 256 bytes per step with VPCLMULQDQ
  /// (AVX-512F); the last 256 bytes of state go through crc32q.
  kVpclmul,
};

/// True when this CPU has the tier's instructions.
bool Crc32cHasTier(Crc32cTier tier);

/// "sse4.2", "pclmulqdq", "vpclmulqdq": the tier in test and bench names.
const char* Crc32cTierName(Crc32cTier tier);

/// Crc32c through exactly one tier, for any input size (below the tier's
/// threshold its tail loop does all the work). The CPU must have the tier.
/// For differential tests and micro-benchmarks; callers use the dispatching
/// Crc32c above.
uint32_t Crc32c(Crc32cTier tier, std::span<const uint8_t> data,
                uint32_t seed = 0);

/// Minimum input size (bytes) for the kClmul fold (one 3-lane block).
inline constexpr size_t kCrc32cFoldThreshold = 3 * 1024;

/// Minimum input size (bytes) for the kVpclmul fold: below two 256-byte
/// steps the final crc32q pass over the state costs more than it saves.
inline constexpr size_t kCrc32cVpclmulThreshold = 512;

}  // namespace reo
