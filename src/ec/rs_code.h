// Systematic Reed-Solomon code over GF(256).
//
// An (m, k) code turns m equal-size data chunks into n = m + k fragments
// (the m data chunks unchanged plus k parity chunks). Any m surviving
// fragments reconstruct everything — exactly the erasure model described in
// §II.B of the Reo paper. The generator is a Vandermonde matrix reduced to
// systematic form, the textbook RS construction the paper cites [17].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "ec/gf256.h"
#include "ec/matrix.h"

namespace reo {

/// Generator-matrix construction. Both are MDS (any m survivors decode):
/// Vandermonde is the paper's textbook choice [17]; Cauchy (Blömer et al.)
/// derives parity coefficients 1/(x_i + y_j) directly, with every square
/// submatrix invertible by construction.
enum class RsConstruction : uint8_t {
  kVandermonde,
  kCauchy,
};

/// Immutable codec for a fixed (m data, k parity) geometry.
class RsCode {
 public:
  /// @param m data chunks per stripe (>= 1)
  /// @param k parity chunks per stripe (>= 0); m + k <= 255
  explicit RsCode(size_t m, size_t k,
                  RsConstruction construction = RsConstruction::kVandermonde);

  size_t data_chunks() const { return m_; }
  size_t parity_chunks() const { return k_; }
  size_t total_chunks() const { return m_ + k_; }

  /// Encoding coefficient of data chunk `d` in parity chunk `p`.
  uint8_t Coefficient(size_t p, size_t d) const;

  /// Computes all k parity buffers from the m data buffers in one pass over
  /// the data (gf256::DotProduct). All spans must have identical size; the
  /// parity spans are overwritten and need no initialization. `tier` is for
  /// tests and benches; the default is what dispatch picks on this CPU.
  void Encode(std::span<const std::span<const uint8_t>> data,
              std::span<const std::span<uint8_t>> parity,
              gf256::Tier tier = gf256::BestTier()) const;

  /// Recomputes a single parity chunk (index `p` in [0,k)).
  void EncodeParity(size_t p, std::span<const std::span<const uint8_t>> data,
                    std::span<uint8_t> parity) const;

  /// Reconstructs the fragments listed in `missing` (global fragment
  /// indices: 0..m-1 data, m..m+k-1 parity) from any >= m survivors.
  ///
  /// @param present   fragment index -> buffer for every surviving fragment
  ///                  (must contain at least m entries; extra are ignored)
  /// @param missing   fragment indices to rebuild
  /// @param out       output buffers, parallel to `missing`
  /// @returns kUnrecoverable if fewer than m fragments survive.
  Status Reconstruct(
      std::span<const std::pair<size_t, std::span<const uint8_t>>> present,
      std::span<const size_t> missing,
      std::span<const std::span<uint8_t>> out,
      gf256::Tier tier = gf256::BestTier()) const;

 private:
  size_t m_;
  size_t k_;
  GfMatrix generator_;  // n x m, top m x m == identity
  /// The parity rows of the generator (k x m, row-major) and the
  /// gf256::AffineMatrix of each entry, built once for DotProduct.
  std::vector<uint8_t> parity_coef_;
  std::vector<uint64_t> parity_affine_;
};

}  // namespace reo
