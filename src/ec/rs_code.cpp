#include "ec/rs_code.h"

#include <algorithm>

#include "ec/gf256.h"

namespace reo {

namespace {

/// The generator for (m, k): identity on top, k parity rows below.
GfMatrix MakeGenerator(size_t m, size_t k, RsConstruction construction) {
  GfMatrix generator;
  if (k == 1) {
    // Single parity is plain RAID-5 XOR: generator row of ones. Still MDS
    // (dropping identity row i leaves a unit upper/lower triangular-like
    // square with the ones-row, whose determinant is 1), and on the
    // MulAcc tiers coefficient 1 makes encoding a pure XOR.
    generator = GfMatrix(m + 1, m);
    for (size_t d = 0; d < m; ++d) {
      generator.at(d, d) = 1;
      generator.at(m, d) = 1;
    }
    return generator;
  }
  if (construction == RsConstruction::kCauchy) {
    // Identity on top, Cauchy parity rows C[p][d] = 1/(x_p + y_d) with
    // disjoint {x_p} and {y_d}: every square submatrix of a Cauchy matrix
    // is invertible, which makes [I; C] MDS.
    generator = GfMatrix(m + k, m);
    for (size_t d = 0; d < m; ++d) generator.at(d, d) = 1;
    for (size_t p = 0; p < k; ++p) {
      for (size_t d = 0; d < m; ++d) {
        auto x = static_cast<uint8_t>(p);
        auto y = static_cast<uint8_t>(k + d);
        generator.at(m + p, d) = gf256::Inv(gf256::Add(x, y));
      }
    }
    return generator;
  }
  // Systematic Vandermonde: G = V * inv(V_top). Right-multiplying by an
  // invertible matrix keeps every m x m row-submatrix invertible (each is
  // submatrix(V) * inv(V_top), a product of invertibles), so any m
  // surviving fragments decode — the MDS property. (Note: *row*-reducing V
  // instead would destroy this property.)
  GfMatrix v = GfMatrix::Vandermonde(m + k, m);
  std::vector<size_t> top(m);
  for (size_t i = 0; i < m; ++i) top[i] = i;
  auto top_inv = v.SelectRows(top).Inverse();
  REO_CHECK(top_inv.ok());
  return v.Multiply(*top_inv);
}

}  // namespace

RsCode::RsCode(size_t m, size_t k, RsConstruction construction)
    : m_(m), k_(k) {
  REO_CHECK(m >= 1);
  REO_CHECK(m + k <= 255);
  generator_ = MakeGenerator(m, k, construction);
  for (size_t p = 0; p < k; ++p) {
    for (size_t d = 0; d < m; ++d) {
      parity_coef_.push_back(generator_.at(m + p, d));
      parity_affine_.push_back(gf256::AffineMatrix(parity_coef_.back()));
    }
  }
}

uint8_t RsCode::Coefficient(size_t p, size_t d) const {
  REO_CHECK(p < k_ && d < m_);
  return generator_.at(m_ + p, d);
}

void RsCode::Encode(std::span<const std::span<const uint8_t>> data,
                    std::span<const std::span<uint8_t>> parity,
                    gf256::Tier tier) const {
  REO_CHECK(data.size() == m_);
  REO_CHECK(parity.size() == k_);
  gf256::DotProduct(tier, parity_coef_, parity_affine_, data, parity);
}

void RsCode::EncodeParity(size_t p,
                          std::span<const std::span<const uint8_t>> data,
                          std::span<uint8_t> parity) const {
  REO_CHECK(p < k_);
  REO_CHECK(data.size() == m_);
  gf256::DotProduct(std::span(parity_coef_).subspan(p * m_, m_),
                    std::span(parity_affine_).subspan(p * m_, m_), data,
                    std::span(&parity, 1));
}

Status RsCode::Reconstruct(
    std::span<const std::pair<size_t, std::span<const uint8_t>>> present,
    std::span<const size_t> missing,
    std::span<const std::span<uint8_t>> out, gf256::Tier tier) const {
  REO_CHECK(missing.size() == out.size());
  if (present.size() < m_) {
    return {ErrorCode::kUnrecoverable, "fewer surviving fragments than m"};
  }
  // Use the first m survivors.
  std::vector<size_t> rows;
  rows.reserve(m_);
  std::vector<std::span<const uint8_t>> bufs;
  bufs.reserve(m_);
  for (const auto& [idx, buf] : present) {
    if (rows.size() == m_) break;
    REO_CHECK(idx < m_ + k_);
    rows.push_back(idx);
    bufs.push_back(buf);
  }
  // survivors = G[rows] * data  =>  data = inv(G[rows]) * survivors.
  GfMatrix sub = generator_.SelectRows(rows);
  auto inv = sub.Inverse();
  if (!inv.ok()) return inv.status();

  // Each missing fragment f is G[f] * data = (G[f] * inv) * survivors:
  // compose those rows into one coefficient matrix, then one DotProduct
  // pass over the survivors writes every output.
  std::vector<uint8_t> coef(missing.size() * m_);
  std::vector<uint64_t> affine(coef.size());
  for (size_t mi = 0; mi < missing.size(); ++mi) {
    size_t f = missing[mi];
    REO_CHECK(f < m_ + k_);
    for (size_t s = 0; s < m_; ++s) {
      uint8_t c = 0;
      for (size_t d = 0; d < m_; ++d) {
        c = gf256::Add(c, gf256::Mul(generator_.at(f, d), inv->at(d, s)));
      }
      coef[mi * m_ + s] = c;
      affine[mi * m_ + s] = gf256::AffineMatrix(c);
    }
  }
  gf256::DotProduct(tier, coef, affine, bufs, out);
  return Status::Ok();
}

}  // namespace reo
