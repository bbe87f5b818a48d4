// Protection policies: Reo's differentiated redundancy and the paper's
// baselines (uniform 0/1/2-parity, full replication) — §IV.C.4 and §VI.A.
#pragma once

#include <cstdint>
#include <string_view>

#include "array/stripe.h"
#include "core/classifier.h"

namespace reo {

/// The configurations compared in the evaluation.
enum class ProtectionMode : uint8_t {
  kUniform0,         ///< 0-parity: no redundancy for anything
  kUniform1,         ///< 1 parity chunk per stripe for all data
  kUniform2,         ///< 2 parity chunks per stripe for all data
  kFullReplication,  ///< replicas on every device for all data
  kReo,              ///< differentiated redundancy (Table II mapping)
};

constexpr std::string_view to_string(ProtectionMode m) {
  switch (m) {
    case ProtectionMode::kUniform0: return "0-parity";
    case ProtectionMode::kUniform1: return "1-parity";
    case ProtectionMode::kUniform2: return "2-parity";
    case ProtectionMode::kFullReplication: return "full-replication";
    case ProtectionMode::kReo: return "Reo";
  }
  return "?";
}

/// Parses "reo" / "0-parity" / "1-parity" / "2-parity" / "full-repl" (the
/// CLI spelling). Returns false on anything else.
bool ParseProtectionMode(std::string_view name, ProtectionMode* out);

struct PolicyConfig {
  ProtectionMode mode = ProtectionMode::kReo;
  /// Reo-X%: fraction of raw flash space reserved for redundancy
  /// (paper §VI.B: 10%, 20%, 40%).
  double reo_reserve_fraction = 0.10;
};

/// Maps a data class to the redundancy level to store it at.
class RedundancyPolicy {
 public:
  explicit RedundancyPolicy(PolicyConfig config) : config_(config) {}

  const PolicyConfig& config() const { return config_; }
  ProtectionMode mode() const { return config_.mode; }

  /// The level `cls` is stored at (§IV.C.4). Uniform modes ignore the
  /// class; Reo maps metadata/dirty -> replicate, hot -> 2-parity,
  /// cold -> none.
  RedundancyLevel LevelFor(DataClass cls) const;

  /// Redundancy byte budget for a raw array capacity. Uniform modes have
  /// no explicit reserve (redundancy is implied by the level everywhere).
  uint64_t ReserveBytes(uint64_t raw_capacity_bytes) const;

  /// Whether the reserve cap applies to this class under this mode. Reo
  /// exempts metadata and dirty data: their protection is mandatory (a
  /// loss would be permanent), so they may exceed the reserve.
  bool ReserveApplies(DataClass cls) const;

 private:
  PolicyConfig config_;
};

}  // namespace reo
