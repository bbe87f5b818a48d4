#include "core/policy.h"

namespace reo {

bool ParseProtectionMode(std::string_view name, ProtectionMode* out) {
  using enum ProtectionMode;
  for (auto [cli, mode] : {std::pair{"reo", kReo}, {"0-parity", kUniform0},
                           {"1-parity", kUniform1}, {"2-parity", kUniform2},
                           {"full-repl", kFullReplication}}) {
    if (name != cli) continue;
    *out = mode;
    return true;
  }
  return false;
}

RedundancyLevel RedundancyPolicy::LevelFor(DataClass cls) const {
  switch (config_.mode) {
    case ProtectionMode::kUniform0:
      return RedundancyLevel::kNone;
    case ProtectionMode::kUniform1:
      return RedundancyLevel::kParity1;
    case ProtectionMode::kUniform2:
      return RedundancyLevel::kParity2;
    case ProtectionMode::kFullReplication:
      return RedundancyLevel::kReplicate;
    case ProtectionMode::kReo:
      switch (cls) {
        case DataClass::kMetadata:
        case DataClass::kDirty:
          return RedundancyLevel::kReplicate;
        case DataClass::kHotClean:
          return RedundancyLevel::kParity2;
        case DataClass::kColdClean:
          return RedundancyLevel::kNone;
      }
  }
  return RedundancyLevel::kNone;
}

uint64_t RedundancyPolicy::ReserveBytes(uint64_t raw_capacity_bytes) const {
  if (config_.mode != ProtectionMode::kReo) {
    // Uniform modes spend whatever their level implies; no explicit cap.
    return raw_capacity_bytes;
  }
  return static_cast<uint64_t>(config_.reo_reserve_fraction *
                               static_cast<double>(raw_capacity_bytes));
}

bool RedundancyPolicy::ReserveApplies(DataClass cls) const {
  if (config_.mode != ProtectionMode::kReo) return false;
  return cls == DataClass::kHotClean || cls == DataClass::kColdClean;
}

}  // namespace reo
