// In-band ADMIN commands: STATS / SERIES / EVENTS / HEALTH served on the
// same CRC32C-framed TCP stream as data commands. An admin request is one
// framed payload whose leading magic differs from the OSD command magic,
// so the server dispatches per frame with a single u32 peek and an admin
// poll never perturbs data-path ordering on the connection.
//
// Request payload (little-endian, fixed 10 bytes):
//   u32 magic "REOA" | u8 op | u32 arg | u8 reserved (must be 0)
// `arg` scopes the reply: SERIES = newest windows wanted (0 = all
// retained), EVENTS = newest events wanted (0 = all retained); STATS and
// HEALTH ignore it. Strict decode: trailing bytes or a nonzero reserved
// byte reject the frame (the reserved byte is the compatibility hinge —
// old servers refuse new-format requests instead of misreading them).
//
// Response payload:
//   u32 magic "REOS" | u8 status (0 = ok) | u64 json_len | json bytes
// The JSON body is one of the versioned schemas ("reo.stats.v1" =
// MetricSnapshot::ToJson, "reo.series.v1", "reo.events.v1",
// "reo.health.v1"); on status != 0 it is {"error":"..."}.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace reo {

inline constexpr uint32_t kAdminCommandMagic = 0x52454F41;   // "REOA"
inline constexpr uint32_t kAdminResponseMagic = 0x52454F53;  // "REOS"

enum class AdminOp : uint8_t {
  kStats = 0,   ///< full MetricSnapshot JSON
  kSeries = 1,  ///< TimeSeriesRing JSON (arg = max windows, 0 = all)
  kEvents = 2,  ///< EventLog JSON (arg = max events, 0 = all)
  kHealth = 3,  ///< liveness summary JSON
  kOwners = 4,  ///< cluster directory dump ("reo.owners.v1")
};

constexpr std::string_view to_string(AdminOp op) {
  switch (op) {
    case AdminOp::kStats: return "stats";
    case AdminOp::kSeries: return "series";
    case AdminOp::kEvents: return "events";
    case AdminOp::kHealth: return "health";
    case AdminOp::kOwners: return "owners";
  }
  return "unknown";
}

struct AdminCommand {
  AdminOp op = AdminOp::kStats;
  uint32_t arg = 0;
};

struct AdminResponse {
  uint8_t status = 0;  ///< 0 = ok; nonzero carries {"error":...} JSON
  std::string json;
};

/// True when a framed payload is an admin request (vs an OSD command):
/// the one-u32 dispatch peek the server's frame handler uses.
bool IsAdminFrame(std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeAdminCommand(const AdminCommand& cmd);
Result<AdminCommand> DecodeAdminCommand(std::span<const uint8_t> wire);

std::vector<uint8_t> EncodeAdminResponse(const AdminResponse& resp);
Result<AdminResponse> DecodeAdminResponse(std::span<const uint8_t> wire);

}  // namespace reo
