// Declarative fault specifications for the fault-injection subsystem.
//
// A FaultSpec is a seed plus a list of rules, one per (site, filter)
// combination. Rules are matched per operation at a fault *site* — a named
// point in the stack where the injector is consulted (flash slot reads,
// backend fetches, persistence commits, ...). Windows are expressed in
// per-site operation counts, not wall-clock time, so the same spec + seed
// reproduces the identical fault sequence in the simulator and behind the
// TCP server regardless of timing.
//
// Specs are written as JSON (reo_cli --fault-spec, reo_server --fault-spec,
// reo_loadgen --chaos-spec):
//
//   {
//     "seed": 42,
//     "rules": [
//       {"site": "flash.latent", "probability": 0.01},
//       {"site": "flash.read_transient", "probability": 0.05,
//        "window": [0, 5000], "burst": 2, "max_triggers": 100},
//       {"site": "flash.failslow", "device": 2, "slow_factor": 8.0},
//       {"site": "backend.transient", "probability": 0.02},
//       {"site": "persist.fsync", "probability": 0.001}
//     ]
//   }
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/status.h"

namespace reo {

/// A point in the stack where the injector is consulted, one roll per
/// operation. Order is load-bearing: each site draws from its own seeded
/// RNG stream (seed, site index) so adding ops at one site never perturbs
/// the fault sequence at another.
enum class FaultSite : uint8_t {
  kFlashLatent = 0,      ///< corrupt slot payload at write (found on read)
  kFlashReadTransient,   ///< slot read returns kIoError once
  kFlashWriteTransient,  ///< slot write returns kIoError once
  kFlashFailSlow,        ///< multiply device service time
  kBackendTransient,     ///< backend fetch returns kIoError once
  kBackendSlow,          ///< backend fetch gains added latency
  kPersistWrite,         ///< persistence commit fails (short write)
  kPersistFsync,         ///< persistence fsync fails
};

inline constexpr size_t kFaultSiteCount = 8;

constexpr std::string_view to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kFlashLatent: return "flash.latent";
    case FaultSite::kFlashReadTransient: return "flash.read_transient";
    case FaultSite::kFlashWriteTransient: return "flash.write_transient";
    case FaultSite::kFlashFailSlow: return "flash.failslow";
    case FaultSite::kBackendTransient: return "backend.transient";
    case FaultSite::kBackendSlow: return "backend.slow";
    case FaultSite::kPersistWrite: return "persist.write";
    case FaultSite::kPersistFsync: return "persist.fsync";
  }
  return "?";
}

/// Parses a site name ("flash.latent"); kInvalidArgument on unknown names.
Result<FaultSite> ParseFaultSite(std::string_view name);

/// One injection rule. A rule fires when the operation is inside its
/// op-count window, matches its device filter, has triggers left, and the
/// per-site RNG draw lands under `probability` (or a burst is running).
struct FaultRule {
  FaultSite site = FaultSite::kFlashLatent;
  double probability = 0.0;     ///< chance of firing per matched op
  uint32_t burst = 1;           ///< consecutive ops affected once triggered
  uint64_t window_start_op = 0; ///< first per-site op index affected
  uint64_t window_end_op = UINT64_MAX;  ///< one past the last op affected
  int32_t device = -1;          ///< device filter; -1 = any device
  double slow_factor = 1.0;     ///< service-time multiplier (failslow/slow)
  uint64_t added_latency_ns = 0;  ///< flat latency added when firing
  uint64_t max_triggers = 0;    ///< total firings allowed; 0 = unlimited
};

struct FaultSpec {
  uint64_t seed = 1;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }
  /// True if any rule targets `site`.
  bool Targets(FaultSite site) const;
};

/// Parses the JSON spec format above with JsonDoc (telemetry/json_scan.h).
/// kInvalidArgument on malformed JSON (the message carries the byte
/// offset), unknown or repeated keys, unknown sites, and values of the
/// wrong type or out of range: integer fields must be integral numbers
/// within the field's range and 2^53.
Result<FaultSpec> ParseFaultSpec(std::string_view json);

/// ParseFaultSpec over a file's contents; the path prefixes parse errors.
Result<FaultSpec> LoadFaultSpecFile(const std::string& path);

/// The parser of a flag naming a spec file (--fault-spec): loads it into
/// *out, or rejects the flag with the load error.
FlagSet::Parser FaultSpecFlag(FaultSpec* out);

}  // namespace reo
