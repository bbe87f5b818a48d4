// DRAM admission tier configuration and the flash-admission policy
// interface (ROADMAP item 3).
//
// Reo's baseline writes every cache miss straight to flash, so endurance
// is spent on objects never read again. The admission tier holds clean
// objects (classes 2/3) in a bounded DRAM front cache first; on DRAM
// eviction a policy decides whether the object has earned its flash write
// ("graduates" through the existing differentiated-redundancy write path)
// or is dropped and re-fetched from the backend on its next miss. Dirty
// data and metadata (classes 0/1) always bypass the tier — their
// durability contract requires flash + journal before the ack.
//
// Three policies:
//   admit-all    — every eviction graduates; the control arm. With DRAM
//                  size 0 this is byte-identical to the pre-tier stack.
//   flashiness   — Flashield-style: objects graduate only when the reuse
//                  observed while DRAM-resident clears a threshold that
//                  adapts toward a target graduate fraction.
//   write-credit — token bucket refilled at a configured flash-write
//                  budget (bytes/s); graduation spends credits, modeled
//                  on lsm_sim's flash_cache credit scheme.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/object_id.h"
#include "common/sim_clock.h"
#include "common/units.h"
#include "trace/event_log.h"

namespace reo {

enum class AdmissionPolicyKind : uint8_t {
  kAdmitAll = 0,
  kFlashiness,
  kWriteCredit,
};

constexpr std::string_view to_string(AdmissionPolicyKind k) {
  switch (k) {
    case AdmissionPolicyKind::kAdmitAll: return "all";
    case AdmissionPolicyKind::kFlashiness: return "flashiness";
    case AdmissionPolicyKind::kWriteCredit: return "credit";
  }
  return "?";
}

/// Parses "all" / "flashiness" / "credit" (the CLI spelling). Returns
/// false on anything else.
bool ParseAdmissionPolicy(std::string_view name, AdmissionPolicyKind* out);

struct AdmissionConfig {
  /// DRAM front-cache byte budget. 0 disables the tier entirely: every
  /// write goes straight to flash, exactly the pre-tier stack.
  uint64_t dram_bytes = 0;
  AdmissionPolicyKind policy = AdmissionPolicyKind::kAdmitAll;

  /// write-credit: token-bucket refill rate in flash-write bytes/second.
  uint64_t flash_write_budget_bps = 64 * kMiB;
  /// write-credit: bucket cap, as seconds of refill it can accumulate.
  double credit_burst_seconds = 2.0;

  /// flashiness: fraction of DRAM evictions the threshold adapts toward
  /// graduating (the flash-write budget expressed as a rate of evictions).
  double flashiness_target = 0.5;
  /// flashiness: evictions per adaptation window.
  uint32_t flashiness_window = 64;
};

/// One DRAM-evicted object as the policy sees it: the reuse/recency
/// features accumulated while it lived in DRAM.
struct AdmissionCandidate {
  ObjectId id;
  uint64_t logical_bytes = 0;
  uint64_t stored_bytes = 0;  ///< DRAM footprint = flash write size
  uint64_t dram_hits = 0;     ///< reads served while DRAM-resident
  SimTime staged_at = 0;
  SimTime last_hit = 0;
  uint8_t staged_class = 3;
};

/// Decides, per DRAM eviction, whether an object graduates to flash.
/// Policies are single-threaded like the data plane that drives them.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  /// True = graduate (write to flash), false = drop.
  virtual bool ShouldAdmit(const AdmissionCandidate& obj, SimTime now) = 0;

  /// Every flash write the tier causes (graduations and write-throughs)
  /// is reported here so budget-based policies can spend it.
  virtual void OnFlashWrite(uint64_t bytes, SimTime now) {
    (void)bytes;
    (void)now;
  }

  virtual std::string_view name() const = 0;

  /// Threshold moves and budget exhaustion land in this log.
  void AttachEvents(EventLog& events) { ev_ = &events; }

 protected:
  EventLog* ev_ = nullptr;
};

/// Builds the configured policy.
std::unique_ptr<AdmissionPolicy> MakeAdmissionPolicy(const AdmissionConfig& cfg);

}  // namespace reo
