// ReoDataPlane: the target-side differentiated-redundancy engine.
//
// Implements the osd::DataPlane interface over the StripeManager: maps
// class IDs to redundancy levels via the active policy, enforces the
// redundancy reserve (sense 0x67 when the reserved space is exhausted —
// the object is then stored/kept unprotected rather than rejected), and
// exposes recovery state to the control-object protocol.
#pragma once

#include <cstdint>

#include "admit/admission_tier.h"
#include "array/stripe_manager.h"
#include "common/rng.h"
#include "core/policy.h"
#include "fault/retry.h"
#include "osd/osd_target.h"
#include "telemetry/metric_registry.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {

class PersistenceManager;

class ReoDataPlane final : public DataPlane {
 public:
  /// @param stripes storage engine; must outlive the plane.
  ReoDataPlane(StripeManager& stripes, RedundancyPolicy policy);

  // --- DataPlane -------------------------------------------------------------
  Result<DataPlaneIo> WriteObject(ObjectId id, std::span<const uint8_t> payload,
                                  uint64_t logical_bytes, uint8_t class_id,
                                  SimTime now) override;
  Result<DataPlaneIo> ReadObject(ObjectId id, SimTime now) override;
  Status RemoveObject(ObjectId id) override;
  Status SetObjectClass(ObjectId id, uint8_t class_id, SimTime now) override;
  ObjectHealth Health(ObjectId id) const override;
  bool recovery_active() const override { return recovery_active_; }
  bool HasSpaceFor(uint64_t logical_bytes, uint8_t class_id) const override;
  /// Flash-only space check: ignores the DRAM tier's staging shortcut.
  /// The cache manager's graduation wrapper evicts against this.
  bool HasFlashSpaceFor(uint64_t logical_bytes, uint8_t class_id) const;
  void OnFormat(uint64_t capacity_bytes, SimTime now) override;

  // --- Reo-specific ----------------------------------------------------------

  const RedundancyPolicy& policy() const { return policy_; }
  StripeManager& stripes() { return stripes_; }

  /// Redundancy byte budget (from the Reo-X% reserve fraction).
  uint64_t reserve_bytes() const { return reserve_bytes_; }
  /// Redundancy bytes currently in use.
  uint64_t redundancy_in_use() const { return stripes_.redundancy_bytes(); }

  /// Level an object of `class_id` would be stored at *right now*,
  /// including the reserve-cap downgrade for hot-clean data.
  RedundancyLevel EffectiveLevel(uint64_t logical_bytes, uint8_t class_id) const;

  void set_recovery_active(bool active) { recovery_active_ = active; }

  /// Counters for reserve-cap downgrades (observable as sense 0x67).
  uint64_t reserve_rejections() const { return reserve_rejections_; }

  /// Registers the redundancy engine's metrics ("dataplane.*") and begins
  /// hot-path updates: op counts, reserve pressure, redundancy footprint.
  void AttachTelemetry(MetricRegistry& registry);

  /// Resolves the data-plane span track and fans out to the stripe layer
  /// (reconstruction track + per-device flash tracks).
  void AttachTracing(Tracer& tracer);

  /// Routes every successful write/reclass/remove through the durable log.
  /// Null (the default) keeps the plane byte-identical to the in-memory
  /// configuration. The manager must outlive the plane.
  void AttachPersistence(PersistenceManager* persist) { persist_ = persist; }

  /// Bounded retry with jittered backoff for transient (kIoError) stripe
  /// reads/writes. The seed keeps simulated backoff jitter reproducible.
  void ConfigureRetry(const RetryPolicy& policy, uint64_t seed) {
    retry_ = policy;
    retry_rng_ = Pcg32(seed, /*stream=*/0x7e7);
  }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Partial-failure milestones (retry.exhausted, fault.crc_repair) land
  /// in this log.
  void AttachEvents(EventLog& events) {
    ev_ = &events;
    stripes_.AttachEvents(events);
  }

  /// Interposes the DRAM admission tier on the write/read path: clean
  /// writes (classes 2/3) stage in DRAM and reach flash only when the
  /// tier's policy graduates them; reads check DRAM first. The tier must
  /// outlive the plane. A disabled tier (dram_bytes == 0) leaves every
  /// path byte-identical to the un-attached plane.
  void AttachAdmission(AdmissionTier& tier);

 private:
  /// The flash write path proper: PutObject with bounded retry, then the
  /// durable-log commit. Staged writes bypass this until graduation.
  Result<DataPlaneIo> WriteToFlash(ObjectId id, std::span<const uint8_t> payload,
                                   uint64_t logical_bytes, uint8_t class_id,
                                   SimTime now);
  /// Whether this write should be held in DRAM instead of hitting flash.
  bool ShouldStage(uint64_t stored_bytes, uint8_t class_id) const;
  /// Accounts one RetryTransient run on the flash path: `retry.attempts`,
  /// `retry.successes` when a retry won, and, when the budget ran out
  /// (`outcome` still retryable), `retry.exhausted` plus an event at `t`.
  void CountRetries(uint32_t retries, const Status& outcome, ObjectId id,
                    SimTime t, const char* exhausted_message);

  StripeManager& stripes_;
  RedundancyPolicy policy_;
  PersistenceManager* persist_ = nullptr;
  AdmissionTier* admit_ = nullptr;
  uint64_t reserve_bytes_ = 0;
  bool recovery_active_ = false;
  uint64_t reserve_rejections_ = 0;

  // Telemetry (null when un-attached).
  Counter* tel_writes_ = nullptr;
  Counter* tel_reads_ = nullptr;
  Counter* tel_degraded_reads_ = nullptr;
  Counter* tel_removes_ = nullptr;
  Counter* tel_reclass_ = nullptr;
  Counter* tel_reserve_rejections_ = nullptr;
  Gauge* tel_redundancy_bytes_ = nullptr;
  Gauge* tel_user_bytes_ = nullptr;
  Counter* tel_retry_attempts_ = nullptr;
  Counter* tel_retry_successes_ = nullptr;
  Counter* tel_retry_exhausted_ = nullptr;
  Counter* tel_crc_repairs_ = nullptr;
  Counter* tel_crc_unrepaired_ = nullptr;

  SpanRecorder* trace_ = nullptr;
  EventLog* ev_ = nullptr;
  RetryPolicy retry_;
  Pcg32 retry_rng_{0x5eed, 0x7e7};
};

}  // namespace reo
