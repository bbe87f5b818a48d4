#include "core/failure_plane.h"

#include <algorithm>
#include <string>

namespace reo {
namespace {

/// Background reconstruction pacing: logical bytes rebuilt per client
/// request while the recovery queue is non-empty.
constexpr uint64_t kRecoveryBytesPerRequest = 16ULL << 20;

}  // namespace

FailurePlane::FailurePlane(ReoDataPlane& data, FailSlowDetector* failslow,
                           bool demote_failslow)
    : data_(data), failslow_(failslow), demote_failslow_(demote_failslow) {}

void FailurePlane::AttachTelemetry(MetricRegistry& registry) {
  tel_demotions_ = &registry.GetCounter("failslow.demotions");
  recovery_.AttachTelemetry(registry);
}

void FailurePlane::AttachTracing(Tracer& tracer) {
  tracer_ = &tracer;
  trace_root_ = &tracer.RecorderFor(TraceComponent::kCacheManager);
}

bool FailurePlane::OnDeviceFailure(DeviceIndex device, SimTime now) {
  auto& stripes = data_.stripes();
  auto& array = stripes.array();
  // No such device, or one already down: nothing new failed, so there is
  // nothing to log or recover.
  if (!array.FailDevice(device).ok()) return false;
  // Failure handling is always traced (force): it is rare and is exactly
  // what the recovery timeline exists to explain.
  RequestTrace trace(tracer_, trace_root_, TraceOp::kFailureHandling, now,
                     /*object=*/0, /*force=*/true);
  auto affected = stripes.OnDeviceFailure(device);
  Emit(ev_, now, EventSeverity::kError, "device.failure", "device shot down",
       {{"device", std::to_string(device)},
        {"affected_objects", std::to_string(affected.size())},
        {"healthy_left", std::to_string(array.healthy_count())}});

  // Uniform protection is RAID-style striping: once the failure count
  // exceeds the parity tolerance, the whole volume is gone — not just the
  // resident data, the array itself is unusable until re-formatted
  // (paper §VI.C). Object-based Reo never enters this state.
  const bool reo = data_.policy().mode() == ProtectionMode::kReo;
  if (!reo) {
    size_t failed = array.size() - array.healthy_count();
    size_t tolerance = FailuresSurvived(
        data_.policy().LevelFor(DataClass::kColdClean), array.size());
    if (failed > tolerance) {
      array_unusable_ = true;
      Emit(ev_, now, EventSeverity::kError, "array.unusable",
           "uniform-protection volume lost beyond parity tolerance",
           {{"failed", std::to_string(failed)},
            {"tolerance", std::to_string(tolerance)}});
      owner_.lose_all(now);
      recovery_.Clear();
      data_.set_recovery_active(false);
      return true;
    }
  }

  for (const auto& a : affected) {
    auto obj = owner_.describe(a.id);
    if (!obj) continue;
    switch (a.survival) {
      case ObjectSurvival::kIntact:
        break;
      case ObjectSurvival::kLost:
        owner_.lose(a.id, now);
        break;
      case ObjectSurvival::kRecoverable:
        // Differentiated recovery is Reo's mechanism (§IV.D). Uniform
        // protection reconstructs only when a spare is inserted, block by
        // block — see OnSpareInserted.
        if (reo) recovery_.Enqueue(a.id, obj->cls, obj->h, a.lost_bytes);
        break;
    }
  }
  if (!recovery_.empty()) data_.set_recovery_active(true);

  // §IV.D: "prioritized recovery minimizes this vulnerable window by
  // reconstructing the most important data first to create additional
  // data redundancy ... as quickly as possible." Class 0/1 (metadata,
  // dirty) are small and their loss is permanent, so they are re-protected
  // synchronously at failure time; classes 2/3 recover at the background
  // pace.
  trace.Cover(RunRecovery(now, DataClass::kDirty, UINT64_MAX));
  return true;
}

void FailurePlane::OnSpareInserted(DeviceIndex device, SimTime now) {
  auto& stripes = data_.stripes();
  auto& array = stripes.array();
  // No such slot, or a device that has not failed: nothing to replace.
  if (!array.ReplaceDevice(device).ok()) return;
  RequestTrace trace(tracer_, trace_root_, TraceOp::kSpareHandling, now,
                     /*object=*/0, /*force=*/true);
  Emit(ev_, now, EventSeverity::kInfo, "spare.inserted",
       "fresh spare swapped into array position",
       {{"device", std::to_string(device)},
        {"healthy", std::to_string(array.healthy_count())}});
  if (array_unusable_ && array.healthy_count() == array.size()) {
    // A fully repaired uniform array comes back empty (re-formatted).
    array_unusable_ = false;
    return;
  }
  if (data_.policy().mode() != ProtectionMode::kReo) {
    // Traditional block-based reconstruction "simply rebuilds the entire
    // storage from block 0" (§IV.D): every damaged object, with no
    // priority by importance. All share one class and H, so the recovery
    // order falls to its tie-break: ObjectId order.
    for (ObjectId id : stripes.DamagedObjects()) {
      recovery_.Enqueue(id, DataClass::kColdClean, 0.0,
                        stripes.LogicalSizeOf(id).value_or(0));
    }
    if (!recovery_.empty()) data_.set_recovery_active(true);
    return;
  }
  // Stripes rebuilt at reduced width keep several chunks on one device;
  // with the width restored, fault isolation must be restored too, most
  // important data first (replicated metadata/dirty are the worst case —
  // all their copies may sit on one surviving device).
  for (ObjectId id : stripes.PoorlyPlacedObjects()) {
    auto obj = owner_.describe(id);
    if (!obj) continue;
    recovery_.Enqueue(id, obj->cls, obj->h, obj->logical_size);
  }
  if (!recovery_.empty()) data_.set_recovery_active(true);
  trace.Cover(RunRecovery(now, DataClass::kDirty, UINT64_MAX));
}

std::optional<SimTime> FailurePlane::RepairOnRead(ObjectId id,
                                                  SimTime read_done,
                                                  SimTime now) {
  // On-demand recovery first (§IV.D): repair this object now so the next
  // access is clean, and drop it from the background queue — unless the
  // data plane already repaired a latent CRC error in place (it still
  // answers degraded). Uniform (block-based) protection has no
  // object-level repair: it pays the reconstruction on every degraded
  // access until a spare arrives and the block-level rebuild reaches the
  // data.
  if (data_.policy().mode() != ProtectionMode::kReo) return std::nullopt;
  std::optional<SimTime> repaired;
  if (data_.stripes().SurvivalOf(id) == ObjectSurvival::kIntact) {
    recovery_.Remove(id);
  } else if (auto obj = owner_.describe(id)) {
    auto done = RebuildQueued(id, obj->cls, read_done, /*on_demand=*/true,
                              "on-demand repair-on-read");
    if (done.ok()) repaired = *done;
  }
  FinishRecoveryIfDrained(now);
  return repaired;
}

void FailurePlane::CheckFailSlow(SimTime now) {
  if (failslow_ == nullptr) return;
  for (FaultDeviceIndex d : failslow_->TakeFlagged()) {
    if (!demote_failslow_) continue;  // detection/events only
    Inc(tel_demotions_);
    Emit(ev_, now, EventSeverity::kWarn, "device.failslow_demoted",
         "fail-slow device proactively demoted; spare swapped in",
         {{"device", std::to_string(d)}});
    // Treat the limping device as failed: the usual differentiated
    // recovery rebuilds its data onto the healthy set, and a fresh spare
    // takes its array slot. Resetting the detector gives the replacement
    // device a clean latency history.
    OnDeviceFailure(static_cast<DeviceIndex>(d), now);
    OnSpareInserted(static_cast<DeviceIndex>(d), now);
    failslow_->Reset(d);
  }
}

void FailurePlane::AdvanceRecovery(SimTime now) {
  if (!recovery_.empty()) {
    RunRecovery(now, DataClass::kColdClean, kRecoveryBytesPerRequest);
  }
}

SimTime FailurePlane::DrainRecovery(SimTime now) {
  RequestTrace trace(tracer_, trace_root_, TraceOp::kRecoveryDrain, now,
                     /*object=*/0, /*force=*/true);
  trace.Cover(RunRecovery(now, DataClass::kColdClean, UINT64_MAX));
  return now;
}

StripeManager::ScrubReport FailurePlane::RunScrub(SimTime now) {
  RequestTrace trace(tracer_, trace_root_, TraceOp::kScrub, now,
                     /*object=*/0, /*force=*/true);
  auto report = data_.stripes().Scrub(now);
  trace.Cover(report.complete);
  Emit(ev_, now, EventSeverity::kInfo, "scrub.complete",
       "full-array scrub pass",
       {{"scanned", std::to_string(report.chunks_scanned)},
        {"corrupt", std::to_string(report.corrupt_found)},
        {"repaired", std::to_string(report.chunks_repaired)},
        {"lost", std::to_string(report.lost.size())}});
  for (ObjectId id : report.lost) {
    if (owner_.describe(id)) owner_.lose(id, now);
  }
  return report;
}

Result<SimTime> FailurePlane::RebuildQueued(ObjectId id, DataClass cls,
                                            SimTime at, bool on_demand,
                                            const char* message) {
  auto rb = data_.stripes().RebuildObject(id, at);
  if (!rb.ok()) {
    if (rb.code() == ErrorCode::kUnrecoverable) {
      recovery_.Remove(id);
      owner_.lose(id, at);
    }
    return rb.status();
  }
  double rebuild_us =
      static_cast<double>(rb->complete > at ? rb->complete - at : 0) / 1e3;
  recovery_.RecordRebuild(cls, on_demand, rebuild_us);
  Emit(ev_, at, EventSeverity::kInfo, "recovery.rebuild", message,
       {{"object", id.ToString()},
        {"class", std::to_string(static_cast<int>(cls))},
        {"mode", on_demand ? "on-demand" : "background"},
        {"latency_us", std::to_string(rebuild_us)}});
  recovery_.Remove(id);
  ++rebuilds_;
  return rb->complete;
}

SimTime FailurePlane::RunRecovery(SimTime now, DataClass max_class,
                                  uint64_t byte_budget) {
  const bool on_demand = max_class < DataClass::kColdClean;
  const char* message = on_demand ? "critical-class rebuild at failure time"
                                  : "paced background rebuild";
  SimTime last = now;
  uint64_t rebuilt = 0;
  while (rebuilt < byte_budget) {
    auto next = recovery_.Peek();
    if (!next) break;
    auto obj = owner_.describe(*next);
    if (!obj) {
      recovery_.Pop();
      continue;
    }
    if (obj->cls > max_class) break;  // the queue is class-ordered
    auto done = RebuildQueued(*next, obj->cls, now, on_demand, message);
    if (done.ok()) {
      last = std::max(last, *done);
      rebuilt += obj->logical_size;
    } else if (done.code() != ErrorCode::kUnrecoverable) {
      break;  // transient (e.g. no space): keep it queued, retry later
    }
  }
  FinishRecoveryIfDrained(now);
  return last;
}

void FailurePlane::FinishRecoveryIfDrained(SimTime now) {
  if (!recovery_.empty()) return;
  if (data_.recovery_active()) {
    Emit(ev_, now, EventSeverity::kInfo, "recovery.complete",
         "recovery queue drained", {{"rebuilds", std::to_string(rebuilds_)}});
  }
  data_.set_recovery_active(false);
}

}  // namespace reo
