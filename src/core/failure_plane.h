// FailurePlane: one stack's reaction to device loss and latent damage —
// differentiated recovery (paper §IV.D) beside the array it protects. It
// is the only writer of the data plane's recovery flag (sense 0x65/0x66).
//
// The plane does not know what is cached. Whoever tracks objects above the
// stack installs an Owner: it answers each object's class, H and logical
// size (or "not tracked"), and drops objects the plane finds lost. An
// untracked object is never lost or rebuilt, and under Reo never queued; a
// uniform array's spare queues every damaged object, as a block-level
// rebuild would, and the recovery loop drops the untracked.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/classifier.h"
#include "core/data_plane.h"
#include "core/recovery_scheduler.h"
#include "fault/failslow.h"
#include "telemetry/metric_registry.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {

/// What the owner knows about one object it tracks.
struct TrackedObject {
  DataClass cls = DataClass::kColdClean;
  double h = 0.0;  ///< hotness H = Freq / Size, the in-class recovery order
  uint64_t logical_size = 0;
};

class FailurePlane {
 public:
  /// The owner contract. The defaults track nothing and drop nothing.
  struct Owner {
    /// Class, H and logical size of `id`, or nullopt when not tracked.
    std::function<std::optional<TrackedObject>(ObjectId)> describe =
        [](ObjectId) { return std::optional<TrackedObject>(); };
    /// Drops one tracked object whose data is gone beyond its protection.
    std::function<void(ObjectId, SimTime)> lose = [](ObjectId, SimTime) {};
    /// Drops every tracked object: a uniform volume became unusable.
    std::function<void(SimTime)> lose_all = [](SimTime) {};
  };

  /// @param data the stack's data plane; must outlive the plane.
  /// @param failslow the stack's detector (null without fault rules);
  ///        with `demote_failslow`, a flagged device is failed and a spare
  ///        swapped in at its index. Must outlive the plane.
  explicit FailurePlane(ReoDataPlane& data,
                        FailSlowDetector* failslow = nullptr,
                        bool demote_failslow = false);

  void SetOwner(Owner owner) { owner_ = std::move(owner); }

  // --- Device events ---------------------------------------------------------

  /// Device shootdown (paper §VI.C): lost objects go to the owner,
  /// recoverable ones are queued, and classes 0/1 are rebuilt before this
  /// returns. A device the array lacks or that has already failed does
  /// nothing.
  void OnDeviceFailure(DeviceIndex device, SimTime now);

  /// Swaps a fresh spare in for a failed device and queues what must be
  /// rebuilt onto it. A device the array lacks or that has not failed does
  /// nothing.
  void OnSpareInserted(DeviceIndex device, SimTime now);

  /// Rebuilds the whole queue now (end-of-run barrier or explicit "rebuild
  /// now" tooling). Returns `now`.
  SimTime DrainRecovery(SimTime now);

  /// Full scrub pass: latent corruption is repaired from redundancy; the
  /// owner loses objects damaged beyond their protection.
  StripeManager::ScrubReport RunScrub(SimTime now);

  // --- Calls from the owner's request path -----------------------------------

  /// On-demand recovery of a tracked object that was just read degraded
  /// (read completed at `read_done`). Reo only: uniform protection has no
  /// object-level repair. Returns the repair's completion when it ran.
  std::optional<SimTime> RepairOnRead(ObjectId id, SimTime read_done,
                                      SimTime now);

  /// The owner stopped tracking `id` (overwritten or evicted): unqueue it.
  void Forget(ObjectId id) { recovery_.Remove(id); }

  /// Drains the fail-slow detector; with demotion on, each flagged device
  /// is failed and spared like a scripted failure.
  void CheckFailSlow(SimTime now);

  /// One paced slice of background rebuild (a fixed logical-byte budget).
  void AdvanceRecovery(SimTime now);

  // --- Introspection ---------------------------------------------------------

  /// True when a uniform-protection array has lost more devices than its
  /// parity tolerates: RAID-style striping makes the whole volume unusable
  /// (§VI.C: "a cache with uniform data protection ... becomes completely
  /// unusable, with a hit ratio of 0%"). Reo never bricks — object-based
  /// management keeps the surviving objects addressable. A spare that
  /// restores every device clears it.
  bool array_unusable() const { return array_unusable_; }
  /// Objects waiting for reconstruction.
  size_t backlog() const { return recovery_.size(); }
  /// Objects reconstructed so far (on demand and in the background).
  uint64_t rebuilds() const { return rebuilds_; }

  /// Registers "recovery.*" (the scheduler's) and "failslow.demotions".
  void AttachTelemetry(MetricRegistry& registry);
  /// device.failure, spare.inserted, recovery.rebuild, recovery.complete,
  /// array.unusable, device.failslow_demoted and scrub.complete land here.
  void AttachEvents(EventLog& events) { ev_ = &events; }
  /// Device events, drains and scrubs open forced root spans on the cache
  /// manager's track.
  void AttachTracing(Tracer& tracer);

 private:
  /// The one rebuild step: reconstructs `id` (of class `cls`) starting at
  /// `at`, records it with the scheduler, emits `recovery.rebuild` at `at`
  /// (mode "on-demand" or "background", with `message`), counts it and
  /// drops the object from the queue. An unrecoverable object is lost; a
  /// transient failure (kIoError, kNoSpace) leaves the queue as it was,
  /// for a later pass. Returns the completion time.
  Result<SimTime> RebuildQueued(ObjectId id, DataClass cls, SimTime at,
                                bool on_demand, const char* message);

  /// The one recovery loop: rebuilds queued objects in recovery order
  /// until the queue reaches a class above `max_class`, `byte_budget`
  /// logical bytes are rebuilt, or a transient failure stops the pass.
  /// A class-limited pass is the failure-time rebuild of the critical
  /// classes and counts as on-demand; an unlimited one is background work.
  /// Returns the completion time of the last rebuild (`now` if none ran).
  SimTime RunRecovery(SimTime now, DataClass max_class, uint64_t byte_budget);

  /// Emits "recovery.complete" once when the queue drains after failure
  /// work, and clears the data plane's recovery flag.
  void FinishRecoveryIfDrained(SimTime now);

  ReoDataPlane& data_;
  FailSlowDetector* failslow_;
  const bool demote_failslow_;
  Owner owner_;
  RecoveryScheduler recovery_;
  uint64_t rebuilds_ = 0;
  bool array_unusable_ = false;

  Counter* tel_demotions_ = nullptr;
  Tracer* tracer_ = nullptr;
  SpanRecorder* trace_root_ = nullptr;
  EventLog* ev_ = nullptr;
};

}  // namespace reo
