// Durable cache state: WAL + segmented data log + checkpointed index.
//
// The PersistenceManager owns three on-disk structures under one data
// directory:
//
//   seg-NNNNNN.dat   segmented append-only data log (object payloads)
//   wal-NNNNNN.log   write-ahead metadata journal (create/dirty/clean/
//                    reclass/evict transitions + classifier state)
//   CHECKPOINT       atomic image of the object index + classifier state
//
// Commit step. Each entry point only builds its journal record (a write
// first appends its payload to the data log, and its kPut points there).
// One commit step then journals the record, applies it to the index, and
// syncs when the record is critical or the group-commit bound is reached;
// it counts every failure in persist.commit_errors, and every record, the
// hotness and classifier notes included, advances the checkpoint period.
// Critical = class-0 metadata and class-1 dirty data: fsynced (data first,
// journal second) before the caller may acknowledge. Clean classes can
// always be re-fetched from the backend, so they group-commit under a
// bounded fsync batch (Flashield's bounded-write lesson applied to fsyncs).
//
// Reclaim only after durability: an overwritten record is released (its
// segment unlinked once nothing live is left in it) by the sync that makes
// its successor durable; a failed sync keeps it for the next one. An
// eviction has no successor and releases at once.
//
// Restart = load CHECKPOINT, replay the journal tail through the commit
// step's own per-record apply (torn tail truncated and counted; mid-log
// corruption fail-stops), verify every index entry against its data
// segment, seed segment accounting, then hand RestoreOrder() — class
// 0 → 1 → 2 → 3, hot before cold within a class — to restore.h.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/object_id.h"
#include "common/sim_clock.h"
#include "fault/fault_injector.h"
#include "persist/data_log.h"
#include "persist/journal.h"

namespace reo {

class MetricRegistry;
class Counter;
class Gauge;
class EventLog;

/// Tuning for the persistence subsystem. An empty `data_dir` disables
/// persistence entirely (the null backend: simulator and tests run
/// byte-identical to the in-memory configuration).
struct PersistenceConfig {
  std::string data_dir;
  uint64_t segment_bytes = 8ull << 20;       ///< data-log rotation threshold
  uint64_t fsync_batch_records = 32;         ///< group-commit record bound
  uint64_t checkpoint_interval_records = 4096;  ///< auto-checkpoint period
  bool sync_critical = true;  ///< fsync class-0/1 commits before returning

  bool enabled() const { return !data_dir.empty(); }
};

/// What Open() found on disk (published as persist.replay.* gauges).
struct ReplayStats {
  bool checkpoint_loaded = false;
  uint64_t checkpoint_objects = 0;  ///< index entries in the checkpoint
  uint64_t journal_records = 0;     ///< WAL records replayed on top
  uint64_t objects_per_class[4] = {0, 0, 0, 0};  ///< final recovered index
  uint64_t torn_tail_truncations = 0;  ///< journal + data tails cut
  uint64_t invalid_locations = 0;  ///< index entries dropped at verification
  uint64_t gc_segments = 0;        ///< dead segment files unlinked at open
  uint64_t duration_us = 0;
};

/// Steady-clock microseconds (replay and restore durations).
uint64_t SteadyMicros();

/// Owner of the durable state for one OSD. Not thread-safe, like the rest
/// of the stack: the server calls it only under its shard's stack lock
/// (any loop may execute for a shard, one at a time).
class PersistenceManager {
 public:
  /// Opens `config.data_dir` (created if needed) and runs recovery:
  /// checkpoint load → journal replay → location verification → segment GC.
  /// kCorrupted when the checkpoint or the committed middle of the journal
  /// is damaged (fail-stop: guessing could resurrect evicted objects).
  static Result<std::unique_ptr<PersistenceManager>> Open(
      const PersistenceConfig& config);

  ~PersistenceManager();

  PersistenceManager(const PersistenceManager&) = delete;
  PersistenceManager& operator=(const PersistenceManager&) = delete;

  // --- Commit path (no-ops while replaying(); see "Commit step" above) ---

  /// Persists one object write: data-log append + kPut journal record +
  /// index update. The payload must be the physical (shaped) bytes so
  /// restore can replay it through the data plane unchanged.
  Status CommitWrite(ObjectId id, uint8_t class_id, uint64_t logical_size,
                     std::span<const uint8_t> payload, SimTime now);

  /// Journals a class/dirty transition (reclass, flush). Unknown ids are
  /// ignored (nothing persisted to transition). Fsyncs when the object
  /// enters a replicated class (0/1).
  Status CommitState(ObjectId id, uint8_t class_id,
                     std::optional<double> hotness, SimTime now);

  /// Journals a hotness refresh without touching the class (group-committed;
  /// hotness only orders the restore scan, so losing the tail is benign).
  Status NoteHotness(ObjectId id, double hotness);

  /// Journals the adaptive classifier's threshold so restart resumes with
  /// a warm H_hot instead of re-learning from scratch.
  Status NoteClassifierState(double h_hot);

  /// Journals an eviction and releases the data-log record at once
  /// (segment GC). Fsynced when the object was in a replicated class.
  Status CommitEvict(ObjectId id, SimTime now);

  /// Writes a checkpoint (atomic), rotates the journal, unlinks old WALs.
  Status Checkpoint(SimTime now);

  /// Drops all durable state and starts fresh (FORMAT). Keeps metrics.
  void ResetAll();

  // --- Restore path ------------------------------------------------------

  /// While restoring, every Commit*/Note* call is suppressed — the replay
  /// drives writes back through the data plane, which must not re-journal.
  void BeginRestore() { replaying_ = true; }
  void EndRestore() { replaying_ = false; }
  bool replaying() const { return replaying_; }

  /// Recovered objects in recovery order (common/recovery_order.h):
  /// class 0 → 1 → 2 → 3, hotter first within a class, LSN as the
  /// tie-break.
  std::vector<PersistedObject> RestoreOrder() const;

  /// Reads + verifies one recovered payload (header identity and CRC).
  Result<std::vector<uint8_t>> ReadPayload(const PersistedObject& obj);

  // --- Introspection -----------------------------------------------------

  const ReplayStats& replay_stats() const { return replay_stats_; }
  size_t live_objects() const { return index_.size(); }
  uint64_t live_bytes() const { return live_bytes_; }
  double recovered_h_hot() const { return h_hot_; }
  const PersistedObject* Find(ObjectId id) const;

  void AttachTelemetry(MetricRegistry& registry);
  void AttachEvents(EventLog& events) { events_ = &events; }

  /// Wires fault injection into the commit path: persist.write fails a
  /// commit before it touches the data log (short write), persist.fsync
  /// fails the next sync. Both count as commit errors.
  void AttachFaults(FaultInjector* injector) { faults_ = injector; }

 private:
  explicit PersistenceManager(PersistenceConfig config);

  Status Recover();

  /// The commit step: journals `rec`, applies it, syncs when it is
  /// critical or the group-commit bound is reached, counts any failure
  /// (including a record that could not be built) in commit_errors_,
  /// advances the checkpoint period and mirrors the metrics.
  Status Commit(const Result<WalRecord>& rec, SimTime now);

  /// Applies one journal record to the in-memory state; the commit step
  /// and Recover's replay both run it. Returns the data record it made
  /// dead (a kPut's predecessor, a kEvict's victim): the commit step
  /// accounts its segment, replay leaves that to Recover's seeding.
  std::optional<DataLocation> Apply(const WalRecord& rec);

  /// fsyncs data then journal; on success releases the records that the
  /// now-durable successors superseded.
  Status SyncNow();
  void MirrorMetrics();
  std::string CheckpointPath() const;

  PersistenceConfig config_;
  DataLog data_log_;
  WalJournal journal_;

  std::unordered_map<ObjectId, PersistedObject, ObjectIdHash> index_;
  uint64_t live_bytes_ = 0;
  uint64_t next_lsn_ = 1;
  double h_hot_ = 0.0;
  bool replaying_ = false;

  uint64_t unsynced_records_ = 0;
  uint64_t unsynced_bytes_ = 0;
  std::vector<uint32_t> superseded_;  ///< segments released at the next sync
  uint64_t records_since_checkpoint_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t commit_errors_ = 0;

  ReplayStats replay_stats_;

  // Delta baselines for mirroring DataLog/WalJournal stats into counters.
  DataLogStats data_base_;
  JournalStats journal_base_;

  // Resolve-once metric pointers (null when un-attached).
  Counter* m_appends_ = nullptr;
  Counter* m_bytes_data_ = nullptr;
  Counter* m_journal_records_ = nullptr;
  Counter* m_bytes_journaled_ = nullptr;
  Counter* m_fsyncs_ = nullptr;
  Counter* m_checkpoints_ = nullptr;
  Counter* m_gc_segments_ = nullptr;
  Counter* m_torn_tails_ = nullptr;
  Counter* m_verify_failures_ = nullptr;
  Counter* m_commit_errors_ = nullptr;
  Gauge* m_live_objects_ = nullptr;
  Gauge* m_live_bytes_ = nullptr;
  uint64_t checkpoints_mirrored_ = 0;
  uint64_t commit_errors_mirrored_ = 0;

  EventLog* events_ = nullptr;
  FaultInjector* faults_ = nullptr;
};

}  // namespace reo
