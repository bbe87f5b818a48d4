#include "persist/restore.h"

#include <string>
#include <vector>

#include "osd/osd_target.h"
#include "trace/event_log.h"

namespace reo {

RestoreReport RestoreToTarget(PersistenceManager& persist, OsdTarget& target,
                              uint64_t capacity_bytes, SimTime now,
                              EventLog* events) {
  RestoreReport report;
  const uint64_t t0 = SteadyMicros();
  const ReplayStats& replay = persist.replay_stats();
  Emit(events, now, EventSeverity::kInfo, "persist.replay",
       "checkpoint + journal tail replayed",
       {{"checkpoint_objects", std::to_string(replay.checkpoint_objects)},
        {"journal_records", std::to_string(replay.journal_records)},
        {"torn_tail_truncations",
         std::to_string(replay.torn_tail_truncations)},
        {"invalid_locations", std::to_string(replay.invalid_locations)},
        {"replay_us", std::to_string(replay.duration_us)}});

  persist.BeginRestore();
  // Format directly on the store: Execute(kFormat) would tell the data
  // plane to wipe the durable state we are about to replay from.
  ObjectStore& store = target.object_store();
  store.Format(capacity_bytes);

  std::vector<ObjectId> drop;  // verification failures: evict, don't resurrect
  for (const PersistedObject& obj : persist.RestoreOrder()) {
    if (obj.id == kControlObject) continue;
    const uint8_t cls = obj.class_id < 4 ? obj.class_id : 3;
    auto payload = persist.ReadPayload(obj);
    if (!payload.ok()) {
      ++report.payload_verify_failures;
      if (cls == 1) ++report.dirty_lost;
      drop.push_back(obj.id);
      Emit(events, now, EventSeverity::kWarn, "persist.restore",
           "payload verification failed; object dropped",
           {{"id", obj.id.ToString()}, {"class", std::to_string(cls)}});
      continue;
    }
    if (!store.HasPartition(obj.id.pid)) {
      (void)store.CreatePartition(obj.id.pid);
    }
    if (!store.Exists(obj.id)) {
      (void)store.CreateObject(obj.id, obj.logical_size);
    }
    if (auto rec = store.Find(obj.id); rec.ok()) {
      (*rec)->attributes.SetU64(kAttrClassId, cls);
    }
    OsdCommand cmd;
    cmd.op = OsdOp::kWrite;
    cmd.id = obj.id;
    cmd.logical_size = obj.logical_size;
    cmd.data = std::move(*payload);
    cmd.now = now;
    OsdResponse resp = target.Execute(cmd);
    if (!resp.ok()) {
      ++report.write_failures;
      if (cls == 1) ++report.dirty_lost;
      drop.push_back(obj.id);
      Emit(events, now, EventSeverity::kWarn, "persist.restore",
           "data plane rejected replayed write; object dropped",
           {{"id", obj.id.ToString()}, {"class", std::to_string(cls)}});
      continue;
    }
    ++report.restored_per_class[cls];
    Emit(events, now, EventSeverity::kDebug, "persist.restore",
         "object restored",
         {{"id", obj.id.ToString()},
          {"class", std::to_string(cls)},
          {"lsn", std::to_string(obj.lsn)},
          {"bytes", std::to_string(obj.loc.payload_len)}});
  }
  persist.EndRestore();
  for (ObjectId id : drop) (void)persist.CommitEvict(id, now);

  report.duration_us = SteadyMicros() - t0;
  Emit(events, now, EventSeverity::kInfo, "recovery.restart",
       "restart recovery complete",
       {{"class0", std::to_string(report.restored_per_class[0])},
        {"class1", std::to_string(report.restored_per_class[1])},
        {"class2", std::to_string(report.restored_per_class[2])},
        {"class3", std::to_string(report.restored_per_class[3])},
        {"dirty_lost", std::to_string(report.dirty_lost)},
        {"verify_failures", std::to_string(report.payload_verify_failures)},
        {"torn_tail_truncations",
         std::to_string(replay.torn_tail_truncations)},
        {"restore_us", std::to_string(report.duration_us)}});
  return report;
}

}  // namespace reo
