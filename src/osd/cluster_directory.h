// Server-side cluster directory: the survivor's view of what the other
// nodes hold.
//
// Cluster clients place a small owner hint ("#OWNER#" control message,
// control_protocol.h) on the ring *successor* of every class-hinted
// object they write. The key invariant: when the owning node dies, the
// consistent-hash ring remaps each of its keys to exactly that successor
// — so the metadata needed to recover an object already lives on the
// node where its refetched bytes will arrive. This mirrors the paper's
// differentiated-redundancy idea one failure domain up (device → node,
// per the RAID-organizations framing): classes 0/1 carry cross-node
// metadata redundancy, classes 2/3 are hinted only for accounting and
// degrade to clean misses.
//
// The directory is mutex-protected: the data plane mutates it from shard
// event-loop threads while the admin plane (ADMIN OWNERS) snapshots it
// from whichever shard answers the admin frame.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/object_id.h"
#include "common/sim_clock.h"
#include "osd/control_protocol.h"
#include "telemetry/metric_registry.h"
#include "trace/event_log.h"

namespace reo {

/// One directory entry: an object some cluster node owns, as reported by
/// the client's owner hint.
struct OwnerEntry {
  uint8_t class_id = 3;
  uint64_t hotness = 0;
  uint32_t owner = 0;
  bool down = false;  ///< owner announced dead, refetch/miss pending
};

struct ClusterDirectoryStats {
  uint64_t hints = 0;           ///< owner hints recorded (insert or update)
  uint64_t node_downs = 0;      ///< node-down announcements processed
  uint64_t refetches = 0;       ///< refetched writes re-owned locally
  uint64_t degraded_misses = 0; ///< class-2/3 entries degraded to clean misses
};

/// Per-node cluster metadata directory. Thread-safe.
class ClusterDirectory {
 public:
  explicit ClusterDirectory(uint32_t local_node) : local_node_(local_node) {}

  uint32_t local_node() const { return local_node_; }

  /// Registers "cluster.*" counters for hint/refetch/miss accounting.
  void AttachTelemetry(MetricRegistry& registry);

  /// Events: cluster.node_down on announcements, cluster.refetch per
  /// re-owned object (class-ordered because the recovery driver writes
  /// class 0 before class 1).
  void AttachEvents(EventLog& log) { events_ = &log; }

  /// Records (or refreshes) an owner hint.
  void RecordHint(const OwnerHintCommand& hint, SimTime now);

  /// Processes a node-down announcement: marks the dead node's entries,
  /// counts class-0/1 as refetch-pending and class-2/3 as clean misses.
  void OnNodeDown(const NodeDownCommand& cmd, SimTime now);

  /// Called on every successful local data write. If the object was
  /// hinted as owned by a dead node this is a recovery refetch arriving:
  /// the entry is re-owned locally and a cluster.refetch event emitted.
  void OnLocalWrite(ObjectId id, SimTime now);

  /// Drops the entry for a removed object, if any.
  void OnLocalRemove(ObjectId id);

  ClusterDirectoryStats stats() const;
  size_t size() const;

  /// {"schema":"reo.owners.v1","node":N,"entries":[{"pid":...,"oid":...,
  ///  "class":...,"hotness":...,"owner":...,"down":...},...]} — the ADMIN
  /// OWNERS body. Entries are in recovery order (common/recovery_order.h:
  /// class ascending, hotness descending, then ObjectId) so a recovery
  /// driver can stream them in refetch order.
  std::string ToJson() const;

  /// Merged "reo.owners.v1" over several directories (the sharded
  /// server's per-shard slices of one node's hint space), in the same
  /// class-then-hotness refetch order.
  static std::string MergedJson(
      const std::vector<const ClusterDirectory*>& parts);

 private:
  std::vector<std::pair<ObjectId, OwnerEntry>> Snapshot() const;

  const uint32_t local_node_;
  mutable std::mutex mu_;
  std::unordered_map<ObjectId, OwnerEntry, ObjectIdHash> entries_;
  ClusterDirectoryStats stats_;

  Counter* tel_hints_ = nullptr;
  Counter* tel_node_downs_ = nullptr;
  Counter* tel_refetches_ = nullptr;
  Counter* tel_degraded_misses_ = nullptr;
  Gauge* tel_entries_ = nullptr;

  EventLog* events_ = nullptr;
};

}  // namespace reo
