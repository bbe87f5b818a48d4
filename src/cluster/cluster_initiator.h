// ClusterInitiator: client-side cluster routing over per-node socket
// sessions.
//
// Wraps one SocketInitiator per member node behind the consistent-hash
// ring (hash_ring.h) and the health tracker (node_health.h), and is
// itself an OsdSession, so OsdInitiator's typed API runs over the whole
// ring as over one node. Commands route to the key's first *usable* ring
// replica, so a dead node's keys flow to its ring successor without
// reconfiguration and flow back when the node revives — membership never
// mutates, only liveness.
//
// Failover mirrors the single-node tolerance contract:
//   * idempotent reads (kRead/kGetAttr/kList*) that fail at the
//     transport retry on the next usable ring replica; if every replica
//     fails, the caller falls through to its backend refetch;
//   * writes are NEVER blindly resent — a write that died mid-flight
//     may have been applied, so it surfaces as failed (unacked) and the
//     caller decides; routing only moves *subsequent* writes once health
//     marks the node dead. Acked-object guarantees are thus preserved
//     per class: an acked class-0/1 write reached a node that fsync'd it.
//
// Cluster metadata: every "#SETID#" routed through the ring classifies
// the object on its owner and places an "#OWNER#" hint on the object's
// ring successor (the node that will inherit the key if the owner dies —
// see cluster_directory.h for why that address is the right one), and
// successful reads re-hint at power-of-two read counts so survivors know
// hot from cold. Single-threaded by design, like SocketInitiator: one
// instance per worker.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/node_health.h"
#include "common/object_id.h"
#include "server/socket_initiator.h"

namespace reo {

struct ClusterEndpoint {
  std::string host;
  uint16_t port = 0;
};

/// Parses a "host:port,host:port,..." member list (the --cluster /
/// --endpoints flag shared by reo_loadgen, admin_probe, and reo_top).
/// Returns an empty vector when any entry is malformed.
std::vector<ClusterEndpoint> ParseClusterEndpoints(const std::string& list);

/// The nodes a client tool addresses, from its flags: every member of the
/// `endpoints` list when it is set, else `host` at the port read from
/// `port_file` when that is set, else `host` at `port`. kInvalidArgument
/// for a malformed list or port file, an unreadable port file, or port 0.
Result<std::vector<ClusterEndpoint>> ResolveEndpoints(
    const std::string& endpoints, const std::string& host, uint16_t port,
    const std::string& port_file);

struct ClusterInitiatorStats {
  uint64_t commands = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_failovers = 0;   ///< reads retried on a later ring replica
  uint64_t failed_reads = 0;     ///< reads no replica could serve
  uint64_t failed_writes = 0;    ///< writes surfaced unacked (never resent)
  uint64_t transport_failures = 0;
  uint64_t hints_sent = 0;
  uint64_t announces = 0;        ///< NODEDOWN fan-outs issued
};

class ClusterInitiator final : public OsdSession {
 public:
  /// `session` is every per-node socket's posture; each node gets its own
  /// reconnect-jitter stream derived from its seed.
  ClusterInitiator(std::vector<ClusterEndpoint> endpoints,
                   SocketInitiatorConfig session = {});

  /// Connects every session; ok if at least one node is reachable
  /// (unreachable ones are recorded as failures and probed back later).
  Status ConnectAll();

  size_t num_nodes() const { return sessions_.size(); }
  const HashRing& ring() const { return ring_; }
  NodeHealthTracker& health() { return health_; }
  const NodeHealthTracker& health() const { return health_; }
  const ClusterInitiatorStats& stats() const { return stats_; }
  /// Wire-level counters summed over every per-node session.
  SocketInitiatorStats WireStats() const;
  const ClusterEndpoint& endpoint(uint32_t node) const {
    return endpoints_[node];
  }

  /// Routes one command by the placement rule shards share
  /// (osd/command_placement.h) and the failover contract above.
  /// Namespace-wide ops (FORMAT, partition/collection DDL, LIST) fan out
  /// to every usable node and merge with MergeFanOutResponses. A "#SETID#"
  /// that reaches the object's owner is recorded here (for read-count
  /// re-hints) and hinted to the next usable ring replica.
  OsdResponse Roundtrip(const OsdCommand& command) override;

  /// Seeds the local object table (class, zero reads) without wire
  /// traffic, so read-count re-hints fire for objects another session
  /// classified (e.g. a populate phase before the worker threads).
  void NoteObject(ObjectId id, uint8_t class_id) {
    objects_[id].class_id = class_id;
  }

  /// Declares `node` dead client-side and fans #NODEDOWN# to survivors
  /// (they account the dead node's hinted objects per class).
  Status AnnounceNodeDown(uint32_t node);

  /// ADMIN round-trip against one specific node.
  Result<AdminResponse> AdminRoundtrip(uint32_t node, AdminOp op,
                                       uint32_t arg = 0);

 private:
  /// Tracked per classified object for hint refresh.
  struct ObjectMeta {
    uint8_t class_id = 3;
    uint64_t reads = 0;
  };

  static uint64_t NowMs();
  /// Ensures the session is connected (probing dead nodes only on their
  /// timer); false means the node is unusable right now.
  bool EnsureSession(uint32_t node);
  /// One measured round-trip against one node, feeding health. Sets
  /// `transport_failure` when the failure was the wire, not a sense code.
  OsdResponse RoundtripOn(uint32_t node, const OsdCommand& command,
                          bool* transport_failure);
  /// First usable replica for the key, after running due probes.
  std::optional<uint32_t> PickNode(ObjectId id);
  /// One attempt on `node` (nullopt: no usable replica); a wire failure
  /// surfaces as failed (the never-blindly-resend leg). `delivered` tells
  /// whether the node answered.
  OsdResponse RouteSingle(const OsdCommand& command,
                          std::optional<uint32_t> node,
                          bool* delivered = nullptr);
  OsdResponse FanOut(const OsdCommand& command);
  void SendHint(ObjectId id, uint8_t class_id, uint64_t hotness,
                uint32_t owner);
  void MaybeRehint(ObjectId id);

  std::vector<ClusterEndpoint> endpoints_;
  std::vector<SocketInitiator> sessions_;
  HashRing ring_;
  NodeHealthTracker health_;
  ClusterInitiatorStats stats_;
  std::unordered_map<ObjectId, ObjectMeta, ObjectIdHash> objects_;
};

}  // namespace reo
