// The one command-placement rule for an object space split into
// partitions — the shards of one server (shard/shard_router.h) and the
// nodes of a cluster (cluster/cluster_initiator.h) — and the one merge of
// a fan-out's per-partition answers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/object_id.h"
#include "osd/osd_session.h"

namespace reo {

struct CommandPlacement {
  bool fan_out = false;  ///< run on every partition, then merge
  ObjectId key;          ///< the object whose home runs it (when !fan_out)
  /// Set for an "#OWNER#" hint: the node the hinted object lives on. A
  /// cluster puts the hint on the key's first ring replica other than
  /// that node, so the hint outlives the owner; shards ignore it.
  std::optional<uint32_t> hint_owner;
  /// Set for a "#SETID#": the class it assigns to the key. A cluster
  /// records it and hints the key's owner to the ring successor; shards
  /// ignore it.
  std::optional<uint8_t> set_class;
};

/// Where one decoded command runs:
///   * a data op (CREATE / WRITE / READ / REMOVE / attrs) where cmd.id
///     lives;
///   * a control write to the reserved communication object (§IV.C.2)
///     where the object it names lives ("#SETID#", per-object "#QUERY#",
///     "#OWNER#"), so it executes next to that object's state. A
///     "#QUERY#" of the control object itself (recovery state: any
///     partition may be reconstructing) and a "#NODEDOWN#" (every
///     partition holds hints) fan out; a malformed message runs at the
///     control object's home, and every partition would reject it alike;
///   * a namespace op whose effect or answer spans every partition
///     (FORMAT, partition / collection create-remove, LIST) fans out.
/// Only a control write is decoded; a data op costs a switch.
CommandPlacement PlaceCommand(const OsdCommand& cmd);

/// Merges the per-partition responses of a fan-out command into the one
/// response the client sees: the first (lowest index) non-OK sense, so a
/// recovery-state query reports 0x65 if ANY partition is reconstructing;
/// the latest completion; degraded if any part was; and the union of the
/// lists, sorted and without duplicates (every partition lists the
/// reserved objects FORMAT created on it).
OsdResponse MergeFanOutResponses(std::span<OsdResponse> parts);

}  // namespace reo
