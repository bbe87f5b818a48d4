// Object-space partitioning for the sharded server: which shard owns
// which object, and which commands must fan out to all of them.
//
// The partition function is a pure hash of the (PID, OID) pair — the
// same ObjectIdHash the in-memory indexes use — so placement is stable
// across restarts, needs no directory state, and any party (server,
// benchmark replay, client) computes it independently and agrees.
//
// Routing is command-aware, not just id-aware, by the placement rule the
// cluster client shares (osd/command_placement.h): a data op goes to the
// shard owning cmd.id, a control message to the shard owning the object
// it names, and a namespace op or a recovery-state probe fans out; the
// caller merges the per-shard responses with MergeFanOutResponses().
#pragma once

#include <cstddef>

#include "common/object_id.h"
#include "osd/command_placement.h"
#include "osd/osd_target.h"

namespace reo {

/// Most shards one server runs: each is an event-loop thread, so a shard
/// count is a thread count and gets a ceiling (ShardedServer checks it).
inline constexpr size_t kMaxShards = 64;

/// Where one command executes: a single shard, or all of them.
struct ShardRoute {
  bool fan_out = false;
  size_t shard = 0;  ///< owning shard; meaningful only when !fan_out
};

class ShardRouter {
 public:
  explicit ShardRouter(size_t num_shards)
      : num_shards_(num_shards == 0 ? 1 : num_shards) {}

  size_t num_shards() const { return num_shards_; }

  /// Owning shard of an object id (stable hash partition).
  size_t ShardOf(ObjectId id) const {
    return ObjectIdHash{}(id) % num_shards_;
  }

  /// Routing decision for one decoded command: PlaceCommand's key mapped
  /// onto its shard.
  ShardRoute RouteOf(const OsdCommand& cmd) const {
    CommandPlacement where = PlaceCommand(cmd);
    return ShardRoute{where.fan_out, where.fan_out ? 0 : ShardOf(where.key)};
  }

 private:
  size_t num_shards_;
};

}  // namespace reo
