// NodeStack: one complete serving stack, wired in one place.
//
// flash array -> stripe manager -> differentiated-redundancy data plane
// -> (DRAM admission tier) -> OSD target, plus what hangs off it: the
// failure plane, the fault injector and fail-slow detector, the durable
// journal, and the cluster directory. reo_server builds one stack per
// serving shard and hands the targets to ShardedServer; CacheSimulator
// builds one (stack 0 of 1) and adds only the backend, the cache manager
// and the wire transport on top.
//
// A node's N stacks partition one node: stack k of N gets 1/N of the
// capacity and DRAM budgets, reseeds its fault injector with seed + k (so
// shards do not fault in lockstep), and journals under data_dir/shardK
// when N > 1 (flat when N == 1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "admit/admission_tier.h"
#include "core/data_plane.h"
#include "core/failure_plane.h"
#include "core/policy.h"
#include "fault/failslow.h"
#include "fault/fault_injector.h"
#include "fault/fault_spec.h"
#include "flash/flash_array.h"
#include "osd/cluster_directory.h"
#include "osd/osd_target.h"
#include "persist/persistence.h"
#include "telemetry/metric_registry.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {

struct NodeStackConfig {
  PolicyConfig policy;
  size_t num_devices = 5;
  /// The whole node's cache budget; each of N stacks gets 1/N.
  uint64_t capacity_bytes = 256ull << 20;
  uint64_t chunk_logical_bytes = 64 * 1024;
  /// Physical payload scale (DESIGN.md "Scaling"); 0 stores full bytes.
  uint32_t scale_shift = 0;
  /// Device model. capacity_bytes is overridden: each device could hold
  /// the stack's whole budget, which the stripe manager enforces
  /// logically, so a failure costs data, not allocatable space.
  FlashDeviceConfig device;
  /// The whole node's DRAM tier; each stack gets dram_bytes / N, and a
  /// zero share builds no tier.
  AdmissionConfig admission;
  /// Fault rules; empty builds no injector and no fail-slow detector.
  FaultSpec faults;
  FailSlowConfig failslow;
  /// When the fail-slow detector flags a device, proactively demote it:
  /// treat it as failed, swap in a spare at the same index, and run the
  /// normal differentiated recovery. Off by default (detection/events
  /// only).
  bool failslow_demote = false;
  /// Durable state; an empty data_dir keeps the stack in memory.
  PersistenceConfig persistence;
  /// Cluster mode: a directory for this node id sits behind the target.
  std::optional<uint32_t> node_id;
};

/// Where a stack reports. A null sink leaves every component un-attached
/// to it.
struct NodeStackSinks {
  MetricRegistry* registry = nullptr;
  EventLog* events = nullptr;
  Tracer* tracer = nullptr;
};

/// Owns one stack. Members are declared so that everything a component
/// points at is destroyed after it.
struct NodeStack {
  /// Builds and wires stack `index` of `count`. Fails only when the
  /// durable state cannot be opened; a state image that fails
  /// verification answers kCorrupted.
  static Result<NodeStack> Build(const NodeStackConfig& config, size_t index,
                                 size_t count, const NodeStackSinks& sinks);

  uint64_t capacity_bytes = 0;  ///< this stack's slice of the node budget
  std::unique_ptr<FaultInjector> injector;      ///< null without fault rules
  std::unique_ptr<FailSlowDetector> failslow;   ///< null without fault rules
  std::unique_ptr<PersistenceManager> persist;  ///< null without a data dir
  std::unique_ptr<ClusterDirectory> cluster;    ///< null without a node id
  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
  std::unique_ptr<ReoDataPlane> plane;
  /// Device failure, spares, scrub, fail-slow demotion and recovery.
  std::unique_ptr<FailurePlane> failure;
  std::unique_ptr<AdmissionTier> admission;  ///< null without a DRAM share
  std::unique_ptr<OsdTarget> target;
};

}  // namespace reo
