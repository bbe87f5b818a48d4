// Differentiated data recovery ordering (paper §IV.D).
//
// After a failure, recoverable objects are reconstructed "according to
// their class (metadata, dirty data, hot clean data, and finally cold
// clean data), from Class 0 to Class 3" — and, within a class, hot data
// first (highest H), because it is most likely to be requested soon. The
// order itself is RecoveryKey (common/recovery_order.h).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/object_id.h"
#include "common/recovery_order.h"
#include "core/classifier.h"
#include "telemetry/metric_registry.h"

namespace reo {

/// Priority queue of objects awaiting reconstruction, in recovery order:
/// class ascending (0 first), then H descending, then ObjectId.
class RecoveryScheduler {
 public:
  /// Enqueues (or re-prioritizes) an object.
  void Enqueue(ObjectId id, DataClass cls, double h, uint64_t bytes);

  /// Removes an object (rebuilt on demand, evicted, or lost).
  void Remove(ObjectId id);

  /// Highest-priority object, or nullopt when drained.
  std::optional<ObjectId> Peek() const;

  /// Pops the highest-priority object.
  std::optional<ObjectId> Pop();

  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }
  uint64_t pending_bytes() const { return pending_bytes_; }
  void Clear();

  /// Registers recovery metrics ("recovery.*"): queue pressure gauges plus
  /// per-class on-demand vs background rebuild counters and latency
  /// histograms.
  void AttachTelemetry(MetricRegistry& registry);

  /// Records one completed reconstruction. The failure plane performs the
  /// rebuild IO (on-demand at access/failure time, or paced background
  /// work) and reports it here so recovery telemetry lives with the
  /// scheduler that ordered it.
  void RecordRebuild(DataClass cls, bool on_demand, double latency_us);

 private:
  using Key = RecoveryKey<ObjectId>;

  void PublishQueueGauges();

  std::set<Key> queue_;
  std::unordered_map<ObjectId, std::pair<Key, uint64_t>, ObjectIdHash> index_;
  uint64_t pending_bytes_ = 0;

  // Telemetry (null when un-attached). Rebuild counters are indexed
  // [class 0-3][0 = background, 1 = on-demand].
  Counter* tel_enqueues_ = nullptr;
  Counter* tel_rebuilds_[4][2] = {};
  ShardedHistogram* tel_latency_[2] = {};
  Gauge* tel_depth_ = nullptr;
  Gauge* tel_pending_bytes_ = nullptr;
};

}  // namespace reo
