#include "core/recovery_scheduler.h"

#include <string>

namespace reo {

void RecoveryScheduler::AttachTelemetry(MetricRegistry& registry) {
  tel_enqueues_ = &registry.GetCounter("recovery.enqueues");
  for (int cls = 0; cls < 4; ++cls) {
    std::string base = "recovery.class" + std::to_string(cls);
    tel_rebuilds_[cls][0] = &registry.GetCounter(base + ".background.rebuilds");
    tel_rebuilds_[cls][1] = &registry.GetCounter(base + ".ondemand.rebuilds");
  }
  tel_latency_[0] = &registry.GetHistogram("recovery.latency.background_us");
  tel_latency_[1] = &registry.GetHistogram("recovery.latency.ondemand_us");
  tel_depth_ = &registry.GetGauge("recovery.queue_depth");
  tel_pending_bytes_ = &registry.GetGauge("recovery.pending_bytes");
  PublishQueueGauges();
}

void RecoveryScheduler::RecordRebuild(DataClass cls, bool on_demand,
                                      double latency_us) {
  int c = static_cast<int>(cls);
  if (c < 0 || c > 3) c = 3;
  Inc(tel_rebuilds_[c][on_demand ? 1 : 0]);
  Observe(tel_latency_[on_demand ? 1 : 0], latency_us);
}

void RecoveryScheduler::PublishQueueGauges() {
  Set(tel_depth_, static_cast<double>(queue_.size()));
  Set(tel_pending_bytes_, static_cast<double>(pending_bytes_));
}

void RecoveryScheduler::Enqueue(ObjectId id, DataClass cls, double h,
                                uint64_t bytes) {
  Remove(id);
  Key key(static_cast<uint8_t>(cls), h, id);
  queue_.insert(key);
  index_.emplace(id, std::make_pair(key, bytes));
  pending_bytes_ += bytes;
  Inc(tel_enqueues_);
  PublishQueueGauges();
}

void RecoveryScheduler::Remove(ObjectId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  queue_.erase(it->second.first);
  pending_bytes_ -= it->second.second;
  index_.erase(it);
  PublishQueueGauges();
}

std::optional<ObjectId> RecoveryScheduler::Peek() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.begin()->tie;
}

std::optional<ObjectId> RecoveryScheduler::Pop() {
  if (queue_.empty()) return std::nullopt;
  ObjectId id = queue_.begin()->tie;
  Remove(id);
  return id;
}

void RecoveryScheduler::Clear() {
  queue_.clear();
  index_.clear();
  pending_bytes_ = 0;
  PublishQueueGauges();
}

}  // namespace reo
