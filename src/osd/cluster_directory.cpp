#include "osd/cluster_directory.h"

#include <algorithm>
#include <cstdio>

#include "common/recovery_order.h"
#include "telemetry/json_util.h"

namespace reo {

void ClusterDirectory::AttachTelemetry(MetricRegistry& registry) {
  tel_hints_ = &registry.GetCounter("cluster.hints");
  tel_node_downs_ = &registry.GetCounter("cluster.node_down");
  tel_refetches_ = &registry.GetCounter("cluster.refetch");
  tel_degraded_misses_ = &registry.GetCounter("cluster.degraded_miss");
  tel_entries_ = &registry.GetGauge("cluster.directory_entries");
}

void ClusterDirectory::RecordHint(const OwnerHintCommand& hint, SimTime now) {
  (void)now;
  std::lock_guard<std::mutex> lock(mu_);
  OwnerEntry& e = entries_[hint.target];
  e.class_id = hint.class_id;
  // Hotness only grows: re-hints race with refetch re-owning, and a stale
  // lower estimate must not erase a fresher one.
  e.hotness = std::max(e.hotness, hint.hotness);
  e.owner = hint.owner;
  e.down = false;
  ++stats_.hints;
  Inc(tel_hints_);
  if (tel_entries_) tel_entries_->Set(static_cast<double>(entries_.size()));
}

void ClusterDirectory::OnNodeDown(const NodeDownCommand& cmd, SimTime now) {
  uint64_t pending[4] = {0, 0, 0, 0};
  size_t misses = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, e] : entries_) {
      if (e.owner != cmd.node || e.down) continue;
      e.down = true;
      if (e.class_id < 4) ++pending[e.class_id];
      if (e.class_id >= 2) ++misses;
    }
    ++stats_.node_downs;
    stats_.degraded_misses += misses;
  }
  Inc(tel_node_downs_);
  Inc(tel_degraded_misses_, misses);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "node %u down", cmd.node);
  Emit(events_, now, EventSeverity::kError, "cluster.node_down", buf,
       {{"node", std::to_string(cmd.node)},
        {"pending_class0", std::to_string(pending[0])},
        {"pending_class1", std::to_string(pending[1])},
        {"clean_miss_class2", std::to_string(pending[2])},
        {"clean_miss_class3", std::to_string(pending[3])}});
}

void ClusterDirectory::OnLocalWrite(ObjectId id, SimTime now) {
  uint8_t class_id = 0;
  uint64_t hotness = 0;
  uint32_t prev_owner = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end() || !it->second.down) return;
    class_id = it->second.class_id;
    hotness = it->second.hotness;
    prev_owner = it->second.owner;
    it->second.owner = local_node_;
    it->second.down = false;
    ++stats_.refetches;
  }
  Inc(tel_refetches_);
  Emit(events_, now, EventSeverity::kInfo, "cluster.refetch",
       "refetched object re-owned",
       {{"object", id.ToString()},
        {"class", std::to_string(class_id)},
        {"hotness", std::to_string(hotness)},
        {"from_node", std::to_string(prev_owner)},
        {"to_node", std::to_string(local_node_)}});
}

void ClusterDirectory::OnLocalRemove(ObjectId id) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(id);
  if (tel_entries_) tel_entries_->Set(static_cast<double>(entries_.size()));
}

ClusterDirectoryStats ClusterDirectory::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ClusterDirectory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::pair<ObjectId, OwnerEntry>> ClusterDirectory::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

namespace {

std::string OwnersJson(uint32_t node,
                       std::vector<std::pair<ObjectId, OwnerEntry>> snapshot) {
  // Refetch order, so a recovery driver can stream the entries.
  SortRecoveryOrder(snapshot.begin(), snapshot.end(), [](const auto& entry) {
    return RecoveryKey(entry.second.class_id, entry.second.hotness,
                       entry.first);
  });
  std::string out;
  out.reserve(64 + snapshot.size() * 96);
  out += "{\"schema\":\"reo.owners.v1\",\"node\":";
  out += std::to_string(node);
  out += ",\"entries\":[";
  bool first = true;
  char buf[192];
  for (const auto& [id, e] : snapshot) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"pid\":\"0x%llx\",\"oid\":\"0x%llx\",\"class\":%u,"
                  "\"hotness\":%llu,\"owner\":%u,\"down\":%s}",
                  static_cast<unsigned long long>(id.pid),
                  static_cast<unsigned long long>(id.oid),
                  static_cast<unsigned>(e.class_id),
                  static_cast<unsigned long long>(e.hotness),
                  static_cast<unsigned>(e.owner), e.down ? "true" : "false");
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace

std::string ClusterDirectory::ToJson() const {
  return OwnersJson(local_node_, Snapshot());
}

std::string ClusterDirectory::MergedJson(
    const std::vector<const ClusterDirectory*>& parts) {
  std::vector<std::pair<ObjectId, OwnerEntry>> all;
  uint32_t node = 0;
  for (const ClusterDirectory* d : parts) {
    if (d == nullptr) continue;
    node = d->local_node();
    auto part = d->Snapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  return OwnersJson(node, std::move(all));
}

}  // namespace reo
