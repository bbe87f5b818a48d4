#include "cluster/recovery_driver.h"

#include <algorithm>
#include <unordered_map>

#include "common/flags.h"
#include "common/recovery_order.h"
#include "osd/osd_initiator.h"
#include "telemetry/json_scan.h"

namespace reo {

Result<std::vector<RefetchItem>> ClusterRecoveryDriver::Plan(
    uint32_t dead_node, ClusterRecoveryReport& report) {
  // Dedup across survivors (refetch re-hints can briefly duplicate an
  // entry on two successors); the hottest estimate wins.
  std::unordered_map<ObjectId, RefetchItem, ObjectIdHash> dead_objects;
  for (uint32_t node = 0; node < cluster_.num_nodes(); ++node) {
    if (node == dead_node) continue;
    auto resp = cluster_.AdminRoundtrip(node, AdminOp::kOwners);
    if (!resp.ok() || resp->status != 0) continue;
    auto doc = JsonDoc::Parse(resp->json);
    if (!doc) continue;
    ++report.survivors_queried;
    int entries = doc->member(doc->root(), "entries");
    if (!doc->is(entries, JsonDoc::Type::kArray)) continue;
    for (size_t i = 0; i < doc->size(entries); ++i) {
      int e = doc->item(entries, i);
      ++report.entries_scanned;
      // A field that is missing, malformed or out of range skips the
      // entry rather than wrapping into some other node's, object's,
      // class's or hotness's value.
      auto owner = doc->integer(doc->member(e, "owner"), 0, UINT32_MAX);
      auto class_id = doc->integer(doc->member(e, "class"), 0, UINT8_MAX);
      auto hotness = doc->integer(doc->member(e, "hotness"), 0,
                                  JsonDoc::kMaxExactInteger);
      auto pid = ParseHex(doc->str(doc->member(e, "pid")));
      auto oid = ParseHex(doc->str(doc->member(e, "oid")));
      if (!owner || !class_id || !hotness || !pid || !oid ||
          static_cast<uint32_t>(*owner) != dead_node) {
        continue;
      }
      ++report.dead_entries;
      RefetchItem item;
      item.id = ObjectId{*pid, *oid};
      item.class_id = static_cast<uint8_t>(*class_id);
      item.hotness = static_cast<uint64_t>(*hotness);
      auto [it, inserted] = dead_objects.try_emplace(item.id, item);
      if (!inserted) {
        it->second.hotness = std::max(it->second.hotness, item.hotness);
        --report.dead_entries;
      }
    }
  }
  if (report.survivors_queried == 0) {
    return Status{ErrorCode::kUnavailable, "no survivor answered OWNERS"};
  }

  std::vector<RefetchItem> plan;
  plan.reserve(dead_objects.size());
  for (auto& [id, item] : dead_objects) {
    switch (item.class_id) {
      case 0:
      case 1:
        plan.push_back(item);
        break;
      case 2:
        ++report.clean_miss_class2;
        break;
      default:
        ++report.clean_miss_class3;
        break;
    }
  }
  // The differentiated ordering: class 0 strictly before class 1, hot
  // before cold within a class — the restart restore's order.
  SortRecoveryOrder(plan.begin(), plan.end(), [](const RefetchItem& item) {
    return RecoveryKey(item.class_id, item.hotness, item.id);
  });
  return plan;
}

Result<ClusterRecoveryReport> ClusterRecoveryDriver::Recover(
    uint32_t dead_node) {
  ClusterRecoveryReport report;
  // 1. Announce: survivors mark the dead node's hints down (so the
  //    refetch writes below are recognized as refetches) and account the
  //    class-2/3 degradation.
  REO_RETURN_IF_ERROR(cluster_.AnnounceNodeDown(dead_node));

  // 2. Gather and order the work.
  auto plan = Plan(dead_node, report);
  if (!plan.ok()) return plan.status();

  // 3. Refetch class-0/1 from the backend, hottest first, and write each
  //    through the cluster: routing lands it on the key's new owner —
  //    the hint holder, which emits cluster.refetch on arrival.
  OsdInitiator initiator(cluster_);
  for (const RefetchItem& item : *plan) {
    auto payload = backend_(item.id);
    if (!payload.ok()) {
      ++report.refetch_failures;
      continue;
    }
    // The new owner has no record of the object; an exists-failure from
    // a re-run is fine, the write below is the real verdict. Classifying
    // through the ring also re-hints the object to its new successor.
    (void)initiator.CreateObject(item.id, payload->size(), 0);
    (void)initiator.SetClassId(item.id, item.class_id, 0);
    OsdResponse resp =
        initiator.WriteObject(item.id, *payload, payload->size(), 0);
    if (!resp.ok()) {
      ++report.refetch_failures;
      continue;
    }
    if (item.class_id == 0) {
      ++report.refetched_class0;
    } else {
      ++report.refetched_class1;
    }
  }
  return report;
}

}  // namespace reo
