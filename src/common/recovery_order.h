// The differentiated recovery order of paper §IV.D, defined once: class 0
// before 1, 2 and 3; within a class, hot before cold; then the caller's
// tie-break (an ObjectId or an LSN), which makes the order total. Device
// rebuild (RecoveryScheduler), restart restore (RestoreOrder), the cluster
// refetch plan (ClusterRecoveryDriver::Plan) and the ADMIN OWNERS dump all
// sort by it.
#pragma once

#include <algorithm>
#include <cstdint>

namespace reo {

/// One object's place in recovery order. Hotness is the paper's
/// H = Freq / Size or a read count: a uint64_t count up to 2^53 (JsonDoc's
/// integer cap) converts to the double exactly, so both order alike.
template <typename Tie>
struct RecoveryKey {
  RecoveryKey(uint8_t class_id, double hotness, Tie tie)
      : class_id(class_id), hotness(hotness), tie(tie) {}
  RecoveryKey(uint8_t class_id, uint64_t hotness, Tie tie)
      : RecoveryKey(class_id, static_cast<double>(hotness), tie) {}

  uint8_t class_id;
  double hotness;
  Tie tie;

  /// True when `a` is recovered before `b`.
  friend bool operator<(const RecoveryKey& a, const RecoveryKey& b) {
    if (a.class_id != b.class_id) return a.class_id < b.class_id;
    if (a.hotness != b.hotness) return a.hotness > b.hotness;
    return a.tie < b.tie;
  }
};

/// Sorts [first, last) into recovery order by `key_of(item)`.
template <typename It, typename KeyOf>
void SortRecoveryOrder(It first, It last, KeyOf key_of) {
  std::sort(first, last, [&key_of](const auto& a, const auto& b) {
    return key_of(a) < key_of(b);
  });
}

}  // namespace reo
