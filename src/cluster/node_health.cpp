#include "cluster/node_health.h"

#include <algorithm>
#include <cstddef>

namespace reo {
namespace {

constexpr uint32_t kSuspectAfter = 2;  ///< consecutive failures → suspect
constexpr uint32_t kDeadAfter = 4;     ///< consecutive failures → dead
constexpr double kEwmaAlpha = 0.2;     ///< latency EWMA smoothing factor

}  // namespace

NodeHealthTracker::NodeHealthTracker(size_t num_nodes,
                                     NodeHealthConfig config)
    : config_(config), nodes_(num_nodes) {}

void NodeHealthTracker::RecordSuccess(uint32_t node, double latency_us) {
  Node& n = nodes_[node];
  n.consecutive_failures = 0;
  if (n.state == NodeState::kDead || n.state == NodeState::kProbing) {
    ++stats_.revived;
  }
  n.state = NodeState::kAlive;
  ++n.samples;
  n.ewma_us = n.samples == 1
                  ? latency_us
                  : kEwmaAlpha * latency_us + (1.0 - kEwmaAlpha) * n.ewma_us;
  // Fail-slow: a node can degrade without ever dropping a connection.
  if (n.samples >= config_.fail_slow_min_samples) {
    double median = PeerMedianUs(node);
    if (median > 0.0 && n.ewma_us > config_.fail_slow_factor * median) {
      n.state = NodeState::kSuspect;
      ++stats_.marked_suspect;
    }
  }
}

void NodeHealthTracker::RecordFailure(uint32_t node) {
  Node& n = nodes_[node];
  ++stats_.failures;
  ++n.consecutive_failures;
  if (n.state == NodeState::kProbing) {
    // Failed probe: back to dead, wait out another interval.
    n.state = NodeState::kDead;
    return;
  }
  if (n.consecutive_failures >= kDeadAfter) {
    if (n.state != NodeState::kDead) ++stats_.marked_dead;
    n.state = NodeState::kDead;
  } else if (n.consecutive_failures >= kSuspectAfter) {
    if (n.state == NodeState::kAlive) ++stats_.marked_suspect;
    n.state = NodeState::kSuspect;
  }
}

void NodeHealthTracker::MarkDead(uint32_t node) {
  Node& n = nodes_[node];
  if (n.state != NodeState::kDead) ++stats_.marked_dead;
  n.state = NodeState::kDead;
  n.consecutive_failures = kDeadAfter;
}

bool NodeHealthTracker::ProbeDue(uint32_t node, uint64_t now_ms) {
  Node& n = nodes_[node];
  if (n.state != NodeState::kDead) return false;
  if (n.last_probe_ms != 0 &&
      now_ms - n.last_probe_ms < config_.probe_interval_ms) {
    return false;
  }
  n.last_probe_ms = now_ms;
  n.state = NodeState::kProbing;
  ++stats_.probes;
  return true;
}

double NodeHealthTracker::PeerMedianUs(uint32_t except) const {
  std::vector<double> peers;
  peers.reserve(nodes_.size());
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    if (i == except) continue;
    const Node& n = nodes_[i];
    if (n.samples >= config_.fail_slow_min_samples) peers.push_back(n.ewma_us);
  }
  if (peers.empty()) return 0.0;
  auto mid = peers.begin() + static_cast<ptrdiff_t>(peers.size() / 2);
  std::nth_element(peers.begin(), mid, peers.end());
  return *mid;
}

}  // namespace reo
