// Per-node health state machine for the cluster client.
//
//   alive --consecutive failures--> suspect --more failures--> dead
//   dead  --probe interval elapses--> probing --success--> alive
//                                             --failure--> dead
//
// Two failure detectors feed it, mirroring the repo's device-level
// tolerance story one domain up:
//   * fail-stop: 2 consecutive transport failures mark a node suspect,
//     4 mark it dead;
//   * fail-slow: a per-node latency EWMA compared against the median of
//     its peers' EWMAs (failslow.h's detection idea) marks a node
//     suspect before it ever drops a connection.
// Suspect nodes still serve (reads are deprioritized by the caller);
// dead nodes are skipped by routing until a timed probe brings them
// back. Single-threaded by design: each closed-loop worker owns one
// tracker, like it owns one initiator per node.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace reo {

enum class NodeState : uint8_t { kAlive = 0, kSuspect, kDead, kProbing };

constexpr std::string_view to_string(NodeState s) {
  switch (s) {
    case NodeState::kAlive: return "alive";
    case NodeState::kSuspect: return "suspect";
    case NodeState::kDead: return "dead";
    case NodeState::kProbing: return "probing";
  }
  return "?";
}

struct NodeHealthConfig {
  /// Fail-slow: EWMA above this multiple of the peer median → suspect.
  double fail_slow_factor = 8.0;
  /// Minimum latency samples before fail-slow judgement engages.
  uint64_t fail_slow_min_samples = 16;
  /// How often a dead node is probed back, in caller-clock ms.
  uint64_t probe_interval_ms = 200;
};

struct NodeHealthStats {
  uint64_t failures = 0;
  uint64_t marked_suspect = 0;
  uint64_t marked_dead = 0;
  uint64_t probes = 0;
  uint64_t revived = 0;
};

class NodeHealthTracker {
 public:
  NodeHealthTracker(size_t num_nodes, NodeHealthConfig config = {});

  size_t num_nodes() const { return nodes_.size(); }
  NodeState state(uint32_t node) const { return nodes_[node].state; }
  /// Routable: alive, suspect (still serving), or mid-probe.
  bool Usable(uint32_t node) const {
    return nodes_[node].state != NodeState::kDead;
  }

  /// A request to `node` completed in `latency_us`. Clears failure
  /// streaks, revives probing nodes, and runs the fail-slow check.
  void RecordSuccess(uint32_t node, double latency_us);

  /// A request to `node` failed at the transport (not a storage sense
  /// code — those prove the node is alive).
  void RecordFailure(uint32_t node);

  /// Externally declare the node dead (operator / chaos announcement).
  void MarkDead(uint32_t node);

  /// True when a dead node's probe timer has elapsed: transitions it to
  /// kProbing and stamps the attempt, so exactly one caller probes per
  /// interval. The probe's outcome comes back via RecordSuccess/Failure.
  bool ProbeDue(uint32_t node, uint64_t now_ms);

  double latency_ewma_us(uint32_t node) const { return nodes_[node].ewma_us; }
  const NodeHealthStats& stats() const { return stats_; }

 private:
  struct Node {
    NodeState state = NodeState::kAlive;
    uint32_t consecutive_failures = 0;
    double ewma_us = 0.0;
    uint64_t samples = 0;
    uint64_t last_probe_ms = 0;
  };

  /// Median of the latency EWMAs of nodes other than `except` that have
  /// enough samples; 0 when no peer qualifies.
  double PeerMedianUs(uint32_t except) const;

  NodeHealthConfig config_;
  std::vector<Node> nodes_;
  NodeHealthStats stats_;
};

}  // namespace reo
