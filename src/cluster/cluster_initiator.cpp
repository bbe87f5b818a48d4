#include "cluster/cluster_initiator.h"

#include <chrono>

#include "common/file_util.h"
#include "osd/command_placement.h"
#include "osd/control_protocol.h"

namespace reo {
namespace {

OsdResponse FailResponse() {
  OsdResponse r;
  r.sense = SenseCode::kFail;
  return r;
}

/// Safe to replay on another replica: re-executing changes nothing.
bool IdempotentRead(OsdOp op) {
  return op == OsdOp::kRead || op == OsdOp::kGetAttr || op == OsdOp::kList ||
         op == OsdOp::kListCollection;
}

}  // namespace

std::vector<ClusterEndpoint> ParseClusterEndpoints(const std::string& list) {
  std::vector<ClusterEndpoint> out;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    std::string item = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0) return {};
    std::optional<uint16_t> port =
        ParsePort(std::string_view(item).substr(colon + 1));
    if (!port || *port == 0) return {};
    out.push_back({item.substr(0, colon), *port});
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

Result<std::vector<ClusterEndpoint>> ResolveEndpoints(
    const std::string& endpoints, const std::string& host, uint16_t port,
    const std::string& port_file) {
  auto invalid = [](std::string message) {
    return Status(ErrorCode::kInvalidArgument, std::move(message));
  };
  if (!endpoints.empty()) {
    std::vector<ClusterEndpoint> list = ParseClusterEndpoints(endpoints);
    if (list.empty()) return invalid("bad --endpoints list: " + endpoints);
    return list;
  }
  if (!port_file.empty()) {
    auto text = ReadFileToString(port_file);
    if (!text.ok()) return invalid("port file: " + text.status().to_string());
    std::optional<uint16_t> parsed = ParsePort(*text);
    if (!parsed) {
      return invalid("--port-file " + port_file + " holds no port 0-65535");
    }
    port = *parsed;
  }
  if (port == 0) return invalid("need --port, --port-file, or --endpoints");
  return std::vector<ClusterEndpoint>{{host, port}};
}

ClusterInitiator::ClusterInitiator(std::vector<ClusterEndpoint> endpoints,
                                   ClusterInitiatorConfig config)
    : endpoints_(std::move(endpoints)),
      config_(config),
      ring_(config.ring),
      health_(endpoints_.size(), config.health) {
  sessions_.reserve(endpoints_.size());
  for (uint32_t node = 0; node < endpoints_.size(); ++node) {
    SocketInitiatorConfig session = config_.session;
    // Distinct jitter streams per node so one worker's reconnects to
    // different nodes don't sleep in lockstep either.
    session.seed = config_.session.seed * 0x9E3779B97F4A7C15ULL + node + 1;
    sessions_.emplace_back(session);
    ring_.AddNode(node);
  }
}

uint64_t ClusterInitiator::NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SocketInitiatorStats ClusterInitiator::WireStats() const {
  SocketInitiatorStats sum;
  for (const SocketInitiator& s : sessions_) {
    const SocketInitiatorStats& w = s.stats();
    sum.commands += w.commands;
    sum.bytes_sent += w.bytes_sent;
    sum.bytes_received += w.bytes_received;
    sum.decode_errors += w.decode_errors;
    sum.frames_sent += w.frames_sent;
    sum.frames_received += w.frames_received;
    sum.crc_errors += w.crc_errors;
    sum.frame_errors += w.frame_errors;
    sum.timeouts += w.timeouts;
    sum.reconnects += w.reconnects;
    sum.admin_commands += w.admin_commands;
  }
  return sum;
}

Status ClusterInitiator::ConnectAll() {
  size_t connected = 0;
  for (uint32_t node = 0; node < sessions_.size(); ++node) {
    if (sessions_[node].Connect(endpoints_[node].host, endpoints_[node].port)
            .ok()) {
      health_.RecordSuccess(node, 0.0);
      ++connected;
    } else {
      health_.RecordFailure(node);
    }
  }
  if (connected == 0) {
    return Status{ErrorCode::kUnavailable, "no cluster node reachable"};
  }
  return Status::Ok();
}

bool ClusterInitiator::EnsureSession(uint32_t node) {
  if (health_.state(node) == NodeState::kDead) {
    // Dead nodes are skipped except when their probe timer is due; the
    // probe is the connect itself.
    if (!health_.ProbeDue(node, NowMs())) return false;
  }
  if (sessions_[node].connected()) return true;
  auto t0 = std::chrono::steady_clock::now();
  if (!sessions_[node].Connect(endpoints_[node].host, endpoints_[node].port)
           .ok()) {
    ++stats_.transport_failures;
    health_.RecordFailure(node);
    return false;
  }
  double us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  health_.RecordSuccess(node, us);
  return true;
}

OsdResponse ClusterInitiator::RoundtripOn(uint32_t node,
                                          const OsdCommand& command,
                                          bool* transport_failure) {
  *transport_failure = false;
  if (!EnsureSession(node)) {
    *transport_failure = true;
    return FailResponse();
  }
  auto t0 = std::chrono::steady_clock::now();
  OsdResponse resp = sessions_[node].Roundtrip(command);
  if (resp.sense != SenseCode::kOk && !sessions_[node].connected()) {
    // The session died mid-flight: a wire failure, not a storage verdict
    // (sense errors leave the connection open).
    *transport_failure = true;
    ++stats_.transport_failures;
    health_.RecordFailure(node);
    return resp;
  }
  double us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  health_.RecordSuccess(node, us);
  return resp;
}

std::optional<uint32_t> ClusterInitiator::PickNode(ObjectId id) {
  auto replicas = ring_.ReplicasOf(id, sessions_.size());
  for (uint32_t node : replicas) {
    if (health_.Usable(node)) return node;
    // Dead: give its probe timer a chance to bring it back right now.
    if (EnsureSession(node)) return node;
  }
  return std::nullopt;
}

OsdResponse ClusterInitiator::FanOut(const OsdCommand& command) {
  std::vector<OsdResponse> parts;
  parts.reserve(sessions_.size());
  for (uint32_t node = 0; node < sessions_.size(); ++node) {
    if (!health_.Usable(node) && !EnsureSession(node)) continue;
    bool transport_failure = false;
    OsdResponse part = RoundtripOn(node, command, &transport_failure);
    if (!transport_failure) parts.push_back(std::move(part));
  }
  if (parts.empty()) return FailResponse();
  return MergeFanOutResponses(parts);
}

OsdResponse ClusterInitiator::Roundtrip(const OsdCommand& command) {
  ++stats_.commands;
  CommandPlacement where = PlaceCommand(command);
  if (where.fan_out) return FanOut(command);
  if (where.hint_owner) {
    // Hints belong on the target's ring successor relative to the
    // recorded owner, so they survive the owner's death in place.
    for (uint32_t node : ring_.ReplicasOf(where.key, sessions_.size())) {
      if (node == *where.hint_owner) continue;
      if (health_.Usable(node) || EnsureSession(node)) {
        return RouteSingle(command, where.key, node);
      }
    }
    return FailResponse();
  }
  if (command.op == OsdOp::kWrite && command.id == kControlObject) {
    return RouteSingle(command, where.key);  // a control message, not data
  }

  if (IdempotentRead(command.op)) {
    ++stats_.reads;
    auto replicas = ring_.ReplicasOf(command.id, sessions_.size());
    for (uint32_t node : replicas) {
      if (!health_.Usable(node) && !EnsureSession(node)) continue;
      bool transport_failure = false;
      OsdResponse resp = RoundtripOn(node, command, &transport_failure);
      if (!transport_failure) {
        if (resp.sense == SenseCode::kOk && command.op == OsdOp::kRead) {
          MaybeRehint(command.id);
        }
        return resp;  // served (a sense miss is a verdict, not a failure)
      }
      ++stats_.read_failovers;  // wire failure: move on to the next replica
    }
    ++stats_.failed_reads;
    return FailResponse();
  }

  // Write-side op: one attempt on the first usable replica, never
  // blindly resent (the ack is the durability contract).
  ++stats_.writes;
  return RouteSingle(command, command.id);
}

OsdResponse ClusterInitiator::RouteSingle(const OsdCommand& command,
                                          ObjectId route_by,
                                          std::optional<uint32_t> forced) {
  std::optional<uint32_t> node = forced ? forced : PickNode(route_by);
  if (!node) {
    ++stats_.failed_writes;
    return FailResponse();
  }
  bool transport_failure = false;
  OsdResponse resp = RoundtripOn(*node, command, &transport_failure);
  if (transport_failure) ++stats_.failed_writes;
  return resp;
}

OsdResponse ClusterInitiator::Classify(ObjectId id, uint8_t class_id) {
  std::optional<uint32_t> node = PickNode(id);
  if (!node) {
    ++stats_.failed_writes;
    return FailResponse();
  }
  OsdCommand cmd;
  cmd.op = OsdOp::kWrite;
  cmd.id = kControlObject;
  cmd.data = EncodeControlMessage(
      ControlMessage{SetIdCommand{.target = id, .class_id = class_id}});
  bool transport_failure = false;
  OsdResponse resp = RoundtripOn(*node, cmd, &transport_failure);
  if (transport_failure) {
    ++stats_.failed_writes;
    return resp;
  }
  ObjectMeta& meta = objects_[id];
  meta.class_id = class_id;
  SendHint(id, class_id, meta.reads, *node);
  return resp;
}

void ClusterInitiator::SendHint(ObjectId id, uint8_t class_id,
                                uint64_t hotness, uint32_t owner) {
  auto replicas = ring_.ReplicasOf(id, sessions_.size());
  for (uint32_t node : replicas) {
    if (node == owner) continue;
    if (!health_.Usable(node) && !EnsureSession(node)) continue;
    OsdCommand cmd;
    cmd.op = OsdOp::kWrite;
    cmd.id = kControlObject;
    cmd.data = EncodeControlMessage(ControlMessage{OwnerHintCommand{
        .target = id, .class_id = class_id, .hotness = hotness,
        .owner = owner}});
    bool transport_failure = false;
    OsdResponse resp = RoundtripOn(node, cmd, &transport_failure);
    if (!transport_failure && resp.sense == SenseCode::kOk) {
      ++stats_.hints_sent;
      return;
    }
  }
}

void ClusterInitiator::MaybeRehint(ObjectId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return;
  uint64_t reads = ++it->second.reads;
  // Amortized hotness refresh: re-hint at powers of two, so a hot
  // object's survivor-side estimate tracks within 2x at O(log n) cost.
  if (reads < 2 || (reads & (reads - 1)) != 0) return;
  if (auto owner = PickNode(id)) {
    SendHint(id, it->second.class_id, reads, *owner);
  }
}

Status ClusterInitiator::AnnounceNodeDown(uint32_t node) {
  if (node >= sessions_.size()) {
    return Status{ErrorCode::kInvalidArgument, "no such node"};
  }
  health_.MarkDead(node);
  sessions_[node].Close();
  OsdCommand cmd;
  cmd.op = OsdOp::kWrite;
  cmd.id = kControlObject;
  cmd.data =
      EncodeControlMessage(ControlMessage{NodeDownCommand{.node = node}});
  size_t delivered = 0;
  for (uint32_t peer = 0; peer < sessions_.size(); ++peer) {
    if (peer == node) continue;
    if (!health_.Usable(peer) && !EnsureSession(peer)) continue;
    bool transport_failure = false;
    OsdResponse resp = RoundtripOn(peer, cmd, &transport_failure);
    if (!transport_failure && resp.sense == SenseCode::kOk) ++delivered;
  }
  ++stats_.announces;
  if (delivered == 0) {
    return Status{ErrorCode::kUnavailable, "no survivor reachable"};
  }
  return Status::Ok();
}

Result<AdminResponse> ClusterInitiator::AdminRoundtrip(uint32_t node,
                                                       AdminOp op,
                                                       uint32_t arg) {
  if (node >= sessions_.size()) {
    return Status{ErrorCode::kInvalidArgument, "no such node"};
  }
  if (!sessions_[node].connected() && !EnsureSession(node)) {
    return Status{ErrorCode::kUnavailable, "node unreachable"};
  }
  return sessions_[node].AdminRoundtrip(op, arg);
}

}  // namespace reo
