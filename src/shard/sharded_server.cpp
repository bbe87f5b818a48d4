#include "shard/sharded_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "osd/transport.h"
#include "persist/persistence.h"
#include "server/admin_protocol.h"
#include "telemetry/json_util.h"

namespace reo {
namespace {

/// listen(2) backlog of the accepting socket.
constexpr int kListenBacklog = 128;

/// Cadence of the drain-request poll on shard 0's loop.
constexpr uint64_t kDrainPollMs = 20;

/// After RequestDrain(), connections that have not finished within this
/// budget are force-closed so shutdown always completes.
constexpr uint64_t kDrainTimeoutMs = 5'000;

/// How long the listener stays unwatched after accept ran out of
/// descriptors or kernel memory.
constexpr uint64_t kAcceptPauseMs = 100;

std::string PeerName(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

FramePayload EncodeResponsePayload(OsdResponse&& resp) {
  EncodedResponseParts p = EncodeResponseParts(std::move(resp));
  return FramePayload{std::move(p.head), std::move(p.body), std::move(p.tail)};
}

}  // namespace

/// One shard: an EventLoop thread owning its connections, and the stack
/// behind its OsdTarget. The connections are confined to the loop
/// thread; the stack (target and journal) is guarded by mu_, which
/// whichever thread executes for this shard takes. The counters are
/// relaxed atomics, so HEALTH on any shard can sum them.
class ShardWorker final : private ConnectionHost {
 public:
  ShardWorker(ShardedServer& owner, size_t index, const ServedShard& parts)
      : owner_(owner),
        index_(index),
        target_(*parts.target),
        registry_(parts.registry),
        persist_(parts.persist) {
    MetricRegistry& registry =
        registry_ != nullptr ? *registry_ : own_counters_;
    tel_accepted_ = &registry.GetCounter("server.connections.accepted");
    tel_closed_ = &registry.GetCounter("server.connections.closed");
    tel_rejected_ = &registry.GetCounter("server.connections.rejected");
    tel_requests_ = &registry.GetCounter("server.requests");
    tel_responses_ = &registry.GetCounter("server.responses");
    tel_bytes_in_ = &registry.GetCounter("server.bytes_in");
    tel_bytes_out_ = &registry.GetCounter("server.bytes_out");
    tel_frame_errors_ = &registry.GetCounter("server.frame_errors");
    tel_crc_errors_ = &registry.GetCounter("server.crc_errors");
    tel_decode_errors_ = &registry.GetCounter("server.decode_errors");
    tel_admin_requests_ = &registry.GetCounter("server.admin.requests");
    tel_admin_errors_ = &registry.GetCounter("server.admin.errors");
    tel_forwarded_ = &registry.GetCounter("server.forwarded");
    tel_forward_executed_ = &registry.GetCounter("server.forward_executed");
    tel_active_ = &registry.GetGauge("server.connections.active");
    tel_lat_read_ = &registry.GetHistogram("server.latency.read_us");
    tel_lat_write_ = &registry.GetHistogram("server.latency.write_us");
    tel_lat_other_ = &registry.GetHistogram("server.latency.other_us");
  }

  EventLoop& loop() { return loop_; }
  size_t index() const { return index_; }

  // --- Loop-thread entry points (Posted from shard 0's acceptor and drain).

  /// Adopts an accepted socket: constructs the Connection here so its
  /// EventLoop registration happens on the owning thread.
  void Adopt(int fd, uint64_t id, std::string peer) {
    ConnectionHost& host = *this;
    connections_.emplace(
        id, std::make_unique<Connection>(fd, id, loop_, host,
                                         owner_.config_.idle_timeout_ms, peer,
                                         pool_));
    tel_accepted_->Inc();
    tel_active_->Set(static_cast<double>(connections_.size()));
    Emit(owner_.events_, ShardedServer::NowNs(), EventSeverity::kDebug,
         "server.accept", "connection accepted",
         {{"peer", peer}, {"conn", std::to_string(id)},
          {"shard", std::to_string(index_)}});
    // Safety net: per-loop FIFO means BeginDrain always lands after every
    // adoption it raced with, but be defensive.
    if (draining_) connections_[id]->BeginDrain();
  }

  /// Phase 1: stop this shard's connections taking new requests; finish
  /// what they already received.
  void BeginDrain() {
    draining_ = true;
    std::vector<uint64_t> ids;
    ids.reserve(connections_.size());
    for (const auto& [id, conn] : connections_) ids.push_back(id);
    for (uint64_t id : ids) {
      auto it = connections_.find(id);
      if (it != connections_.end()) it->second->BeginDrain();
    }
    ReportIfEmpty();
  }

  /// Phase 2: every shard's map is empty — checkpoint the journal and stop.
  void FinishDrain() {
    if (persist_ != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      Status st = persist_->Checkpoint(0);
      if (!st.ok()) {
        Emit(owner_.events_, 0, EventSeverity::kError, "persist.checkpoint",
             "shutdown checkpoint failed",
             {{"error", st.to_string()}, {"shard", std::to_string(index_)}});
      }
    }
    loop_.Stop();
  }

  /// Drain-deadline enforcement: force-close whatever is left.
  void ForceCloseAll() {
    size_t n = connections_.size();
    if (n == 0) return;
    tel_closed_->Inc(n);
    connections_.clear();
    owner_.active_conns_.fetch_sub(n, std::memory_order_relaxed);
    tel_active_->Set(0);
    ReportIfEmpty();
  }

  /// Executes `cmd` on `shard`'s stack under its lock, from this loop.
  /// Execution on another shard counts on both sides while the lock is
  /// held, so a STATS snapshot taken under every lock sees both or
  /// neither.
  OsdResponse ExecuteOn(ShardWorker& shard, const OsdCommand& cmd) {
    std::lock_guard<std::mutex> lock(shard.mu_);
    if (&shard != this) {
      tel_forwarded_->Inc();
      shard.tel_forward_executed_->Inc();
    }
    return shard.target_.Execute(cmd);
  }

 private:
  // ConnectionHost (loop thread):
  FramePayload OnFrame(Connection& conn,
                       std::span<const uint8_t> payload) override {
    if (IsAdminFrame(payload)) {
      return owner_.HandleAdminFrame(*this, conn, payload);
    }
    tel_requests_->Inc();
    auto decoded = DecodeCommand(payload);
    if (!decoded.ok()) {
      tel_decode_errors_->Inc();
      Emit(owner_.events_, ShardedServer::NowNs(), EventSeverity::kWarn,
           "server.decode_error", "framed payload is not a valid OSD command",
           {{"peer", conn.peer()},
            {"bytes", std::to_string(payload.size())},
            {"error", std::string(decoded.status().message())}});
      OsdResponse err;
      err.sense = SenseCode::kFail;
      tel_responses_->Inc();
      return EncodeResponsePayload(std::move(err));
    }
    SimTime start = ShardedServer::NowNs();
    decoded->now = start;
    // Execute here, on whichever shard owns the command. The root span
    // and the latency histogram share the same two clock stamps, so
    // stage.transport sums equal server.latency sums under sample_every=1.
    TraceOp root_op = decoded->op == OsdOp::kRead    ? TraceOp::kGet
                      : decoded->op == OsdOp::kWrite ? TraceOp::kPut
                                                     : TraceOp::kOsdCommand;
    RequestTrace root(owner_.tracer_, owner_.trace_root_, root_op, start,
                      decoded->id.oid);
    OsdResponse resp = owner_.Execute(index_, *decoded);
    SimTime end = ShardedServer::NowNs();
    root.set_end(end);
    root.Finish();
    ObserveLatency(decoded->op, start, end);
    tel_responses_->Inc();
    // The bulk data buffer is moved through EncodeResponseParts into the
    // frame queue's body span — no payload copy between cache and kernel.
    return EncodeResponsePayload(std::move(resp));
  }

  void OnCorruptFrame(Connection& conn, FrameStatus status) override {
    const char* kind = "bad_magic";
    if (status == FrameStatus::kCrcMismatch) {
      tel_crc_errors_->Inc();
      kind = "crc_mismatch";
    } else {
      tel_frame_errors_->Inc();
      if (status == FrameStatus::kOversized) kind = "oversized_length";
    }
    Emit(owner_.events_, ShardedServer::NowNs(), EventSeverity::kWarn,
         "server.wire_corruption", "corrupt frame on connection; dropping it",
         {{"peer", conn.peer()},
          {"conn", std::to_string(conn.id())},
          {"shard", std::to_string(index_)},
          {"kind", kind},
          {"frames_ok", std::to_string(conn.frames_handled())}});
  }

  void OnBytes(uint64_t bytes_in, uint64_t bytes_out) override {
    tel_bytes_in_->Inc(bytes_in);
    tel_bytes_out_->Inc(bytes_out);
  }

  void OnClose(Connection& conn, std::string_view reason) override {
    Emit(owner_.events_, ShardedServer::NowNs(), EventSeverity::kDebug,
         "server.close", "connection closed",
         {{"peer", conn.peer()},
          {"conn", std::to_string(conn.id())},
          {"shard", std::to_string(index_)},
          {"reason", std::string(reason)},
          {"frames", std::to_string(conn.frames_handled())}});
    tel_closed_->Inc();
    connections_.erase(conn.id());  // destroys conn
    owner_.active_conns_.fetch_sub(1, std::memory_order_relaxed);
    tel_active_->Set(static_cast<double>(connections_.size()));
    if (draining_) ReportIfEmpty();
  }

  void ObserveLatency(OsdOp op, SimTime start, SimTime end) {
    double us = static_cast<double>(end - start) / 1e3;
    switch (op) {
      case OsdOp::kRead: Observe(tel_lat_read_, us); break;
      case OsdOp::kWrite: Observe(tel_lat_write_, us); break;
      default: Observe(tel_lat_other_, us); break;
    }
  }

  void ReportIfEmpty() {
    if (!connections_.empty() || reported_empty_) return;
    reported_empty_ = true;
    owner_.OnWorkerEmpty();
  }

  friend class ShardedServer;

  ShardedServer& owner_;
  size_t index_;
  std::mutex mu_;  ///< the stack lock: held for every target_.Execute
  OsdTarget& target_;
  MetricRegistry* registry_;
  PersistenceManager* persist_;
  EventLoop loop_;
  FrameMetaPool pool_;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  bool draining_ = false;
  bool reported_empty_ = false;

  /// Serving counters: in the attached registry, else in own_counters_.
  MetricRegistry own_counters_;
  Counter* tel_accepted_ = nullptr;
  Counter* tel_closed_ = nullptr;
  Counter* tel_rejected_ = nullptr;  ///< counted on shard 0 (the acceptor)
  Counter* tel_requests_ = nullptr;
  Counter* tel_responses_ = nullptr;
  Counter* tel_bytes_in_ = nullptr;
  Counter* tel_bytes_out_ = nullptr;
  Counter* tel_frame_errors_ = nullptr;
  Counter* tel_crc_errors_ = nullptr;
  Counter* tel_decode_errors_ = nullptr;
  Counter* tel_admin_requests_ = nullptr;
  Counter* tel_admin_errors_ = nullptr;
  Counter* tel_forwarded_ = nullptr;
  Counter* tel_forward_executed_ = nullptr;
  Gauge* tel_active_ = nullptr;
  ShardedHistogram* tel_lat_read_ = nullptr;
  ShardedHistogram* tel_lat_write_ = nullptr;
  ShardedHistogram* tel_lat_other_ = nullptr;
};

// --- ShardedServer ----------------------------------------------------------

ShardedServer::ShardedServer(std::span<const ServedShard> shards,
                             ShardedServerConfig config)
    : config_(std::move(config)), router_(shards.size()) {
  REO_CHECK(!shards.empty() && shards.size() <= kMaxShards);
  workers_.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    const ServedShard& s = shards[i];
    workers_.push_back(std::make_unique<ShardWorker>(*this, i, s));
    if (s.registry == nullptr) every_shard_registry_ = false;
    if (s.cluster != nullptr) cluster_dirs_.push_back(s.cluster);
  }
}

ShardedServer::~ShardedServer() {
  if (listen_fd_ >= 0) close(listen_fd_);
}

SimTime ShardedServer::NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<SimTime>(ts.tv_sec) * kNsPerSec +
         static_cast<SimTime>(ts.tv_nsec);
}

Status ShardedServer::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status{ErrorCode::kInternal,
                  std::string("socket: ") + std::strerror(errno)};
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status{ErrorCode::kInvalidArgument,
                  "bad bind address " + config_.bind_address};
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status{ErrorCode::kUnavailable,
                  std::string("bind: ") + std::strerror(errno)};
  }
  if (listen(listen_fd_, kListenBacklog) != 0) {
    return Status{ErrorCode::kInternal,
                  std::string("listen: ") + std::strerror(errno)};
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status{ErrorCode::kInternal,
                  std::string("getsockname: ") + std::strerror(errno)};
  }
  port_ = ntohs(addr.sin_port);
  return Status::Ok();
}

void ShardedServer::AttachTracing(Tracer& tracer) {
  REO_CHECK(workers_.size() == 1);
  tracer_ = &tracer;
  trace_root_ = &tracer.RecorderFor(TraceComponent::kTransport);
}

EventLoop& ShardedServer::main_loop() { return workers_[0]->loop(); }

void ShardedServer::Run() {
  REO_CHECK(listen_fd_ >= 0);  // Listen() first
  started_ns_ = NowNs();
  WatchListener();
  // Latch drain requests (RequestDrain may fire from a signal handler:
  // it only sets the flag and wakes the loop) via a cheap poll timer.
  main_loop().AddTimer(kDrainPollMs, [this] { PollDrain(); });
  if (series_ != nullptr) {
    series_->Advance(started_ns_);  // pin the ring's epoch to serving start
    RollSeries();
  }
  threads_.reserve(workers_.size() - 1);
  for (size_t k = 1; k < workers_.size(); ++k) {
    threads_.emplace_back([worker = workers_[k].get()] {
      worker->loop().Run();
    });
  }
  main_loop().Run();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void ShardedServer::RollSeries() {
  // Re-armed one-shot, like PollDrain: close due windows at the ring's
  // own cadence so SERIES answers stay fresh even with no pollers.
  uint64_t ms = series_->window_ns() / 1'000'000;
  if (ms == 0) ms = 1;
  main_loop().AddTimer(ms, [this] {
    series_->Advance(NowNs());
    if (!main_loop().stopped()) RollSeries();
  });
}

void ShardedServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  main_loop().Wake();
}

void ShardedServer::PollDrain() {
  if (drain_requested_.load(std::memory_order_relaxed)) {
    BeginDrain();
    return;
  }
  if (!main_loop().stopped()) {
    main_loop().AddTimer(kDrainPollMs, [this] { PollDrain(); });
  }
}

void ShardedServer::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
  Emit(events_, NowNs(), EventSeverity::kInfo, "server.drain",
       "graceful shutdown requested",
       {{"active", std::to_string(active_conns_.load())},
        {"shards", std::to_string(workers_.size())}});
  // Stop accepting: close the listening socket outright so clients see
  // connection-refused instead of a hung handshake.
  if (listen_fd_ >= 0) {
    main_loop().Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Phase 1 fan-out. Per-loop FIFO ordering guarantees every adoption
  // posted earlier is processed before its BeginDrain.
  for (auto& w : workers_) {
    ShardWorker* worker = w.get();
    worker->loop().Post([worker] { worker->BeginDrain(); });
  }
  main_loop().AddTimer(kDrainTimeoutMs, [this] {
    if (active_conns_.load(std::memory_order_relaxed) == 0) return;
    Emit(events_, NowNs(), EventSeverity::kWarn, "server.drain_timeout",
         "force-closing connections past the drain deadline",
         {{"remaining", std::to_string(active_conns_.load())}});
    for (auto& w : workers_) {
      ShardWorker* worker = w.get();
      worker->loop().Post([worker] { worker->ForceCloseAll(); });
    }
  });
}

void ShardedServer::OnWorkerEmpty() {
  // Called from worker loop threads; the LAST shard to empty releases
  // phase 2. No shard's map can refill: accepting stopped before the
  // phase-1 fan-out. A connection on any shard may execute on any
  // shard's stack until it closes, so the hooks wait until every map is
  // empty: from then on no loop can dirty a stack a hook checkpoints.
  if (empty_workers_.fetch_add(1, std::memory_order_acq_rel) + 1 !=
      workers_.size()) {
    return;
  }
  Emit(events_, NowNs(), EventSeverity::kInfo, "server.drained",
       "all shards drained; checkpointing and stopping");
  for (auto& w : workers_) {
    ShardWorker* worker = w.get();
    worker->loop().Post([worker] { worker->FinishDrain(); });
  }
}

void ShardedServer::WatchListener() {
  if (listen_fd_ < 0) return;  // drain closed it during an accept pause
  Status st = main_loop().Add(listen_fd_, EPOLLIN, [this](uint32_t) {
    OnAcceptReady();
  });
  REO_CHECK(st.ok());
}

void ShardedServer::PauseAccepting(int error) {
  // The refused connection stays queued, so the level-triggered listener
  // would stay readable and spin the loop. Stop watching it for a fixed
  // pause; served connections keep running and may free descriptors.
  main_loop().Remove(listen_fd_);
  Emit(events_, NowNs(), EventSeverity::kWarn, "server.accept_paused",
       "accept failed for lack of resources; pausing the listener",
       {{"error", std::strerror(error)},
        {"pause_ms", std::to_string(kAcceptPauseMs)}});
  main_loop().AddTimer(kAcceptPauseMs, [this] { WatchListener(); });
}

void ShardedServer::OnAcceptReady() {
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    int fd = accept4(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        PauseAccepting(errno);
      }
      return;  // EAGAIN, or a transient error (ECONNABORTED...): next wake
    }
    if (active_conns_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      workers_[0]->tel_rejected_->Inc();
      Emit(events_, NowNs(), EventSeverity::kWarn, "server.reject",
           "connection refused at max_connections",
           {{"peer", PeerName(addr)},
            {"max", std::to_string(config_.max_connections)}});
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_conn_id_++;
    active_conns_.fetch_add(1, std::memory_order_relaxed);
    size_t shard = next_shard_rr_++ % workers_.size();
    ShardWorker* worker = workers_[shard].get();
    worker->loop().Post([worker, fd, id, peer = PeerName(addr)] {
      worker->Adopt(fd, id, peer);
    });
  }
}

OsdResponse ShardedServer::Execute(size_t home_index, const OsdCommand& cmd) {
  REO_CHECK(home_index < workers_.size());
  ShardWorker& home = *workers_[home_index];
  ShardRoute route = router_.RouteOf(cmd);
  if (!route.fan_out) return home.ExecuteOn(*workers_[route.shard], cmd);
  size_t n = workers_.size();
  if (n == 1) return home.ExecuteOn(home, cmd);
  // Fan-out: one shard lock at a time, never two, so fan-outs from
  // different threads cannot deadlock. A loop runs one frame at a time,
  // so the connection's later frames wait for the merged answer.
  std::vector<OsdResponse> parts;
  parts.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    OsdCommand part = cmd;  // fan-out commands carry no bulk payload
    if (part.op == OsdOp::kFormat) {
      // FORMAT capacity is the whole logical unit; each shard owns an
      // even slice, mirroring the boot-time capacity partitioning.
      part.capacity_bytes = cmd.capacity_bytes / n;
    }
    parts.push_back(home.ExecuteOn(*workers_[k], part));
  }
  return MergeFanOutResponses(parts);
}

MetricSnapshot ShardedServer::MergedStats() const {
  // Every shard lock, in index order (Execute never holds two), so no
  // command is half counted in the merge.
  std::vector<const MetricRegistry*> regs;
  std::vector<std::unique_lock<std::mutex>> held;
  for (const auto& w : workers_) {
    held.emplace_back(w->mu_);
    regs.push_back(w->registry_);
  }
  return MetricRegistry::Merged(regs);
}

ShardedServerStats ShardedServer::stats() const {
  ShardedServerStats out;
  for (const auto& w : workers_) {
    out.accepted += w->tel_accepted_->value();
    out.closed += w->tel_closed_->value();
    out.rejected += w->tel_rejected_->value();
    out.requests += w->tel_requests_->value();
    out.responses += w->tel_responses_->value();
    out.bytes_in += w->tel_bytes_in_->value();
    out.bytes_out += w->tel_bytes_out_->value();
    out.frame_errors += w->tel_frame_errors_->value();
    out.crc_errors += w->tel_crc_errors_->value();
    out.decode_errors += w->tel_decode_errors_->value();
    out.admin_requests += w->tel_admin_requests_->value();
    out.admin_errors += w->tel_admin_errors_->value();
    out.forwarded += w->tel_forwarded_->value();
    out.forward_executed += w->tel_forward_executed_->value();
  }
  return out;
}

std::string ShardedServer::HealthJson(const ShardWorker& home) const {
  ShardedServerStats sum = stats();
  const char* status =
      draining_.load(std::memory_order_relaxed) ? "draining"
      : (sum.crc_errors + sum.frame_errors + sum.decode_errors > 0)
          ? "degraded"
          : "ok";
  std::string out = "{\"schema\":\"reo.health.v1\",\"status\":\"";
  out += status;
  out += "\",\"uptime_ms\":";
  out += JsonNum(started_ns_ ? static_cast<double>(NowNs() - started_ns_) / 1e6
                             : 0.0);
  out += ",\"port\":" + std::to_string(port_);
  if (!cluster_dirs_.empty() && cluster_dirs_[0] != nullptr) {
    out += ",\"node_id\":" + std::to_string(cluster_dirs_[0]->local_node());
  }
  out += ",\"shard\":" + std::to_string(home.index());
  out += ",\"shards\":" + std::to_string(workers_.size());
  out += ",\"connections\":" +
         std::to_string(active_conns_.load(std::memory_order_relaxed));
  out += ",\"accepted\":" + std::to_string(sum.accepted);
  out += ",\"requests\":" + std::to_string(sum.requests);
  out += ",\"responses\":" + std::to_string(sum.responses);
  out += ",\"forwarded\":" + std::to_string(sum.forwarded);
  out += ",\"forward_executed\":" + std::to_string(sum.forward_executed);
  out += ",\"crc_errors\":" + std::to_string(sum.crc_errors);
  out += ",\"frame_errors\":" + std::to_string(sum.frame_errors);
  out += ",\"decode_errors\":" + std::to_string(sum.decode_errors);
  out += ",\"admin_requests\":" + std::to_string(sum.admin_requests);
  out += ",\"admin_errors\":" + std::to_string(sum.admin_errors);
  out += "}";
  return out;
}

FramePayload ShardedServer::HandleAdminFrame(
    ShardWorker& home, Connection& conn, std::span<const uint8_t> payload) {
  home.tel_admin_requests_->Inc();
  AdminResponse out;
  auto cmd = DecodeAdminCommand(payload);
  if (!cmd.ok()) {
    out.status = 1;
    out.json = "{\"error\":" +
               JsonString(std::string(cmd.status().message())) + "}";
    Emit(events_, NowNs(), EventSeverity::kWarn, "server.admin_error",
         "malformed admin request",
         {{"peer", conn.peer()},
          {"error", std::string(cmd.status().message())}});
  } else {
    switch (cmd->op) {
      case AdminOp::kStats:
        if (!every_shard_registry_) {
          out.status = 1;
          out.json = "{\"error\":\"no metric registry attached\"}";
        } else if (cmd->arg == 0) {
          out.json = MergedStats().ToJson();
        } else if (cmd->arg <= workers_.size()) {
          out.json = workers_[cmd->arg - 1]->registry_->Snapshot().ToJson();
        } else {
          out.status = 1;
          out.json = "{\"error\":\"shard " + std::to_string(cmd->arg - 1) +
                     " out of range (shards=" +
                     std::to_string(workers_.size()) + ")\"}";
        }
        break;
      case AdminOp::kSeries:
        if (series_ != nullptr) {
          series_->Advance(NowNs());  // thread-safe: internal mutex
          out.json = series_->ToJson(cmd->arg);
        } else {
          out.status = 1;
          out.json = "{\"error\":\"no time-series ring attached\"}";
        }
        break;
      case AdminOp::kEvents:
        out.json = events_ != nullptr
                       ? events_->ToJson(cmd->arg)
                       : "{\"schema\":\"reo.events.v1\",\"dropped\":0,"
                         "\"events\":[]}";
        break;
      case AdminOp::kHealth:
        out.json = HealthJson(home);
        break;
      case AdminOp::kOwners:
        if (!cluster_dirs_.empty()) {
          out.json = ClusterDirectory::MergedJson(cluster_dirs_);
        } else {
          out.status = 1;
          out.json = "{\"error\":\"no cluster directory attached\"}";
        }
        break;
    }
  }
  if (out.status != 0) {
    home.tel_admin_errors_->Inc();
  }
  return FramePayload{EncodeAdminResponse(out), {}, {}};
}

}  // namespace reo
