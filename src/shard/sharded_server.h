// ShardedServer: the network target, serving N shards over one TCP port.
//
// Exports the OSD wire protocol (osd/transport.h encodings) over TCP. The
// object space is hash-partitioned across N shards (ShardRouter); each
// shard owns a full serving stack — its own OsdTarget and everything
// behind it (data plane, flash array, persistence journal) — plus its own
// epoll EventLoop thread and the connections that loop serves. N = 1 is
// the single-threaded server: one loop on the calling thread and one
// lock it never contends for.
//
// Each shard's stack has a lock, so one thread at a time executes on it.
// The same lock keeps telemetry writers apart: a stack's tracer and the
// metrics its stack writes are touched only under it, and the serving
// counters ("server.*") only by the shard's own loop. Metrics stay
// relaxed atomics, so any other writer still counts exactly.
//   * Shard 0's loop also owns the listening socket and hands each new
//     connection to a shard round-robin (connections are not pinned to
//     the shard of any object — clients multiplex objects of every shard
//     on one pipelined connection).
//   * Whichever loop decoded a frame executes it: it locks the shard
//     that owns the command, executes, unlocks and queues the answer,
//     so a frame for another shard costs one lock and no loop handoff.
//     The connection executes its frames one at a time, so responses
//     leave in request order with no reordering buffer.
//   * Fan-out commands (FORMAT, LIST, partition/collection ops) lock
//     each shard in turn, never two at once, execute that shard's part,
//     and merge the parts (MergeFanOutResponses). Nothing after a fan-out
//     on its connection runs before the merged answer, so a
//     FORMAT-then-WRITE pipeline can never reorder.
//   * The cost: a slow command on shard B (a class-0/1 fsync) stalls
//     every loop that is executing for B, not just B's own loop.
//
// The server takes its shards as one list (ServedShard). Its core needs
// no socket: a server that never called Listen() runs Execute() and
// MergedStats() from any thread, under the same locks as its loops.
//
// The admin plane aggregates: STATS arg 0 answers MergedStats(); arg
// k >= 1 answers shard k-1 alone; SERIES reads the single whole-process
// ring (columns sum per-shard metrics by construction — time_series.h);
// HEALTH sums every shard's counters without locking and names the
// answering connection's home shard.
//
// Graceful drain is two-phase: RequestDrain() (async-signal-safe, call it
// from a SIGTERM handler) closes the listening socket, then phase 1
// drains every connection on every shard (in-flight and already-buffered
// requests complete). A connection homed on shard A may execute on
// shard B until it closes, so only when EVERY shard's connection map is
// empty does phase 2 checkpoint each shard's journal on its own loop
// thread, under its stack lock, and stop the loops. A drain deadline
// force-closes stragglers so shutdown is bounded.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "osd/osd_target.h"
#include "server/connection.h"
#include "server/event_loop.h"
#include "shard/shard_router.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {

class PersistenceManager;
class ShardWorker;

/// One shard's parts. Each must outlive the server, and nothing else may
/// use the target or the journal while the server runs (any thread may
/// execute on them, under the shard's lock).
struct ServedShard {
  OsdTarget* target = nullptr;
  /// Holds the serving counters ("server.*") and answers STATS. Required.
  MetricRegistry* registry = nullptr;
  /// The stack's tracer: the transport root span of every command part
  /// this shard executes opens on it, under the shard's lock, so the
  /// stack's nested spans join it. Null: the shard is not traced.
  Tracer* tracer = nullptr;
  /// This shard's slice of the node's hint space: ADMIN OWNERS answers
  /// the merge of every shard's directory, HEALTH names the node id.
  const ClusterDirectory* cluster = nullptr;
  /// Checkpointed by phase 2 of the drain. Null: an in-memory shard.
  PersistenceManager* persist = nullptr;
};

struct ShardedServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the bound port via port()
  size_t max_connections = 1024;  ///< across all shards
  /// Close connections idle (no complete frame) this long. 0 = never.
  uint64_t idle_timeout_ms = 60'000;
};

/// Whole-process serving counters summed across shards (stats()).
struct ShardedServerStats {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t rejected = 0;       ///< accepts refused at max_connections
  uint64_t requests = 0;       ///< frames decoded into commands
  uint64_t responses = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t frame_errors = 0;   ///< lost framing: bad magic / oversized length
  uint64_t crc_errors = 0;     ///< frame CRC32C mismatches
  uint64_t decode_errors = 0;  ///< framed payloads DecodeCommand rejected
  uint64_t admin_requests = 0; ///< in-band ADMIN frames served
  uint64_t admin_errors = 0;   ///< malformed / unservable ADMIN frames
  /// Frames executed on another shard's stack than their home shard's
  /// (the connection's, or Execute's `home`; a fan-out counts each part
  /// it runs elsewhere): `forwarded` on the home shard, `forward_executed`
  /// on the executing one, in the same call. Invariant: the two are equal
  /// in every MergedStats() and once idle.
  uint64_t forwarded = 0;
  uint64_t forward_executed = 0;
};

class ShardedServer {
 public:
  /// @param shards one entry per shard (shards.size() = shard count).
  ShardedServer(std::span<const ServedShard> shards,
                ShardedServerConfig config = {});
  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Binds and listens; after success port() returns the bound port.
  Status Listen();
  uint16_t port() const { return port_; }

  /// Runs shard 0's loop (and with it the acceptor) on the calling
  /// thread and one thread per further shard; returns once drain
  /// completes everywhere.
  void Run();

  /// Initiates graceful shutdown. Thread- and async-signal-safe.
  void RequestDrain();

  const ShardRouter& router() const { return router_; }

  /// Executes one command as shard `home`'s loop executes a decoded
  /// frame: on the owning shard under its lock, or, fanned out, on every
  /// shard in turn, merged. Each part runs inside a root span on its
  /// executing shard's tracer, from cmd.now to a clock stamp taken under
  /// that shard's lock; `end`, when given, receives the last part's
  /// stamp. Thread-safe; needs neither Listen() nor Run().
  OsdResponse Execute(size_t home, const OsdCommand& cmd,
                      SimTime* end = nullptr);

  /// STATS arg 0: the bucket-level merge of every shard's registry, with
  /// every shard lock held (index order). Thread-safe, like Execute().
  MetricSnapshot MergedStats() const;

  /// Shared structured event sink (EventLog is thread-safe; events from
  /// every shard interleave in emission order): accept/close at
  /// debug, wire corruption and accept pauses at warn, drain milestones
  /// at info.
  void AttachEvents(EventLog& events) { events_ = &events; }

  /// The single whole-process ring ADMIN SERIES answers from; Run()
  /// rolls its windows on a loop timer at the ring's own interval.
  void AttachSeries(TimeSeriesRing& series) { series_ = &series; }

  /// Counters summed across every shard (safe to call after Run()
  /// returns, or concurrently — per-shard counters are relaxed atomics).
  ShardedServerStats stats() const;

 private:
  friend class ShardWorker;

  /// Shard 0's loop: it also runs the acceptor, drain and series timers.
  EventLoop& main_loop();
  void WatchListener();
  void OnAcceptReady();
  void PauseAccepting(int error);
  void PollDrain();
  void BeginDrain();
  /// Worker -> coordinator: this shard's connection map went (and every
  /// subsequent map stays) empty. The last reporter triggers phase 2.
  void OnWorkerEmpty();
  std::string HealthJson(const ShardWorker& home) const;
  FramePayload HandleAdminFrame(ShardWorker& home, Connection& conn,
                                std::span<const uint8_t> payload);
  void RollSeries();
  static SimTime NowNs();

  ShardedServerConfig config_;
  ShardRouter router_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  std::vector<std::thread> threads_;  ///< shards 1..N-1
  int listen_fd_ = -1;         ///< shard 0's loop only (after Listen())
  uint16_t port_ = 0;
  uint64_t next_conn_id_ = 1;  ///< shard 0's loop only
  size_t next_shard_rr_ = 0;   ///< shard 0's loop only
  std::atomic<size_t> active_conns_{0};
  /// Set by RequestDrain() (possibly from a signal handler — lock-free
  /// relaxed atomics are async-signal-safe); latched on shard 0's loop.
  std::atomic<bool> drain_requested_{false};
  std::atomic<size_t> empty_workers_{0};
  std::atomic<bool> draining_{false};  ///< for HEALTH status
  SimTime started_ns_ = 0;  ///< Run() entry stamp, for health uptime

  EventLog* events_ = nullptr;
  TimeSeriesRing* series_ = nullptr;
  std::vector<const ClusterDirectory*> cluster_dirs_;  ///< non-null only
};

}  // namespace reo
