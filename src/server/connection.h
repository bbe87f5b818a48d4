// One accepted TCP connection: non-blocking socket IO, incremental frame
// reassembly, pipelined request execution, and a bounded write queue with
// read backpressure.
//
// Lifecycle: the server's shard loop owns the Connection; the
// Connection registers itself with the EventLoop and calls back into its
// ConnectionHost for every decoded frame. All entry points run on the
// loop thread. Frames execute one at a time, in arrival order, and each
// answer is queued before the next frame is decoded, so responses leave
// in request order without any reordering buffer. Close is single-shot:
// the connection reports its reason to the host exactly once, and the
// host destroys it (no member may be touched after OnClose fires).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "server/event_loop.h"
#include "server/frame.h"
#include "server/frame_queue.h"

namespace reo {

class Connection;

/// Server-side callbacks a Connection drives. OnClose hands ownership
/// back: the host is expected to destroy the connection.
class ConnectionHost {
 public:
  virtual ~ConnectionHost() = default;

  /// A complete, CRC-verified frame arrived; executes it and returns the
  /// response payload to ship back as scatter-gather parts (all-empty =
  /// no response). `payload` views the connection's reassembly buffer in
  /// place (no copy) and is only valid for the duration of the call —
  /// decode it, don't retain it.
  virtual FramePayload OnFrame(Connection& conn,
                               std::span<const uint8_t> payload) = 0;

  /// The stream produced a corrupt frame (CRC mismatch) or lost framing
  /// (bad magic / oversized length). The connection closes right after;
  /// this hook exists so the corruption is counted and logged, never
  /// silently swallowed.
  virtual void OnCorruptFrame(Connection& conn, FrameStatus status) = 0;

  /// Raw byte accounting (called per successful read/write batch).
  virtual void OnBytes(uint64_t bytes_in, uint64_t bytes_out) = 0;

  /// Terminal notification; the host destroys `conn`.
  virtual void OnClose(Connection& conn, std::string_view reason) = 0;
};

class Connection {
 public:
  /// Takes ownership of `fd` (nonblocking). Registers with `loop`.
  /// The connection closes once idle (no complete frame) for
  /// `idle_timeout_ms`; 0 = never. `pool` recycles frame-metadata blocks
  /// across the host's connections; it must outlive the connection.
  Connection(int fd, uint64_t id, EventLoop& loop, ConnectionHost& host,
             uint64_t idle_timeout_ms, std::string peer, FrameMetaPool& pool);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  uint64_t id() const { return id_; }
  const std::string& peer() const { return peer_; }
  int fd() const { return fd_; }

  /// Bytes of response data accepted but not yet written to the socket.
  size_t pending_write_bytes() const { return out_.pending_bytes(); }

  /// Frames decoded and executed on this connection.
  uint64_t frames_handled() const { return frames_handled_; }

  /// Enters drain mode: one final read pass (requests already sent by
  /// the peer count as in-flight), then stop reading, finish executing
  /// every buffered frame, flush the responses, and close ("drained").
  /// Idempotent.
  void BeginDrain();

  bool draining() const { return draining_; }

 private:
  void OnReady(uint32_t events);
  /// Reads until EAGAIN / EOF / backpressure; returns false on fatal error.
  bool DoRead();
  /// Executes buffered frames until backpressure or exhaustion.
  bool ProcessFrames();
  /// Writes pending bytes until EAGAIN; returns false on fatal error.
  bool DoWrite();
  void UpdateInterest();
  /// Schedules the idle check `delay_ms` from now. When it fires, the
  /// connection closes if no frame arrived for idle_timeout_ms, else the
  /// check re-arms for the time left.
  void ArmIdleTimer(uint64_t delay_ms);
  /// Records the close reason (first wins) and schedules teardown.
  void Fail(std::string_view reason);
  /// Final step of every event: reports close to the host (which deletes
  /// `this`) if a reason was recorded. Nothing may run after it.
  void FinishEvent();

  int fd_;
  uint64_t id_;
  EventLoop& loop_;
  ConnectionHost& host_;
  const uint64_t idle_timeout_ms_;
  std::string peer_;

  FrameDecoder decoder_;
  FrameQueue out_;  ///< framed responses: pooled metadata + moved payloads
  uint32_t interest_ = 0;
  bool draining_ = false;
  bool closing_ = false;
  std::string close_reason_;
  uint64_t frames_handled_ = 0;
  TimerId idle_timer_ = 0;
  uint64_t last_frame_ms_ = 0;  ///< loop clock at the last complete frame
};

}  // namespace reo
