// SocketInitiator: the client end of the real network path.
//
// An OsdSession (osd/osd_session.h) like OsdTransport, so OsdInitiator's
// typed API runs over it unchanged, but it ships the same encoded bytes
// over a TCP socket to a ShardedServer instead of a simulated
// NetworkLink. Blocking IO: the load generator and tests run one
// initiator per closed-loop worker. Send()/Receive() are exposed
// separately so callers can pipeline several commands onto the wire
// before collecting responses (the graceful-drain test depends on it).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "osd/osd_session.h"
#include "osd/transport.h"
#include "server/admin_protocol.h"
#include "server/frame.h"

namespace reo {

/// Wire counters for one socket session: the simulated transport's
/// counters plus the framing-level corruption the real path can see.
struct SocketInitiatorStats : TransportStats {
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t crc_errors = 0;      ///< response frames failing CRC32C
  uint64_t frame_errors = 0;    ///< lost framing (bad magic / oversized)
  uint64_t timeouts = 0;        ///< connect/receive deadline expiries
  uint64_t reconnects = 0;      ///< sessions re-established by Roundtrip
  uint64_t admin_commands = 0;  ///< in-band ADMIN round-trips issued
};

/// Partial-failure posture of one initiator session. The defaults keep the
/// historical behavior (no receive deadline, no automatic reconnect) except
/// that connect() no longer blocks forever on an unresponsive host.
struct SocketInitiatorConfig {
  /// Give up on connect() after this long. 0 = block indefinitely.
  uint32_t connect_timeout_ms = 5000;
  /// Give up on a response after this long (SO_RCVTIMEO). 0 = wait forever.
  uint32_t receive_timeout_ms = 0;
  /// Transparent reconnect+resend attempts in Roundtrip, applied only to
  /// idempotent reads (kRead/kGetAttr/kList*): a write that died mid-flight
  /// may or may not have been applied, so it is never replayed blindly.
  uint32_t max_retries = 0;
  /// Base backoff between reconnect attempts (real sleep, jittered ±50%).
  uint32_t retry_backoff_ms = 50;
  /// Ceiling on any single reconnect sleep, jitter included. Without the
  /// cap the doubling makes deep retry counts sleep for minutes — and N
  /// clients hammering one dead node would synchronize on the overflow
  /// wraparound. 0 disables the cap.
  uint32_t retry_backoff_max_ms = 2000;
  /// Jitter seed, so concurrent workers don't reconnect in lockstep.
  uint64_t seed = 1;
};

/// Sleep before reconnect-retry number `retry` (0-based), in ms:
/// `retry_backoff_ms * 2^retry`, jittered ±50% (retry.h convention),
/// saturating at `retry_backoff_max_ms`. Exposed for the bound tests.
uint32_t ReconnectBackoffMs(const SocketInitiatorConfig& config,
                            uint32_t retry, Pcg32& rng);

/// A TCP port from a flag or a port file: decimal digits only, at most
/// 65535, and one trailing newline (a port file's line end). nullopt
/// for anything else.
std::optional<uint16_t> ParsePort(std::string_view text);

class SocketInitiator final : public OsdSession {
 public:
  SocketInitiator() = default;
  explicit SocketInitiator(const SocketInitiatorConfig& config)
      : config_(config), retry_rng_(config.seed, /*stream=*/0x50c) {}
  ~SocketInitiator() override;

  SocketInitiator(const SocketInitiator&) = delete;
  SocketInitiator& operator=(const SocketInitiator&) = delete;
  SocketInitiator(SocketInitiator&& other) noexcept;
  SocketInitiator& operator=(SocketInitiator&& other) noexcept;

  /// Connects to `host`:`port` (IPv4 dotted quad or "localhost").
  Status Connect(const std::string& host, uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends one command and waits for its response. On any transport
  /// failure returns a response with sense kFail (matching OsdTransport's
  /// contract); the session is closed. With `max_retries` configured,
  /// idempotent reads transparently reconnect and resend first.
  OsdResponse Roundtrip(const OsdCommand& command) override;

  /// Pipelining: ships one command without waiting.
  Status Send(const OsdCommand& command);
  /// Receives the next response frame (blocking).
  Result<OsdResponse> Receive();

  /// Sends one in-band ADMIN command (STATS / SERIES / EVENTS / HEALTH)
  /// and waits for its JSON reply. `arg` scopes SERIES and EVENTS replies
  /// to the newest N windows/events (0 = all retained). Must not be
  /// interleaved with pipelined Send()s still awaiting Receive() — the
  /// wire answers strictly in order.
  Result<AdminResponse> AdminRoundtrip(AdminOp op, uint32_t arg = 0);

  const SocketInitiatorStats& stats() const { return stats_; }

 private:
  /// One gathered sendmsg of header + payload parts + CRC trailer, the CRC
  /// continued across the parts: each part goes out of its own buffer in
  /// place, never copied into a staging vector.
  Status SendFramed(std::initializer_list<std::span<const uint8_t>> parts);

  /// Blocks for the next intact framed payload. The returned view stays
  /// valid until the decoder's next Feed() (i.e. the next receive).
  Result<std::span<const uint8_t>> ReceiveFrame();

  int fd_ = -1;
  SocketInitiatorConfig config_;
  Pcg32 retry_rng_{1, 0x50c};
  std::string host_;    ///< remembered for Roundtrip reconnects
  uint16_t port_ = 0;
  FrameDecoder decoder_;
  SocketInitiatorStats stats_;
};

}  // namespace reo
