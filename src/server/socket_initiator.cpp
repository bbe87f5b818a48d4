#include "server/socket_initiator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "common/flags.h"

namespace reo {
namespace {

/// Most payload parts one frame is gathered from: a command's head, data
/// and tail.
constexpr size_t kMaxPayloadParts = 3;

}  // namespace

SocketInitiator::~SocketInitiator() { Close(); }

SocketInitiator::SocketInitiator(SocketInitiator&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      config_(other.config_),
      retry_rng_(other.retry_rng_),
      host_(std::move(other.host_)),
      port_(other.port_),
      decoder_(std::move(other.decoder_)),
      stats_(other.stats_),
      tel_commands_(other.tel_commands_),
      tel_bytes_sent_(other.tel_bytes_sent_),
      tel_bytes_received_(other.tel_bytes_received_),
      tel_decode_errors_(other.tel_decode_errors_),
      tel_crc_errors_(other.tel_crc_errors_),
      tel_frame_errors_(other.tel_frame_errors_),
      tel_timeouts_(other.tel_timeouts_),
      tel_reconnects_(other.tel_reconnects_) {}

SocketInitiator& SocketInitiator::operator=(SocketInitiator&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    config_ = other.config_;
    retry_rng_ = other.retry_rng_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    decoder_ = std::move(other.decoder_);
    stats_ = other.stats_;
    tel_commands_ = other.tel_commands_;
    tel_bytes_sent_ = other.tel_bytes_sent_;
    tel_bytes_received_ = other.tel_bytes_received_;
    tel_decode_errors_ = other.tel_decode_errors_;
    tel_crc_errors_ = other.tel_crc_errors_;
    tel_frame_errors_ = other.tel_frame_errors_;
    tel_timeouts_ = other.tel_timeouts_;
    tel_reconnects_ = other.tel_reconnects_;
  }
  return *this;
}

void SocketInitiator::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

void SocketInitiator::AttachTelemetry(MetricRegistry& registry) {
  tel_commands_ = &registry.GetCounter("initiator.commands");
  tel_bytes_sent_ = &registry.GetCounter("initiator.bytes_sent");
  tel_bytes_received_ = &registry.GetCounter("initiator.bytes_received");
  tel_decode_errors_ = &registry.GetCounter("initiator.decode_errors");
  tel_crc_errors_ = &registry.GetCounter("initiator.crc_errors");
  tel_frame_errors_ = &registry.GetCounter("initiator.frame_errors");
  tel_timeouts_ = &registry.GetCounter("initiator.timeouts");
  tel_reconnects_ = &registry.GetCounter("initiator.reconnects");
}

Status SocketInitiator::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status{ErrorCode::kInternal,
                  std::string("socket: ") + std::strerror(errno)};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string& ip = host == "localhost" ? std::string("127.0.0.1") : host;
  if (inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status{ErrorCode::kInvalidArgument, "bad host " + host};
  }
  if (config_.connect_timeout_ms > 0) {
    // Bounded connect: non-blocking connect, poll for writability, then
    // restore blocking mode for the data path.
    int flags = fcntl(fd_, F_GETFL, 0);
    (void)fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    int rc = connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd_, POLLOUT, 0};
      int pr = poll(&pfd, 1, static_cast<int>(config_.connect_timeout_ms));
      if (pr == 0) {
        ++stats_.timeouts;
        Inc(tel_timeouts_);
        Close();
        return Status{ErrorCode::kIoError, "connect timed out"};
      }
      int err = pr < 0 ? errno : 0;
      if (pr > 0) {
        socklen_t len = sizeof(err);
        (void)getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      }
      if (err != 0) {
        Status st{ErrorCode::kUnavailable,
                  std::string("connect: ") + std::strerror(err)};
        Close();
        return st;
      }
    } else if (rc != 0) {
      Status st{ErrorCode::kUnavailable,
                std::string("connect: ") + std::strerror(errno)};
      Close();
      return st;
    }
    (void)fcntl(fd_, F_SETFL, flags);
  } else if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
             0) {
    Status st{ErrorCode::kUnavailable,
              std::string("connect: ") + std::strerror(errno)};
    Close();
    return st;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (config_.receive_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = config_.receive_timeout_ms / 1000;
    tv.tv_usec = static_cast<long>(config_.receive_timeout_ms % 1000) * 1000;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  host_ = host;
  port_ = port;
  decoder_ = FrameDecoder();
  return Status::Ok();
}

Status SocketInitiator::SendFramed(
    std::initializer_list<std::span<const uint8_t>> parts) {
  constexpr size_t kMaxIov = 2 + kMaxPayloadParts;
  REO_CHECK(parts.size() <= kMaxPayloadParts);
  uint8_t header[kFrameHeaderBytes];
  uint8_t trailer[kFrameTrailerBytes];
  iovec iov[kMaxIov];
  size_t n_total = 0;
  size_t payload_bytes = 0;
  uint32_t crc = 0;
  iov[n_total++] = {header, sizeof(header)};
  for (std::span<const uint8_t> part : parts) {
    // The CRC continues across the parts: Crc32c(b, Crc32c(a)) ==
    // Crc32c(a‖b), so the trailer matches one contiguous payload.
    crc = Crc32c(part, crc);
    payload_bytes += part.size();
    iov[n_total++] = {const_cast<uint8_t*>(part.data()), part.size()};
  }
  iov[n_total++] = {trailer, sizeof(trailer)};
  EncodeFrameHeader(header, payload_bytes);
  EncodeFrameTrailerFromCrc(trailer, crc);
  size_t total = FramedSize(payload_bytes);
  size_t off = 0;
  size_t first = 0;
  while (off < total) {
    // Advance the iovec window past fully sent entries; resume mid-entry
    // after a partial send.
    size_t skip = off;
    while (skip >= iov[first].iov_len) {
      skip -= iov[first].iov_len;
      ++first;
    }
    iovec window[kMaxIov];
    size_t n_iov = 0;
    for (size_t i = first; i < n_total; ++i, ++n_iov) window[n_iov] = iov[i];
    window[0].iov_base = static_cast<uint8_t*>(window[0].iov_base) + skip;
    window[0].iov_len -= skip;
    msghdr msg{};
    msg.msg_iov = window;
    msg.msg_iovlen = n_iov;
    ssize_t n = sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status{ErrorCode::kUnavailable,
                  std::string("send: ") + std::strerror(errno)};
  }
  stats_.bytes_sent += total;
  Inc(tel_bytes_sent_, total);
  return Status::Ok();
}

Status SocketInitiator::Send(const OsdCommand& command) {
  if (fd_ < 0) return Status{ErrorCode::kUnavailable, "not connected"};
  ++stats_.commands;
  Inc(tel_commands_);
  EncodedCommandParts parts = EncodeCommandParts(command);
  REO_RETURN_IF_ERROR(SendFramed({parts.head, command.data, parts.tail}));
  ++stats_.frames_sent;
  return Status::Ok();
}

Result<std::span<const uint8_t>> SocketInitiator::ReceiveFrame() {
  if (fd_ < 0) return Status{ErrorCode::kUnavailable, "not connected"};
  std::span<const uint8_t> payload;
  for (;;) {
    // The view stays valid until the next Feed(); the response is decoded
    // from it in place below, before any further read.
    FrameStatus st = decoder_.NextView(&payload);
    if (st == FrameStatus::kFrame) break;
    if (st == FrameStatus::kCrcMismatch) {
      ++stats_.crc_errors;
      Inc(tel_crc_errors_);
      Close();
      return Status{ErrorCode::kCorrupted, "response frame failed CRC32C"};
    }
    if (st != FrameStatus::kNeedMore) {
      ++stats_.frame_errors;
      Inc(tel_frame_errors_);
      Close();
      return Status{ErrorCode::kCorrupted, "response stream lost framing"};
    }
    uint8_t buf[64 * 1024];
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      stats_.bytes_received += static_cast<uint64_t>(n);
      Inc(tel_bytes_received_, static_cast<uint64_t>(n));
      decoder_.Feed({buf, static_cast<size_t>(n)});
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO deadline expired: the session state is unknown (a
      // response may still be in flight), so drop the connection.
      ++stats_.timeouts;
      Inc(tel_timeouts_);
      Close();
      return Status{ErrorCode::kIoError, "receive timed out"};
    }
    Close();
    return Status{ErrorCode::kUnavailable,
                  n == 0 ? std::string("server closed the connection")
                         : std::string("recv: ") + std::strerror(errno)};
  }
  ++stats_.frames_received;
  return payload;
}

Result<OsdResponse> SocketInitiator::Receive() {
  auto payload = ReceiveFrame();
  if (!payload.ok()) return payload.status();
  auto resp = DecodeResponse(*payload);
  if (!resp.ok()) {
    ++stats_.decode_errors;
    Inc(tel_decode_errors_);
    Close();
    return resp.status();
  }
  return resp;
}

Result<AdminResponse> SocketInitiator::AdminRoundtrip(AdminOp op,
                                                      uint32_t arg) {
  if (fd_ < 0) return Status{ErrorCode::kUnavailable, "not connected"};
  ++stats_.admin_commands;
  REO_RETURN_IF_ERROR(SendFramed({EncodeAdminCommand(AdminCommand{op, arg})}));
  ++stats_.frames_sent;
  auto payload = ReceiveFrame();
  if (!payload.ok()) return payload.status();
  auto resp = DecodeAdminResponse(*payload);
  if (!resp.ok()) {
    ++stats_.decode_errors;
    Inc(tel_decode_errors_);
    Close();
    return resp.status();
  }
  return resp;
}

uint32_t ReconnectBackoffMs(const SocketInitiatorConfig& config,
                            uint32_t retry, Pcg32& rng) {
  // Cap the exponent before multiplying: 2^retry overflows every integer
  // width long before max_retries runs out, and the wraparound would
  // synchronize the very reconnect storm the jitter exists to spread.
  double base = static_cast<double>(config.retry_backoff_ms) *
                std::pow(2.0, std::min(retry, 30u));
  double jitter = 0.5 + rng.NextDouble();  // [0.5, 1.5)
  double delay = base * jitter;
  double cap = static_cast<double>(config.retry_backoff_max_ms);
  if (cap > 0.0 && delay > cap) delay = cap;
  // Uncapped configs still must not overflow the uint32 (casting an
  // out-of-range double is undefined behavior, not a saturation).
  constexpr double kMax = 4294967295.0;
  if (delay > kMax) delay = kMax;
  return delay > 0.0 ? static_cast<uint32_t>(delay) : 0u;
}

std::optional<uint16_t> ParsePort(std::string_view text) {
  if (text.ends_with('\n')) text.remove_suffix(1);
  std::optional<uint64_t> port = ParseUint(text, 0, UINT16_MAX);
  if (!port) return std::nullopt;
  return static_cast<uint16_t>(*port);
}

OsdResponse SocketInitiator::Roundtrip(const OsdCommand& command) {
  auto attempt = [&]() -> Result<OsdResponse> {
    REO_RETURN_IF_ERROR(Send(command));
    return Receive();
  };
  auto resp = attempt();
  if (!resp.ok() && config_.max_retries > 0 && IdempotentRead(command.op) &&
      !host_.empty()) {
    // The connection died between request and response. For idempotent
    // reads, reconnect (jittered exponential backoff) and resend; a write
    // may have been applied before the cut, so it is never replayed here.
    for (uint32_t r = 0; r < config_.max_retries && !resp.ok(); ++r) {
      uint32_t sleep_ms = ReconnectBackoffMs(config_, r, retry_rng_);
      if (sleep_ms > 0) (void)poll(nullptr, 0, static_cast<int>(sleep_ms));
      if (!Connect(host_, port_).ok()) continue;
      ++stats_.reconnects;
      Inc(tel_reconnects_);
      resp = attempt();
    }
  }
  if (resp.ok()) return std::move(*resp);
  OsdResponse err;
  err.sense = SenseCode::kFail;
  return err;
}

}  // namespace reo
