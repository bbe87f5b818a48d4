#include "server/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace reo {
namespace {

/// Pending response bytes above which the connection stops reading (and
/// stops executing further pipelined frames).
constexpr size_t kWriteHighWatermark = 4u << 20;

/// Hard cap: a peer that will not drain its responses gets closed.
constexpr size_t kWriteHardLimit = 64u << 20;

/// Input-side buffering bound: always admits one maximum-size frame (or
/// the decoder could deadlock below the watermark), plus a read quantum.
constexpr size_t kInputCap = FramedSize(kMaxFramePayload) + 64 * 1024;

/// iovec entries gathered per sendmsg (16 frames' worth of spans).
constexpr size_t kWriteIovBatch = 48;

}  // namespace

Connection::Connection(int fd, uint64_t id, EventLoop& loop,
                       ConnectionHost& host, uint64_t idle_timeout_ms,
                       std::string peer, FrameMetaPool& pool)
    : fd_(fd),
      id_(id),
      loop_(loop),
      host_(host),
      idle_timeout_ms_(idle_timeout_ms),
      peer_(std::move(peer)),
      out_(pool) {
  interest_ = EPOLLIN;
  Status st = loop_.Add(fd_, interest_, [this](uint32_t ev) { OnReady(ev); });
  if (!st.ok()) {
    closing_ = true;
    close_reason_ = st.to_string();
    // Tear down from the loop, not the constructor: the host must finish
    // inserting us into its connection table first.
    loop_.AddTimer(0, [this] { host_.OnClose(*this, close_reason_); });
    return;
  }
  last_frame_ms_ = loop_.now_ms();
  if (idle_timeout_ms_ != 0) ArmIdleTimer(idle_timeout_ms_);
}

Connection::~Connection() {
  if (idle_timer_) loop_.CancelTimer(idle_timer_);
  loop_.Remove(fd_);
  close(fd_);
}

void Connection::ArmIdleTimer(uint64_t delay_ms) {
  idle_timer_ = loop_.AddTimer(delay_ms, [this] {
    idle_timer_ = 0;
    uint64_t idle_ms = loop_.now_ms() - last_frame_ms_;
    if (idle_ms < idle_timeout_ms_) {
      ArmIdleTimer(idle_timeout_ms_ - idle_ms);
      return;
    }
    Fail("idle timeout");
    FinishEvent();
  });
}

void Connection::Fail(std::string_view reason) {
  if (!closing_) {
    closing_ = true;
    close_reason_ = reason;
  }
}

void Connection::FinishEvent() {
  if (closing_) host_.OnClose(*this, close_reason_);  // deletes this
}

void Connection::BeginDrain() {
  if (draining_ || closing_) return;
  // Final read pass: requests the peer already sent (sitting in the
  // kernel receive buffer) are still in-flight and get served; only
  // bytes arriving after this point are refused.
  if (!DoRead()) {
    draining_ = true;
    FinishEvent();
    return;
  }
  draining_ = true;
  if (!ProcessFrames()) {
    FinishEvent();
    return;
  }
  UpdateInterest();
}

void Connection::OnReady(uint32_t events) {
  if (closing_) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    Fail(events & EPOLLERR ? "socket error" : "peer hangup");
    FinishEvent();
    return;
  }
  if ((events & EPOLLIN) && !draining_ && !DoRead()) {
    FinishEvent();
    return;
  }
  // Both readable and writable events land here: Pump executes whatever
  // frames became decodable and flushes whatever became writable.
  if (!ProcessFrames()) {
    FinishEvent();
    return;
  }
  UpdateInterest();
  FinishEvent();
}

bool Connection::DoRead() {
  uint8_t buf[64 * 1024];
  for (;;) {
    if (pending_write_bytes() >= kWriteHighWatermark ||
        decoder_.buffered() >= kInputCap) {
      break;  // backpressure: stop pulling bytes off the socket
    }
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      host_.OnBytes(static_cast<uint64_t>(n), 0);
      decoder_.Feed({buf, static_cast<size_t>(n)});
      if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained the socket
      continue;
    }
    if (n == 0) {
      // Orderly shutdown from the peer: execute and answer what is
      // already buffered, then close (same path as a server drain).
      draining_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    Fail("read error");
    return false;
  }
  return true;
}

bool Connection::ProcessFrames() {
  std::span<const uint8_t> payload;
  for (;;) {
    bool input_exhausted = true;
    if (pending_write_bytes() < kWriteHighWatermark) {
      FrameStatus st = decoder_.NextView(&payload);
      if (st == FrameStatus::kFrame) {
        ++frames_handled_;
        last_frame_ms_ = loop_.now_ms();
        // The handler's buffer is shipped as-is: the queue frames it with
        // a pooled header/trailer block, no payload copy.
        FramePayload response = host_.OnFrame(*this, payload);
        if (!response.empty()) {
          out_.Push(std::move(response));
          if (pending_write_bytes() > kWriteHardLimit) {
            Fail("write queue overflow");
            return false;
          }
        }
        continue;  // keep executing the pipeline
      }
      if (st != FrameStatus::kNeedMore) {
        // Corruption or lost framing: surface it loudly, then drop.
        host_.OnCorruptFrame(*this, st);
        Fail(st == FrameStatus::kCrcMismatch ? "crc mismatch" : "bad framing");
        return false;
      }
    } else {
      input_exhausted = false;  // stopped by backpressure, not input
    }
    if (!DoWrite()) return false;
    if (pending_write_bytes() >= kWriteHighWatermark) {
      return true;  // EPOLLOUT resumes us
    }
    if (input_exhausted) {
      if (draining_ && pending_write_bytes() == 0) {
        Fail("drained");
        return false;
      }
      return true;
    }
    // Backpressure cleared by the flush: loop and execute more frames.
  }
}

bool Connection::DoWrite() {
  while (!out_.empty()) {
    // Scatter-gather flush: header/payload/trailer spans go to the socket
    // in place (one syscall per batch, no flat staging copy).
    struct iovec iov[kWriteIovBatch];
    size_t n_iov = out_.Gather(iov, kWriteIovBatch);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    ssize_t n = sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      host_.OnBytes(0, static_cast<uint64_t>(n));
      out_.Consume(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    Fail("write error");
    return false;
  }
  return true;
}

void Connection::UpdateInterest() {
  uint32_t want = 0;
  if (!draining_ && pending_write_bytes() < kWriteHighWatermark &&
      decoder_.buffered() < kInputCap) {
    want |= EPOLLIN;
  }
  if (pending_write_bytes() > 0) want |= EPOLLOUT;
  if (want == 0) want = EPOLLHUP;  // still detect peer teardown
  if (want != interest_) {
    interest_ = want;
    (void)loop_.Modify(fd_, interest_);
  }
}

}  // namespace reo
