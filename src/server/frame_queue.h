// Pooled, scatter-gather response framing for the socket serving path.
//
// The original output path encoded every response by copying header +
// payload + CRC trailer into one flat byte vector per connection — a full
// extra copy of every payload, plus allocation churn proportional to the
// response rate. Here a frame's 12 bytes of metadata (8-byte header,
// 4-byte CRC trailer) live in a small block recycled through a free list,
// and the payload stays in the buffer the handler produced; the socket
// writer gathers header/payload/trailer spans with one writev-style call.
//
// Threading: the pool and queues are confined to the owning event-loop
// thread, like everything else in the server; nothing here locks.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "server/frame.h"

namespace reo {

/// One recycled frame-metadata block: bytes [0,8) hold the frame header,
/// bytes [8,12) the CRC trailer.
struct FrameMeta {
  uint8_t bytes[kFrameHeaderBytes + kFrameTrailerBytes];
  FrameMeta* next = nullptr;  ///< free-list link while pooled
};

/// Free list of FrameMeta blocks. Get() pops a recycled block (or mints a
/// new one on a cold start); Put() returns it. Shared by every connection
/// of a server, so a burst on one connection seeds the pool for all.
class FrameMetaPool {
 public:
  FrameMetaPool() = default;
  ~FrameMetaPool();

  FrameMetaPool(const FrameMetaPool&) = delete;
  FrameMetaPool& operator=(const FrameMetaPool&) = delete;

  FrameMeta* Get();
  void Put(FrameMeta* meta);

  /// Blocks ever minted with operator new (pool misses).
  uint64_t allocated() const { return allocated_; }
  /// Get() calls served from the free list (pool hits).
  uint64_t reused() const { return reused_; }

 private:
  FrameMeta* free_ = nullptr;
  uint64_t allocated_ = 0;
  uint64_t reused_ = 0;
};

/// One frame payload as up to three owned buffers, shipped scatter-gather
/// without concatenation. On the wire the payload is head‖body‖tail; empty
/// parts are skipped. Splitting lets a response handler move its bulk data
/// buffer into `body` while the small fixed-layout prefix/suffix fields go
/// in `head`/`tail` — no 64 KiB memcpy per read response.
struct FramePayload {
  std::vector<uint8_t> head;
  PayloadBuffer body;  ///< bulk data, moved straight from the cache read
  std::vector<uint8_t> tail;

  size_t size() const { return head.size() + body.size() + tail.size(); }
  bool empty() const { return size() == 0; }
};

/// FIFO of framed responses awaiting the socket. Push() takes ownership of
/// the payload buffer (no copy) and frames it with a pooled metadata
/// block; Gather()/Consume() drive a writev-style partial-write loop.
class FrameQueue {
 public:
  explicit FrameQueue(FrameMetaPool& pool) : pool_(&pool) {}
  ~FrameQueue() { Clear(); }

  FrameQueue(const FrameQueue&) = delete;
  FrameQueue& operator=(const FrameQueue&) = delete;

  /// Frames head‖body‖tail (header + CRC computed here) without joining
  /// the parts, and queues it. The CRC trailer is built by seeded
  /// continuation across the parts, so the receiver sees the frame that
  /// EncodeFrame(head‖body‖tail) would produce.
  void Push(FramePayload parts);

  /// Fills `iov` with up to `max` spans of unsent bytes, starting from the
  /// partial-write position. Returns the entry count (0 when empty).
  size_t Gather(struct iovec* iov, size_t max) const;

  /// Advances past `n` bytes the socket accepted; recycles metadata blocks
  /// of fully written frames.
  void Consume(size_t n);

  /// Drops everything queued and recycles the metadata blocks.
  void Clear();

  bool empty() const { return frames_.empty(); }
  /// Bytes accepted but not yet written to the socket.
  size_t pending_bytes() const { return pending_bytes_; }
  /// Frames pushed over the queue's lifetime.
  uint64_t frames_pushed() const { return frames_pushed_; }

 private:
  struct Entry {
    FrameMeta* meta;
    FramePayload parts;
    size_t framed_size;  ///< FramedSize(parts.size()), precomputed
  };

  std::deque<Entry> frames_;
  size_t head_written_ = 0;  ///< bytes of the head frame already written
  size_t pending_bytes_ = 0;
  uint64_t frames_pushed_ = 0;
  FrameMetaPool* pool_;
};

}  // namespace reo
