#include "server/frame_queue.h"

#include "common/crc32c.h"

namespace reo {

FrameMetaPool::~FrameMetaPool() {
  while (free_ != nullptr) {
    FrameMeta* next = free_->next;
    delete free_;
    free_ = next;
  }
}

FrameMeta* FrameMetaPool::Get() {
  if (free_ != nullptr) {
    FrameMeta* meta = free_;
    free_ = meta->next;
    meta->next = nullptr;
    ++reused_;
    return meta;
  }
  ++allocated_;
  return new FrameMeta();
}

void FrameMetaPool::Put(FrameMeta* meta) {
  meta->next = free_;
  free_ = meta;
}

void FrameQueue::Push(FramePayload parts) {
  FrameMeta* meta = pool_->Get();
  size_t payload_bytes = parts.size();
  EncodeFrameHeader(meta->bytes, payload_bytes);
  // Seeded continuation: CRC over head‖body‖tail without concatenating.
  uint32_t crc = Crc32c(parts.head);
  crc = Crc32c(parts.body, crc);
  crc = Crc32c(parts.tail, crc);
  EncodeFrameTrailerFromCrc(meta->bytes + kFrameHeaderBytes, crc);
  size_t framed = FramedSize(payload_bytes);
  pending_bytes_ += framed;
  ++frames_pushed_;
  frames_.push_back(Entry{meta, std::move(parts), framed});
}

size_t FrameQueue::Gather(struct iovec* iov, size_t max) const {
  size_t n = 0;
  size_t skip = head_written_;
  for (const Entry& e : frames_) {
    if (n >= max) break;
    // Each frame is up to five spans on the wire: header, the payload's
    // head/body/tail parts, trailer. Empty parts are skipped.
    const struct {
      const uint8_t* base;
      size_t len;
    } parts[5] = {
        {e.meta->bytes, kFrameHeaderBytes},
        {e.parts.head.data(), e.parts.head.size()},
        {e.parts.body.data(), e.parts.body.size()},
        {e.parts.tail.data(), e.parts.tail.size()},
        {e.meta->bytes + kFrameHeaderBytes, kFrameTrailerBytes},
    };
    for (const auto& part : parts) {
      if (part.len == 0) continue;
      if (skip >= part.len) {
        skip -= part.len;
        continue;
      }
      if (n >= max) return n;
      iov[n].iov_base = const_cast<uint8_t*>(part.base) + skip;
      iov[n].iov_len = part.len - skip;
      skip = 0;
      ++n;
    }
  }
  return n;
}

void FrameQueue::Consume(size_t n) {
  pending_bytes_ -= n;
  head_written_ += n;
  while (!frames_.empty()) {
    size_t framed = frames_.front().framed_size;
    if (head_written_ < framed) break;
    head_written_ -= framed;
    pool_->Put(frames_.front().meta);
    frames_.pop_front();
  }
}

void FrameQueue::Clear() {
  for (Entry& e : frames_) pool_->Put(e.meta);
  frames_.clear();
  head_written_ = 0;
  pending_bytes_ = 0;
}

}  // namespace reo
