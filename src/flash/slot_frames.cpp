#include "flash/slot_frames.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <new>

namespace reo {
namespace {

size_t RoundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }

uint8_t* MapOrThrow(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<uint8_t*>(p);
}

}  // namespace

void SlotFrames::MapExtent(size_t frame_bytes) {
  const size_t bytes =
      RoundUp(std::max(frame_bytes, kHugeExtentBytes), kHugeExtentBytes);
  // Over-map by one huge page and trim both ends, so the extent starts on
  // a 2 MiB boundary and every 2 MiB of it can be one huge page.
  uint8_t* raw = MapOrThrow(bytes + kHugeExtentBytes);
  const auto start = reinterpret_cast<uintptr_t>(raw);
  const size_t head = RoundUp(start, kHugeExtentBytes) - start;
  if (head > 0) munmap(raw, head);
  uint8_t* base = raw + head;
  munmap(base + bytes, kHugeExtentBytes - head);
  (void)madvise(base, bytes, MADV_HUGEPAGE);  // refused: small pages
  ASAN_POISON_MEMORY_REGION(base, bytes);
  extents_.push_back({base, bytes});
  mapped_bytes_ += bytes;
  cursor_ = base;
  left_ = bytes;
}

uint8_t* SlotFrames::Take(size_t bytes) {
  const size_t frame_bytes = FrameBytes(bytes);
  uint8_t* frame;
  auto it = free_.find(frame_bytes);
  if (it != free_.end() && !it->second.empty()) {
    frame = it->second.back();
    it->second.pop_back();
  } else {
    // The newest extent's tail, when too short for this frame, stays
    // unused: frames are never split or merged.
    if (left_ < frame_bytes) MapExtent(frame_bytes);
    frame = cursor_;
    cursor_ += frame_bytes;
    left_ -= frame_bytes;
  }
  ASAN_UNPOISON_MEMORY_REGION(frame, bytes);
  return frame;
}

void SlotFrames::Give(uint8_t* frame, size_t bytes) {
  const size_t frame_bytes = FrameBytes(bytes);
  ASAN_POISON_MEMORY_REGION(frame, frame_bytes);
  free_[frame_bytes].push_back(frame);
}

void SlotFrames::Release() {
  for (const Extent& e : extents_) {
    // Clear the shadow first: a later mapping at this address is not ours.
    ASAN_UNPOISON_MEMORY_REGION(e.base, e.bytes);
    munmap(e.base, e.bytes);
  }
  extents_.clear();
  free_.clear();
  cursor_ = nullptr;
  left_ = 0;
  mapped_bytes_ = 0;
}

}  // namespace reo
