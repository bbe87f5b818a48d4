// Slot payload memory for one FlashDevice: fixed frames carved from
// device-owned extents and recycled, in place of one heap vector per slot.
//
// The model is a unified buffer cache's buffer pool: memory is mapped
// once and its buffers are reused, so a steady write/free cycle touches
// no new pages. A payload lives in a frame of its size rounded up to
// kFrameAlign. A freed frame goes on a LIFO list for its frame size and is
// handed to the next payload of that size, still warm in cache.
//
// Every extent has one shape: a whole number of 2 MiB huge pages
// (kHugeExtentBytes), 2 MiB-aligned, at least one frame long, and advised
// MADV_HUGEPAGE, so the first touch of each 2 MiB faults in one huge page
// instead of 512 small ones. A kernel that refuses the advice keeps small
// pages and loses nothing else.
//
// Extents never move, so a frame's address is stable while it is taken.
// They are held until Release(): a device's payload memory shrinks only on
// Fail/Replace. Frames are never split or merged, and a free frame serves
// only its own frame size. So mapped memory is, summed over frame sizes,
// the peak of that size's live frames; plus, in each extent but the
// newest, the tail left when a frame too long for it opened the next
// extent; plus the newest extent's un-carved rest. Frames of one size
// leave tails shorter than one frame. src writes one chunk size per device
// (StripeManager's chunk_physical_bytes), so there a device maps its peak
// live chunks plus less than one frame per extent plus one extent.
//
// Under AddressSanitizer every byte not inside a taken frame is poisoned,
// so a read through a stale ReadSlot view of a freed slot is reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace reo {

class SlotFrames {
 public:
  static constexpr size_t kHugeExtentBytes = 2 << 20;

  SlotFrames() = default;
  ~SlotFrames() { Release(); }
  SlotFrames(const SlotFrames&) = delete;
  SlotFrames& operator=(const SlotFrames&) = delete;

  /// A frame that holds `bytes` (> 0) payload bytes: the newest freed frame
  /// of that frame size, else a new one carved from the newest extent.
  uint8_t* Take(size_t bytes);

  /// Gives back a frame that Take(`bytes`) returned.
  void Give(uint8_t* frame, size_t bytes);

  /// Unmaps every extent. Every frame handed out is invalid afterwards.
  void Release();

  /// Bytes mapped for frames: taken, free and not yet carved.
  size_t mapped_bytes() const { return mapped_bytes_; }

 private:
  static constexpr size_t kFrameAlign = 64;  ///< one cache line

  struct Extent {
    uint8_t* base;
    size_t bytes;
  };

  static size_t FrameBytes(size_t bytes) {
    return (bytes + kFrameAlign - 1) & ~(kFrameAlign - 1);
  }

  /// Maps a new extent that holds at least one frame of `frame_bytes` and
  /// makes it the one that frames are carved from.
  void MapExtent(size_t frame_bytes);

  std::vector<Extent> extents_;
  uint8_t* cursor_ = nullptr;  ///< first un-carved byte of the newest extent
  size_t left_ = 0;            ///< un-carved bytes from cursor_ on
  size_t mapped_bytes_ = 0;
  /// Free frames by frame size, newest last.
  std::unordered_map<size_t, std::vector<uint8_t*>> free_;
};

}  // namespace reo
