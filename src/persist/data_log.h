// Segmented append-only data log.
//
// Object payloads land in `seg-NNNNNN.dat` files, one self-verifying
// record per object write (56-byte CRC-guarded header + payload). Segments
// rotate at a size threshold; garbage collection is segment-granular: when
// eviction/overwrite releases the last live record of a sealed segment,
// the whole file is unlinked (the log-structured layout Nemo argues for —
// no per-object in-place files, no random-write cleaning).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "persist/append_file.h"
#include "persist/wire_format.h"

namespace reo {

/// Append/GC counters, mirrored into "persist.*" metrics by the manager.
struct DataLogStats {
  uint64_t appends = 0;
  uint64_t bytes_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t segments_reclaimed = 0;  ///< GC unlinks
  uint64_t tail_truncations = 0;    ///< recovery cut a garbage segment tail
  uint64_t read_failures = 0;       ///< header/CRC mismatch on ReadPayload
};

class DataLog {
 public:
  /// Opens the log rooted at `dir` (already created). `next_segment` seeds
  /// the id of the first segment this process appends to; it must be
  /// greater than every sealed segment referenced by the recovered index.
  Status Open(const std::string& dir, uint64_t segment_bytes,
              uint32_t next_segment);

  /// Appends one record; returns where it landed. The bytes are buffered
  /// in the page cache until Sync().
  Result<DataLocation> Append(ObjectId id, uint8_t class_id, bool dirty,
                              uint64_t logical_size, uint64_t lsn,
                              std::span<const uint8_t> payload);

  /// fsyncs the active segment (no-op when nothing unsynced).
  Status Sync();

  /// Reads and verifies one record: header CRC, identity match against the
  /// index (id + lsn), payload CRC. kCorrupted on any mismatch.
  Result<std::vector<uint8_t>> ReadPayload(ObjectId id, uint64_t lsn,
                                           const DataLocation& loc);

  /// Recovery accounting: registers a live record in `segment`.
  void NoteLive(uint32_t segment);

  /// Drops a record's liveness; unlinks the segment file when it was the
  /// last live record of a sealed (non-active) segment.
  void Release(uint32_t segment);

  /// Truncates sealed `segment`'s file down to `keep_bytes` (recovery:
  /// clears the un-indexed garbage a crash left past the last committed
  /// record). Counts a tail truncation when bytes were actually cut.
  Status TruncateSegment(uint32_t segment, uint64_t keep_bytes);

  /// Unlinks every segment file and resets state (FORMAT path).
  void Reset(uint32_t next_segment);

  const DataLogStats& stats() const { return stats_; }
  uint32_t active_segment() const { return active_segment_; }
  std::string SegmentPath(uint32_t segment) const;

 private:
  Status RotateIfNeeded(size_t next_record_bytes);

  std::string dir_;
  uint64_t segment_bytes_ = 8ull << 20;
  uint32_t active_segment_ = 1;
  AppendFile file_;  ///< the active segment
  std::map<uint32_t, uint64_t> live_records_;  // segment -> live record count
  DataLogStats stats_;
};

}  // namespace reo
