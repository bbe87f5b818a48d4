// Write-ahead metadata journal.
//
// Sequence-numbered `wal-NNNNNN.log` files of framed records (see
// wire_format.h). Exactly one file is active for appends; a checkpoint
// rotates to a fresh file and unlinks everything older, so the replay set
// is always "checkpoint image + the WAL files at or above its sequence".
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "persist/append_file.h"
#include "persist/wire_format.h"

namespace reo {

struct JournalStats {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t batch_writes = 0;  ///< write() syscalls; records/batch_writes =
                              ///< group-commit batching factor
  uint64_t torn_tail_truncations = 0;
};

class WalJournal {
 public:
  WalJournal() = default;
  ~WalJournal();

  WalJournal(const WalJournal&) = delete;
  WalJournal& operator=(const WalJournal&) = delete;

  /// Opens (creating if absent) the journal file with sequence `seq` for
  /// appends. Appends land after any records the file already holds.
  Status Open(const std::string& dir, uint32_t seq);

  /// Frames one record body into the in-memory batch. Nothing reaches the
  /// file until Sync() (or Close) flushes the whole batch as one
  /// contiguous write — the group-commit fast path issues a single
  /// write+fsync pair per batch regardless of how many records it holds.
  Status Append(std::span<const uint8_t> body);

  /// Flushes the pending batch as one write, then fsyncs the active file
  /// (no-op when nothing is unsynced).
  Status Sync();

  /// Starts a fresh journal file with sequence `new_seq` and unlinks every
  /// `wal-*.log` with a lower sequence (checkpoint compaction).
  Status Rotate(uint32_t new_seq);

  /// Unlinks every journal file and reopens sequence `new_seq` (FORMAT).
  void Reset(uint32_t new_seq);

  /// Replays one journal file: invokes `fn` for each intact record body in
  /// order. A torn tail is truncated off the file (counted); mid-file
  /// corruption returns kCorrupted without truncating. A missing file is
  /// kNotFound. `fn` returning a non-OK status aborts the replay.
  Status ReplayFile(const std::string& dir, uint32_t seq,
                    const std::function<Status(const WalRecord&)>& fn);

  const JournalStats& stats() const { return stats_; }
  uint32_t active_seq() const { return active_seq_; }
  static std::string FilePath(const std::string& dir, uint32_t seq);

 private:
  Status FlushPending();
  void Close();

  std::string dir_;
  uint32_t active_seq_ = 1;
  AppendFile file_;  ///< the active journal file
  std::vector<uint8_t> pending_;  ///< framed records awaiting one write
  JournalStats stats_;
};

}  // namespace reo
