// One append-only file, as the data log and the journal both keep one:
// numbered file names, open-for-append, a full write that retries on
// EINTR, fsync-if-dirty, close.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/status.h"

namespace reo {

/// kUnavailable with "<what>: <strerror(errno)>".
Status Errno(const std::string& what);

/// "<prefix>NNNNNN<suffix>" file names: seg-000007.dat, wal-000042.log.
struct NumberedName {
  const char* prefix;
  const char* suffix;

  /// "<dir>/<prefix>%06u<suffix>".
  std::string Path(const std::string& dir, uint32_t n) const;
  /// The number in a bare file name, or nullopt when `name` is not one.
  std::optional<uint32_t> Parse(const std::string& name) const;
};

inline constexpr NumberedName kSegmentName{"seg-", ".dat"};
inline constexpr NumberedName kWalName{"wal-", ".log"};

class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { Close(); }

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens (creating if absent) `path`; size() starts at its length.
  Status Open(std::string path);
  /// Appends all of `bytes` (to the page cache until Sync).
  Status Write(std::span<const uint8_t> bytes);
  /// fsyncs when dirty(): anything written since the last sync.
  Status Sync();
  void Close();

  bool is_open() const { return fd_ >= 0; }
  bool dirty() const { return dirty_; }
  uint64_t size() const { return size_; }

 private:
  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
  bool dirty_ = false;
};

}  // namespace reo
