#include "common/file_util.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>
#define REO_HAVE_FSYNC 1
#endif

namespace reo {
namespace {

/// A tmp name unique per process AND per call: two threads (or a fast
/// write-crash-rewrite cycle) must never scribble into the same tmp file,
/// or the rename can publish a half-written image.
std::string TmpPathFor(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  uint64_t seq = counter.fetch_add(1);
#ifdef REO_HAVE_FSYNC
  long pid = static_cast<long>(::getpid());
#else
  long pid = 0;
#endif
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%llu", pid,
                static_cast<unsigned long long>(seq));
  return path + suffix;
}

#ifdef REO_HAVE_FSYNC
/// fsyncs the directory containing `path` so the rename itself is durable;
/// without it a crash can roll the directory entry back to the old file
/// (or to nothing) even though the new bytes were fsynced.
Status SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? std::string(".")
                    : slash == 0               ? std::string("/")
                                               : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status(ErrorCode::kUnavailable,
                  "open dir " + dir + ": " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status(ErrorCode::kUnavailable,
                  "fsync dir " + dir + ": " + std::strerror(errno));
  }
  return Status::Ok();
}
#endif

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = TmpPathFor(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    return Status(ErrorCode::kUnavailable,
                  "open " + tmp + ": " + std::strerror(errno));
  }
  bool write_ok =
      contents.empty() ||
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  if (write_ok && std::fflush(f) != 0) write_ok = false;
#ifdef REO_HAVE_FSYNC
  if (write_ok && fsync(fileno(f)) != 0) write_ok = false;
#endif
  if (std::fclose(f) != 0) write_ok = false;
  if (!write_ok) {
    std::remove(tmp.c_str());
    return Status(ErrorCode::kUnavailable,
                  "write " + tmp + ": " + std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(ErrorCode::kUnavailable,
                  "rename " + tmp + " -> " + path + ": " + std::strerror(errno));
  }
#ifdef REO_HAVE_FSYNC
  REO_RETURN_IF_ERROR(SyncParentDir(path));
#endif
  return Status::Ok();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    return Status(ErrorCode::kNotFound,
                  "open " + path + ": " + std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    return Status(ErrorCode::kCorrupted, "read " + path);
  }
  return out;
}

}  // namespace reo
