#include "persist/append_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace reo {

Status Errno(const std::string& what) {
  return Status(ErrorCode::kUnavailable, what + ": " + std::strerror(errno));
}

std::string NumberedName::Path(const std::string& dir, uint32_t n) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%06u%s", prefix, n, suffix);
  return dir + "/" + name;
}

std::optional<uint32_t> NumberedName::Parse(const std::string& name) const {
  size_t plen = std::strlen(prefix), slen = std::strlen(suffix);
  if (name.size() != plen + 6 + slen) return std::nullopt;
  if (name.compare(0, plen, prefix) != 0) return std::nullopt;
  if (name.compare(plen + 6, slen, suffix) != 0) return std::nullopt;
  uint32_t v = 0;
  for (size_t i = plen; i < plen + 6; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<uint32_t>(c - '0');
  }
  return v;
}

Status AppendFile::Open(std::string path) {
  path_ = std::move(path);
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) return Errno("open " + path_);
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return Errno("stat " + path_);
  size_ = static_cast<uint64_t>(st.st_size);
  return Status::Ok();
}

Status AppendFile::Write(std::span<const uint8_t> bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("append " + path_);
    }
    done += static_cast<size_t>(n);
  }
  size_ += bytes.size();
  dirty_ = true;
  return Status::Ok();
}

Status AppendFile::Sync() {
  if (!dirty_ || fd_ < 0) return Status::Ok();
  if (::fsync(fd_) != 0) return Errno("fsync " + path_);
  dirty_ = false;
  return Status::Ok();
}

void AppendFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  dirty_ = false;
}

}  // namespace reo
