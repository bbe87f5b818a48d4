#include "persist/journal.h"

#include <unistd.h>

#include <filesystem>

#include "common/file_util.h"

namespace reo {

WalJournal::~WalJournal() { Close(); }

std::string WalJournal::FilePath(const std::string& dir, uint32_t seq) {
  return kWalName.Path(dir, seq);
}

Status WalJournal::Open(const std::string& dir, uint32_t seq) {
  dir_ = dir;
  active_seq_ = seq;
  return file_.Open(FilePath(dir_, active_seq_));
}

Status WalJournal::Append(std::span<const uint8_t> body) {
  if (!file_.is_open()) {
    return Status(ErrorCode::kUnavailable, "journal closed");
  }
  size_t before = pending_.size();
  AppendWalFrame(pending_, body);
  ++stats_.records;
  stats_.bytes += pending_.size() - before;
  return Status::Ok();
}

Status WalJournal::FlushPending() {
  if (pending_.empty()) return Status::Ok();
  REO_RETURN_IF_ERROR(file_.Write(pending_));
  ++stats_.batch_writes;
  pending_.clear();
  return Status::Ok();
}

Status WalJournal::Sync() {
  REO_RETURN_IF_ERROR(FlushPending());
  if (!file_.dirty()) return Status::Ok();
  REO_RETURN_IF_ERROR(file_.Sync());
  ++stats_.fsyncs;
  return Status::Ok();
}

Status WalJournal::Rotate(uint32_t new_seq) {
  REO_CHECK(new_seq > active_seq_);
  REO_RETURN_IF_ERROR(Sync());
  Close();
  uint32_t old_seq = active_seq_;
  active_seq_ = new_seq;
  REO_RETURN_IF_ERROR(file_.Open(FilePath(dir_, active_seq_)));
  for (uint32_t seq = 1; seq <= old_seq; ++seq) {
    ::unlink(FilePath(dir_, seq).c_str());
  }
  return Status::Ok();
}

void WalJournal::Reset(uint32_t new_seq) {
  pending_.clear();  // FORMAT: records bound for the wiped file are dropped
  Close();
  for (uint32_t seq = 1; seq <= active_seq_; ++seq) {
    ::unlink(FilePath(dir_, seq).c_str());
  }
  active_seq_ = new_seq;
  Status st = file_.Open(FilePath(dir_, active_seq_));
  REO_CHECK(st.ok());
}

Status WalJournal::ReplayFile(
    const std::string& dir, uint32_t seq,
    const std::function<Status(const WalRecord&)>& fn) {
  const std::string path = FilePath(dir, seq);
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  std::span<const uint8_t> stream(
      reinterpret_cast<const uint8_t*>(contents->data()), contents->size());
  size_t pos = 0;
  while (true) {
    WalFrameScan scan = ScanWalFrame(stream.subspan(pos));
    switch (scan.state) {
      case WalFrameScan::State::kEnd:
        return Status::Ok();
      case WalFrameScan::State::kRecord: {
        auto rec = DecodeWalBody(scan.body);
        if (!rec.ok()) {
          // The frame CRC held but the body failed to parse: record-level
          // corruption mid-log. Fail stop rather than guess.
          return Status(ErrorCode::kCorrupted,
                        path + ": " + rec.status().message());
        }
        REO_RETURN_IF_ERROR(fn(*rec));
        pos += scan.consumed;
        break;
      }
      case WalFrameScan::State::kTorn: {
        // Interrupted append: everything before `pos` replayed fine, the
        // bytes after it never committed. Cut them so the next run starts
        // from a clean tail.
        std::error_code ec;
        std::filesystem::resize_file(path, pos, ec);
        if (ec) {
          return Status(ErrorCode::kUnavailable,
                        "truncate " + path + ": " + ec.message());
        }
        ++stats_.torn_tail_truncations;
        return Status::Ok();
      }
      case WalFrameScan::State::kCorrupt:
        return Status(ErrorCode::kCorrupted,
                      path + ": journal damaged mid-log at offset " +
                          std::to_string(pos));
    }
  }
}

void WalJournal::Close() {
  // Best-effort: unsynced records carry no durability promise, but keep
  // the historical "visible after close" behavior for clean shutdowns.
  if (file_.is_open()) (void)FlushPending();
  file_.Close();
}

}  // namespace reo
