#include "persist/data_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "common/crc32c.h"

namespace reo {

std::string DataLog::SegmentPath(uint32_t segment) const {
  return kSegmentName.Path(dir_, segment);
}

Status DataLog::Open(const std::string& dir, uint64_t segment_bytes,
                     uint32_t next_segment) {
  dir_ = dir;
  segment_bytes_ = segment_bytes;
  active_segment_ = next_segment;
  return file_.Open(SegmentPath(active_segment_));
}

Status DataLog::RotateIfNeeded(size_t next_record_bytes) {
  if (file_.size() == 0 ||
      file_.size() + next_record_bytes <= segment_bytes_) {
    return Status::Ok();
  }
  REO_RETURN_IF_ERROR(Sync());
  file_.Close();
  // A sealed segment with no live records (all its writes were already
  // overwritten) can be reclaimed the moment we rotate away from it.
  if (live_records_.find(active_segment_) == live_records_.end()) {
    ::unlink(SegmentPath(active_segment_).c_str());
    ++stats_.segments_reclaimed;
  }
  ++active_segment_;
  return file_.Open(SegmentPath(active_segment_));
}

Result<DataLocation> DataLog::Append(ObjectId id, uint8_t class_id, bool dirty,
                                     uint64_t logical_size, uint64_t lsn,
                                     std::span<const uint8_t> payload) {
  if (!file_.is_open()) {
    return Status(ErrorCode::kUnavailable, "data log closed");
  }
  DataRecordHeader h;
  h.id = id;
  h.logical_size = logical_size;
  h.lsn = lsn;
  h.payload_len = static_cast<uint32_t>(payload.size());
  h.payload_crc = Crc32c(payload);
  h.class_id = class_id;
  h.dirty = dirty;
  std::vector<uint8_t> record = EncodeDataRecordHeader(h);
  record.insert(record.end(), payload.begin(), payload.end());

  REO_RETURN_IF_ERROR(RotateIfNeeded(record.size()));

  DataLocation loc;
  loc.segment = active_segment_;
  loc.offset = file_.size();
  loc.payload_len = h.payload_len;
  loc.payload_crc = h.payload_crc;
  REO_RETURN_IF_ERROR(file_.Write(record));
  ++stats_.appends;
  stats_.bytes_appended += record.size();
  NoteLive(loc.segment);
  return loc;
}

Status DataLog::Sync() {
  if (!file_.dirty()) return Status::Ok();
  REO_RETURN_IF_ERROR(file_.Sync());
  ++stats_.fsyncs;
  return Status::Ok();
}

Result<std::vector<uint8_t>> DataLog::ReadPayload(ObjectId id, uint64_t lsn,
                                                  const DataLocation& loc) {
  const std::string path = SegmentPath(loc.segment);
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    ++stats_.read_failures;
    return Errno("open " + path);
  }
  std::vector<uint8_t> raw(kDataRecordHeaderBytes +
                           static_cast<size_t>(loc.payload_len));
  size_t done = 0;
  while (done < raw.size()) {
    ssize_t n = ::pread(fd, raw.data() + done, raw.size() - done,
                        static_cast<off_t>(loc.offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (done < raw.size()) {
    ++stats_.read_failures;
    return Status(ErrorCode::kCorrupted, "short read in " + path);
  }
  auto header = DecodeDataRecordHeader(raw);
  if (!header.ok()) {
    ++stats_.read_failures;
    return header.status();
  }
  std::span<const uint8_t> payload =
      std::span(raw).subspan(kDataRecordHeaderBytes);
  if (header->id != id || header->lsn != lsn ||
      header->payload_len != loc.payload_len ||
      Crc32c(payload) != header->payload_crc) {
    ++stats_.read_failures;
    return Status(ErrorCode::kCorrupted,
                  "data record identity/CRC mismatch in " + path);
  }
  return std::vector<uint8_t>(payload.begin(), payload.end());
}

void DataLog::NoteLive(uint32_t segment) { ++live_records_[segment]; }

void DataLog::Release(uint32_t segment) {
  auto it = live_records_.find(segment);
  if (it == live_records_.end() || --it->second > 0) return;
  live_records_.erase(it);
  if (segment == active_segment_) return;  // reclaimed at rotation
  ::unlink(SegmentPath(segment).c_str());
  ++stats_.segments_reclaimed;
}

Status DataLog::TruncateSegment(uint32_t segment, uint64_t keep_bytes) {
  const std::string path = SegmentPath(segment);
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return Errno("stat " + path);
  if (static_cast<uint64_t>(st.st_size) <= keep_bytes) return Status::Ok();
  if (::truncate(path.c_str(), static_cast<off_t>(keep_bytes)) != 0) {
    return Errno("truncate " + path);
  }
  ++stats_.tail_truncations;
  return Status::Ok();
}

void DataLog::Reset(uint32_t next_segment) {
  file_.Close();
  for (uint32_t seg = 1; seg <= active_segment_; ++seg) {
    ::unlink(SegmentPath(seg).c_str());
  }
  for (const auto& [seg, count] : live_records_) {
    ::unlink(SegmentPath(seg).c_str());
  }
  live_records_.clear();
  active_segment_ = next_segment;
  Status st = file_.Open(SegmentPath(active_segment_));
  REO_CHECK(st.ok());
}

}  // namespace reo
