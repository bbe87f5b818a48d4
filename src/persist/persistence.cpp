#include "persist/persistence.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>

#include "common/crc32c.h"
#include "common/file_util.h"
#include "common/recovery_order.h"
#include "telemetry/metric_registry.h"
#include "trace/event_log.h"

namespace reo {
namespace {

namespace fs = std::filesystem;

constexpr char kCheckpointFile[] = "CHECKPOINT";

/// Parses "wal-000042.log" / "seg-000007.dat" style names.
std::optional<uint32_t> ParseNumbered(const std::string& name,
                                      const char* prefix, const char* suffix) {
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

/// Decoded checkpoint image.
struct CheckpointImage {
  uint64_t next_lsn = 1;
  uint32_t wal_start = 1;   ///< replay journal files at or above this seq
  uint32_t data_segment = 0;  ///< data log's active segment when written
  double h_hot = 0.0;
  std::vector<PersistedObject> objects;
};

std::string EncodeCheckpoint(const CheckpointImage& img) {
  ByteWriter body;
  body.U64(img.next_lsn);
  body.U32(img.wal_start);
  body.U32(img.data_segment);
  body.F64(img.h_hot);
  body.U64(img.objects.size());
  for (const PersistedObject& o : img.objects) {
    body.U64(o.id.pid);
    body.U64(o.id.oid);
    body.U64(o.logical_size);
    body.U64(o.lsn);
    body.U8(o.class_id);
    body.U8(o.dirty ? 1 : 0);
    body.F64(o.hotness);
    body.U32(o.loc.segment);
    body.U64(o.loc.offset);
    body.U32(o.loc.payload_len);
    body.U32(o.loc.payload_crc);
  }
  ByteWriter head;
  head.U32(kCheckpointMagic);
  head.U32(kCheckpointFormatVersion);
  head.U32(Crc32c(body.bytes()));
  std::vector<uint8_t> out = head.Take();
  out.insert(out.end(), body.bytes().begin(), body.bytes().end());
  return std::string(reinterpret_cast<const char*>(out.data()), out.size());
}

Result<CheckpointImage> DecodeCheckpoint(std::string_view raw) {
  auto bytes = std::span(reinterpret_cast<const uint8_t*>(raw.data()),
                         raw.size());
  if (bytes.size() < 12) {
    return Status(ErrorCode::kCorrupted, "checkpoint truncated");
  }
  ByteReader head(bytes.first(12));
  if (head.U32() != kCheckpointMagic) {
    return Status(ErrorCode::kCorrupted, "checkpoint magic mismatch");
  }
  if (head.U32() != kCheckpointFormatVersion) {
    return Status(ErrorCode::kCorrupted, "checkpoint version mismatch");
  }
  uint32_t crc = head.U32();
  auto body = bytes.subspan(12);
  if (crc != Crc32c(body)) {
    return Status(ErrorCode::kCorrupted, "checkpoint CRC mismatch");
  }
  ByteReader r(body);
  CheckpointImage img;
  img.next_lsn = r.U64();
  img.wal_start = r.U32();
  img.data_segment = r.U32();
  img.h_hot = r.F64();
  uint64_t count = r.U64();
  if (count > body.size()) {  // each entry is > 1 byte; cheap sanity bound
    return Status(ErrorCode::kCorrupted, "checkpoint object count implausible");
  }
  img.objects.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PersistedObject o;
    o.id.pid = r.U64();
    o.id.oid = r.U64();
    o.logical_size = r.U64();
    o.lsn = r.U64();
    o.class_id = r.U8();
    o.dirty = r.U8() != 0;
    o.hotness = r.F64();
    o.loc.segment = r.U32();
    o.loc.offset = r.U64();
    o.loc.payload_len = r.U32();
    o.loc.payload_crc = r.U32();
    img.objects.push_back(o);
  }
  if (!r.ok()) {
    return Status(ErrorCode::kCorrupted, "checkpoint body truncated");
  }
  return img;
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

PersistenceManager::PersistenceManager(PersistenceConfig config)
    : config_(std::move(config)) {}

PersistenceManager::~PersistenceManager() {
  // Best effort: push buffered group-commit bytes out on clean destruction.
  (void)SyncNow();
}

std::string PersistenceManager::CheckpointPath() const {
  return config_.data_dir + "/" + kCheckpointFile;
}

Result<std::unique_ptr<PersistenceManager>> PersistenceManager::Open(
    const PersistenceConfig& config) {
  if (!config.enabled()) {
    return Status(ErrorCode::kInvalidArgument, "persistence data_dir empty");
  }
  std::error_code ec;
  fs::create_directories(config.data_dir, ec);
  if (ec) {
    return Status(ErrorCode::kUnavailable,
                  "create " + config.data_dir + ": " + ec.message());
  }
  auto mgr = std::unique_ptr<PersistenceManager>(
      new PersistenceManager(config));
  REO_RETURN_IF_ERROR(mgr->Recover());
  return mgr;
}

Status PersistenceManager::Recover() {
  const uint64_t t0 = NowMicros();

  // 1. Checkpoint image (absence = fresh start; damage = fail stop).
  uint32_t wal_start = 1;
  uint32_t checkpoint_segment = 0;
  auto raw = ReadFileToString(CheckpointPath());
  if (raw.ok()) {
    auto img = DecodeCheckpoint(*raw);
    if (!img.ok()) {
      // Name the file: the operator's next move is to inspect or move it.
      return Status{img.status().code(),
                    CheckpointPath() + ": " +
                        std::string(img.status().message())};
    }
    replay_stats_.checkpoint_loaded = true;
    replay_stats_.checkpoint_objects = img->objects.size();
    next_lsn_ = img->next_lsn;
    wal_start = img->wal_start;
    checkpoint_segment = img->data_segment;
    h_hot_ = img->h_hot;
    for (const PersistedObject& o : img->objects) IndexPut(o, false);
  } else if (raw.status().code() != ErrorCode::kNotFound) {
    return raw.status();
  }

  // 2. Scan the directory once for journal files and data segments.
  std::set<uint32_t> wal_seqs;
  std::set<uint32_t> seg_files;
  for (const auto& entry : fs::directory_iterator(config_.data_dir)) {
    const std::string name = entry.path().filename().string();
    if (auto seq = ParseNumbered(name, "wal-", ".log")) wal_seqs.insert(*seq);
    if (auto seg = ParseNumbered(name, "seg-", ".dat")) seg_files.insert(*seg);
  }

  // 3. Replay journal files at or above the checkpoint's start sequence,
  //    ascending. Files below it are pre-checkpoint leftovers (a crash
  //    between checkpoint write and WAL rotation) — safe to discard.
  uint32_t max_wal = wal_start;
  for (uint32_t seq : wal_seqs) {
    if (seq < wal_start) {
      ::unlink(WalJournal::FilePath(config_.data_dir, seq).c_str());
      continue;
    }
    max_wal = std::max(max_wal, seq);
    uint64_t torn_before = journal_.stats().torn_tail_truncations;
    Status st = journal_.ReplayFile(
        config_.data_dir, seq, [&](const WalRecord& rec) -> Status {
          ++replay_stats_.journal_records;
          switch (rec.type) {
            case WalRecordType::kPut: {
              PersistedObject o{rec.id,  rec.class_id, rec.dirty,
                                rec.logical_size, rec.lsn, rec.hotness,
                                rec.loc};
              auto it = index_.find(rec.id);
              if (it != index_.end()) o.hotness = it->second.hotness;
              IndexPut(o, false);
              next_lsn_ = std::max(next_lsn_, rec.lsn + 1);
              break;
            }
            case WalRecordType::kState: {
              auto it = index_.find(rec.id);
              if (it == index_.end()) break;  // duplicate-tolerant
              if (rec.class_id != kKeepClass) {
                it->second.class_id = rec.class_id;
                it->second.dirty = rec.dirty;
              }
              if (rec.has_hotness) it->second.hotness = rec.hotness;
              break;
            }
            case WalRecordType::kEvict: {
              auto it = index_.find(rec.id);
              if (it != index_.end()) {
                live_bytes_ -= it->second.loc.payload_len;
                index_.erase(it);
              }
              break;
            }
            case WalRecordType::kClassifier:
              h_hot_ = rec.hotness;
              break;
          }
          return Status::Ok();
        });
    if (!st.ok()) return st;
    if (journal_.stats().torn_tail_truncations != torn_before &&
        seq != *wal_seqs.rbegin()) {
      // A torn tail is only explicable in the newest file; an older file
      // ending mid-record means records that later files build on are gone.
      return Status(ErrorCode::kCorrupted,
                    WalJournal::FilePath(config_.data_dir, seq) +
                        ": torn mid-sequence journal file");
    }
  }

  // 4. Verify every index entry against its data segment file; drop
  //    entries whose bytes cannot exist (journaled but the data write
  //    never reached the disk before the crash — unacknowledged by
  //    construction, since acks follow the data fsync).
  std::map<uint32_t, uint64_t> max_end;  // segment -> highest record end
  uint32_t max_segment = checkpoint_segment;
  for (auto it = index_.begin(); it != index_.end();) {
    const DataLocation& loc = it->second.loc;
    struct stat st {};
    bool ok = ::stat(DataLog::PathFor(config_.data_dir, loc.segment).c_str(),
                     &st) == 0 &&
              static_cast<uint64_t>(st.st_size) >= loc.record_end();
    if (!ok) {
      ++replay_stats_.invalid_locations;
      live_bytes_ -= loc.payload_len;
      it = index_.erase(it);
      continue;
    }
    uint64_t& end = max_end[loc.segment];
    end = std::max(end, loc.record_end());
    max_segment = std::max(max_segment, loc.segment);
    ++it;
  }

  // 5. Open the data log on a fresh segment past everything on disk, seed
  //    live-record accounting, cut garbage tails, unlink dead segments.
  if (!seg_files.empty()) {
    max_segment = std::max(max_segment, *seg_files.rbegin());
  }
  REO_RETURN_IF_ERROR(
      data_log_.Open(config_.data_dir, config_.segment_bytes, max_segment + 1));
  for (const auto& [id, obj] : index_) data_log_.NoteLive(obj.loc.segment);
  for (uint32_t seg : seg_files) {
    auto it = max_end.find(seg);
    if (it == max_end.end()) {
      ::unlink(data_log_.SegmentPath(seg).c_str());
      ++replay_stats_.gc_segments;
    } else {
      REO_RETURN_IF_ERROR(data_log_.TruncateSegment(seg, it->second));
    }
  }

  // 6. Continue journaling into the newest WAL file (its torn tail, if
  //    any, was truncated during replay, so appends extend good records).
  REO_RETURN_IF_ERROR(journal_.Open(config_.data_dir, max_wal));

  for (const auto& [id, obj] : index_) {
    if (obj.class_id < 4) ++replay_stats_.objects_per_class[obj.class_id];
  }
  replay_stats_.torn_tail_truncations =
      journal_.stats().torn_tail_truncations + data_log_.stats().tail_truncations;
  replay_stats_.duration_us = NowMicros() - t0;

  // Baseline the component stats: recovery-time activity lives in
  // replay_stats_, runtime counters start from zero.
  data_base_ = data_log_.stats();
  journal_base_ = journal_.stats();
  return Status::Ok();
}

void PersistenceManager::IndexPut(const PersistedObject& obj,
                                  bool account_segments) {
  auto it = index_.find(obj.id);
  if (it != index_.end()) {
    live_bytes_ -= it->second.loc.payload_len;
    if (account_segments) data_log_.Release(it->second.loc.segment);
    it->second = obj;
  } else {
    index_.emplace(obj.id, obj);
  }
  live_bytes_ += obj.loc.payload_len;
}

Status PersistenceManager::Journal(const WalRecord& rec) {
  return journal_.Append(EncodeWalBody(rec));
}

Status PersistenceManager::SyncNow() {
  if (faults_ && faults_->enabled(FaultSite::kPersistFsync) &&
      faults_->Roll(FaultSite::kPersistFsync).fire) {
    // The batch stays pending: the next sync retries the whole window.
    return {ErrorCode::kIoError, "injected fsync failure"};
  }
  REO_RETURN_IF_ERROR(data_log_.Sync());  // data before the journal that
  REO_RETURN_IF_ERROR(journal_.Sync());   // points at it
  unsynced_records_ = 0;
  unsynced_bytes_ = 0;
  return Status::Ok();
}

Status PersistenceManager::MaybeBatchSync(bool critical) {
  if ((critical && config_.sync_critical) ||
      unsynced_records_ >= config_.fsync_batch_records ||
      unsynced_bytes_ >= config_.fsync_batch_bytes) {
    return SyncNow();
  }
  return Status::Ok();
}

Status PersistenceManager::MaybeCheckpoint(SimTime now) {
  if (records_since_checkpoint_ < config_.checkpoint_interval_records) {
    return Status::Ok();
  }
  return Checkpoint(now);
}

Status PersistenceManager::CommitWrite(ObjectId id, uint8_t class_id,
                                       uint64_t logical_size,
                                       std::span<const uint8_t> payload,
                                       SimTime now) {
  if (replaying_) return Status::Ok();
  if (faults_ && faults_->enabled(FaultSite::kPersistWrite) &&
      faults_->Roll(FaultSite::kPersistWrite, /*device=*/-1, now).fire) {
    ++commit_errors_;
    MirrorMetrics();
    return {ErrorCode::kIoError, "injected short write"};
  }
  const bool dirty = class_id == 1;
  const uint64_t lsn = next_lsn_++;
  auto loc = data_log_.Append(id, class_id, dirty, logical_size, lsn, payload);
  if (!loc.ok()) {
    ++commit_errors_;
    MirrorMetrics();
    return loc.status();
  }
  WalRecord rec;
  rec.type = WalRecordType::kPut;
  rec.id = id;
  rec.logical_size = logical_size;
  rec.lsn = lsn;
  rec.class_id = class_id;
  rec.dirty = dirty;
  rec.loc = *loc;
  auto it = index_.find(id);
  rec.hotness = it != index_.end() ? it->second.hotness : 0.0;
  Status st = Journal(rec);
  if (!st.ok()) {
    ++commit_errors_;
    data_log_.Release(loc->segment);
    MirrorMetrics();
    return st;
  }
  PersistedObject obj{id,  class_id, dirty, logical_size,
                      lsn, rec.hotness, *loc};
  IndexPut(obj, true);
  ++unsynced_records_;
  unsynced_bytes_ += kDataRecordHeaderBytes + payload.size();
  ++records_since_checkpoint_;
  st = MaybeBatchSync(class_id <= 1);
  if (!st.ok()) {
    ++commit_errors_;
    MirrorMetrics();
    return st;
  }
  st = MaybeCheckpoint(now);
  MirrorMetrics();
  return st;
}

Status PersistenceManager::CommitState(ObjectId id, uint8_t class_id,
                                       std::optional<double> hotness,
                                       SimTime now) {
  if (replaying_) return Status::Ok();
  auto it = index_.find(id);
  if (it == index_.end()) return Status::Ok();
  WalRecord rec;
  rec.type = WalRecordType::kState;
  rec.id = id;
  rec.class_id = class_id;
  rec.dirty = class_id == 1;
  rec.has_hotness = hotness.has_value();
  rec.hotness = hotness.value_or(0.0);
  REO_RETURN_IF_ERROR(Journal(rec));
  it->second.class_id = class_id;
  it->second.dirty = rec.dirty;
  if (hotness) it->second.hotness = *hotness;
  ++unsynced_records_;
  ++records_since_checkpoint_;
  REO_RETURN_IF_ERROR(MaybeBatchSync(class_id <= 1));
  Status st = MaybeCheckpoint(now);
  MirrorMetrics();
  return st;
}

Status PersistenceManager::NoteHotness(ObjectId id, double hotness) {
  if (replaying_) return Status::Ok();
  auto it = index_.find(id);
  if (it == index_.end()) return Status::Ok();
  WalRecord rec;
  rec.type = WalRecordType::kState;
  rec.id = id;
  rec.class_id = kKeepClass;
  rec.dirty = it->second.dirty;
  rec.has_hotness = true;
  rec.hotness = hotness;
  REO_RETURN_IF_ERROR(Journal(rec));
  it->second.hotness = hotness;
  ++unsynced_records_;
  REO_RETURN_IF_ERROR(MaybeBatchSync(false));
  MirrorMetrics();
  return Status::Ok();
}

Status PersistenceManager::NoteClassifierState(double h_hot) {
  if (replaying_) return Status::Ok();
  WalRecord rec;
  rec.type = WalRecordType::kClassifier;
  rec.hotness = h_hot;
  REO_RETURN_IF_ERROR(Journal(rec));
  h_hot_ = h_hot;
  ++unsynced_records_;
  REO_RETURN_IF_ERROR(MaybeBatchSync(false));
  MirrorMetrics();
  return Status::Ok();
}

Status PersistenceManager::CommitEvict(ObjectId id, SimTime now) {
  if (replaying_) return Status::Ok();
  auto it = index_.find(id);
  if (it == index_.end()) return Status::Ok();
  const bool critical = it->second.class_id <= 1;
  WalRecord rec;
  rec.type = WalRecordType::kEvict;
  rec.id = id;
  REO_RETURN_IF_ERROR(Journal(rec));
  live_bytes_ -= it->second.loc.payload_len;
  data_log_.Release(it->second.loc.segment);
  index_.erase(it);
  ++unsynced_records_;
  ++records_since_checkpoint_;
  REO_RETURN_IF_ERROR(MaybeBatchSync(critical));
  Status st = MaybeCheckpoint(now);
  MirrorMetrics();
  return st;
}

Status PersistenceManager::Checkpoint(SimTime now) {
  REO_RETURN_IF_ERROR(SyncNow());
  CheckpointImage img;
  img.next_lsn = next_lsn_;
  img.wal_start = journal_.active_seq() + 1;
  img.data_segment = data_log_.active_segment();
  img.h_hot = h_hot_;
  img.objects.reserve(index_.size());
  for (const auto& [id, obj] : index_) img.objects.push_back(obj);
  REO_RETURN_IF_ERROR(WriteFileAtomic(CheckpointPath(), EncodeCheckpoint(img)));
  REO_RETURN_IF_ERROR(journal_.Rotate(journal_.active_seq() + 1));
  records_since_checkpoint_ = 0;
  ++checkpoints_;
  MirrorMetrics();
  Emit(events_, now, EventSeverity::kInfo, "persist.checkpoint",
       "checkpoint written",
       {{"objects", std::to_string(index_.size())},
        {"wal_seq", std::to_string(journal_.active_seq())},
        {"live_bytes", std::to_string(live_bytes_)}});
  return Status::Ok();
}

void PersistenceManager::ResetAll() {
  index_.clear();
  live_bytes_ = 0;
  next_lsn_ = 1;
  h_hot_ = 0.0;
  unsynced_records_ = 0;
  unsynced_bytes_ = 0;
  records_since_checkpoint_ = 0;
  ::unlink(CheckpointPath().c_str());
  data_log_.Reset(1);
  journal_.Reset(1);
  MirrorMetrics();
}

std::vector<PersistedObject> PersistenceManager::RestoreOrder() const {
  std::vector<PersistedObject> order;
  order.reserve(index_.size());
  for (const auto& [id, obj] : index_) order.push_back(obj);
  SortRecoveryOrder(order.begin(), order.end(), [](const PersistedObject& o) {
    return RecoveryKey(o.class_id, o.hotness, o.lsn);
  });
  return order;
}

Result<std::vector<uint8_t>> PersistenceManager::ReadPayload(
    const PersistedObject& obj) {
  auto payload = data_log_.ReadPayload(obj.id, obj.lsn, obj.loc);
  if (!payload.ok()) MirrorMetrics();
  return payload;
}

const PersistedObject* PersistenceManager::Find(ObjectId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &it->second;
}

void PersistenceManager::AttachTelemetry(MetricRegistry& registry) {
  m_appends_ = &registry.GetCounter("persist.appends");
  m_bytes_data_ = &registry.GetCounter("persist.bytes_data");
  m_journal_records_ = &registry.GetCounter("persist.journal_records");
  m_bytes_journaled_ = &registry.GetCounter("persist.bytes_journaled");
  m_fsyncs_ = &registry.GetCounter("persist.fsyncs");
  m_checkpoints_ = &registry.GetCounter("persist.checkpoints");
  m_gc_segments_ = &registry.GetCounter("persist.gc_segments");
  m_torn_tails_ = &registry.GetCounter("persist.torn_tail_truncations");
  m_verify_failures_ = &registry.GetCounter("persist.verify_failures");
  m_commit_errors_ = &registry.GetCounter("persist.commit_errors");
  m_live_objects_ = &registry.GetGauge("persist.live_objects");
  m_live_bytes_ = &registry.GetGauge("persist.live_bytes");

  // Replay facts are point-in-time: publish them once, as gauges.
  registry.GetGauge("persist.replay.duration_us")
      .Set(static_cast<double>(replay_stats_.duration_us));
  registry.GetGauge("persist.replay.records")
      .Set(static_cast<double>(replay_stats_.journal_records));
  registry.GetGauge("persist.replay.checkpoint_objects")
      .Set(static_cast<double>(replay_stats_.checkpoint_objects));
  registry.GetGauge("persist.replay.torn_tail_truncations")
      .Set(static_cast<double>(replay_stats_.torn_tail_truncations));
  registry.GetGauge("persist.replay.invalid_locations")
      .Set(static_cast<double>(replay_stats_.invalid_locations));
  registry.GetGauge("persist.replay.gc_segments")
      .Set(static_cast<double>(replay_stats_.gc_segments));
  for (int c = 0; c < 4; ++c) {
    registry.GetGauge("persist.replay.class" + std::to_string(c) + "_objects")
        .Set(static_cast<double>(replay_stats_.objects_per_class[c]));
  }
  MirrorMetrics();
}

void PersistenceManager::MirrorMetrics() {
  if (!m_appends_) return;
  const DataLogStats& d = data_log_.stats();
  const JournalStats& j = journal_.stats();
  Inc(m_appends_, d.appends - data_base_.appends);
  Inc(m_bytes_data_, d.bytes_appended - data_base_.bytes_appended);
  Inc(m_fsyncs_, (d.fsyncs - data_base_.fsyncs) + (j.fsyncs - journal_base_.fsyncs));
  Inc(m_gc_segments_, d.segments_reclaimed - data_base_.segments_reclaimed);
  Inc(m_verify_failures_, d.read_failures - data_base_.read_failures);
  Inc(m_torn_tails_, (d.tail_truncations - data_base_.tail_truncations) +
                         (j.torn_tail_truncations -
                          journal_base_.torn_tail_truncations));
  Inc(m_journal_records_, j.records - journal_base_.records);
  Inc(m_bytes_journaled_, j.bytes - journal_base_.bytes);
  Inc(m_checkpoints_, checkpoints_ - checkpoints_mirrored_);
  Inc(m_commit_errors_, commit_errors_ - commit_errors_mirrored_);
  data_base_ = d;
  journal_base_ = j;
  checkpoints_mirrored_ = checkpoints_;
  commit_errors_mirrored_ = commit_errors_;
  Set(m_live_objects_, static_cast<double>(index_.size()));
  Set(m_live_bytes_, static_cast<double>(live_bytes_));
}

}  // namespace reo
