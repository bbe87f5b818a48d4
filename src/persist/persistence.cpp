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

/// Group-commit byte bound: data-log bytes appended since the last sync.
constexpr uint64_t kFsyncBatchBytes = 1ull << 20;

/// Decoded checkpoint image.
struct CheckpointImage {
  uint64_t next_lsn = 1;
  uint32_t wal_start = 1;   ///< replay journal files at or above this seq
  uint32_t data_segment = 0;  ///< data log's active segment when written
  double h_hot = 0.0;
  std::vector<PersistedObject> objects;
};

std::string EncodeCheckpoint(const CheckpointImage& img) {
  ByteWriter w;
  w.U32(kCheckpointMagic);
  w.U32(kCheckpointFormatVersion);
  w.U32(0);  // body CRC, patched below
  w.U64(img.next_lsn);
  w.U32(img.wal_start);
  w.U32(img.data_segment);
  w.F64(img.h_hot);
  w.U64(img.objects.size());
  for (const PersistedObject& o : img.objects) EncodeObjectEntry(w, o);
  std::string out(w.bytes().begin(), w.bytes().end());
  const uint32_t crc = Crc32c(std::span(w.bytes()).subspan(12));
  std::memcpy(out.data() + 8, &crc, 4);
  return out;
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
    img.objects.push_back(DecodeObjectEntry(r));
  }
  if (!r.ok()) {
    return Status(ErrorCode::kCorrupted, "checkpoint body truncated");
  }
  return img;
}

}  // namespace

uint64_t SteadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

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
  const uint64_t t0 = SteadyMicros();

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
    for (const PersistedObject& o : img->objects) (void)Apply(WalRecord{o});
  } else if (raw.status().code() != ErrorCode::kNotFound) {
    return raw.status();
  }

  // 2. Scan the directory once for journal files and data segments.
  std::set<uint32_t> wal_seqs;
  std::set<uint32_t> seg_files;
  for (const auto& entry : fs::directory_iterator(config_.data_dir)) {
    const std::string name = entry.path().filename().string();
    if (auto seq = kWalName.Parse(name)) wal_seqs.insert(*seq);
    if (auto seg = kSegmentName.Parse(name)) seg_files.insert(*seg);
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
          (void)Apply(rec);  // segment accounting is seeded below
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
    bool ok = ::stat(kSegmentName.Path(config_.data_dir, loc.segment).c_str(),
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
  //    live-record accounting (the one thing replay's Apply leaves out),
  //    cut garbage tails, unlink dead segments.
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
  replay_stats_.duration_us = SteadyMicros() - t0;

  // Baseline the component stats: recovery-time activity lives in
  // replay_stats_, runtime counters start from zero.
  data_base_ = data_log_.stats();
  journal_base_ = journal_.stats();
  return Status::Ok();
}

std::optional<DataLocation> PersistenceManager::Apply(const WalRecord& rec) {
  if (rec.type == WalRecordType::kClassifier) {
    h_hot_ = rec.hotness;
    return std::nullopt;
  }
  auto it = index_.find(rec.id);
  if (rec.type == WalRecordType::kPut) {
    next_lsn_ = std::max(next_lsn_, rec.lsn + 1);
    live_bytes_ += rec.loc.payload_len;
    if (it == index_.end()) {
      index_.emplace(rec.id, rec);
      return std::nullopt;
    }
    const DataLocation dead = it->second.loc;
    const double hotness = it->second.hotness;  // a write keeps its H
    it->second = rec;
    it->second.hotness = hotness;
    live_bytes_ -= dead.payload_len;
    return dead;
  }
  if (it == index_.end()) return std::nullopt;  // duplicate-tolerant
  if (rec.type == WalRecordType::kState) {
    if (rec.class_id != kKeepClass) {
      it->second.class_id = rec.class_id;
      it->second.dirty = rec.dirty;
    }
    if (rec.has_hotness) it->second.hotness = rec.hotness;
    return std::nullopt;
  }
  const DataLocation dead = it->second.loc;  // kEvict
  live_bytes_ -= dead.payload_len;
  index_.erase(it);
  return dead;
}

Status PersistenceManager::Commit(const Result<WalRecord>& built, SimTime now) {
  Status st = built.status();
  if (st.ok()) {
    const WalRecord& rec = *built;
    // Class-0/1 records sync before the ack. An eviction carries the
    // evicted object's class; the notes carry kKeepClass or the default 3.
    const bool critical = rec.class_id <= 1;
    st = journal_.Append(EncodeWalBody(rec));
    if (st.ok()) {
      std::optional<DataLocation> dead = Apply(rec);
      if (dead && rec.type == WalRecordType::kPut) {
        superseded_.push_back(dead->segment);  // released by SyncNow
      } else if (dead) {
        data_log_.Release(dead->segment);  // an eviction has no successor
      }
      ++unsynced_records_;
      if (rec.type == WalRecordType::kPut) {
        unsynced_bytes_ += kDataRecordHeaderBytes + rec.loc.payload_len;
      }
      ++records_since_checkpoint_;
      if ((critical && config_.sync_critical) ||
          unsynced_records_ >= config_.fsync_batch_records ||
          unsynced_bytes_ >= kFsyncBatchBytes) {
        st = SyncNow();
      }
    } else if (rec.type == WalRecordType::kPut) {
      data_log_.Release(rec.loc.segment);  // nothing indexed points at it
    }
  }
  if (st.ok() &&
      records_since_checkpoint_ >= config_.checkpoint_interval_records) {
    st = Checkpoint(now);
  }
  if (!st.ok()) ++commit_errors_;
  MirrorMetrics();
  return st;
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
  for (uint32_t segment : superseded_) data_log_.Release(segment);
  superseded_.clear();
  return Status::Ok();
}

Status PersistenceManager::CommitWrite(ObjectId id, uint8_t class_id,
                                       uint64_t logical_size,
                                       std::span<const uint8_t> payload,
                                       SimTime now) {
  if (replaying_) return Status::Ok();
  if (faults_ && faults_->enabled(FaultSite::kPersistWrite) &&
      faults_->Roll(FaultSite::kPersistWrite, /*device=*/-1, now).fire) {
    return Commit(Status(ErrorCode::kIoError, "injected short write"), now);
  }
  WalRecord rec;
  rec.id = id;
  rec.class_id = class_id;
  rec.dirty = class_id == 1;
  rec.logical_size = logical_size;
  rec.lsn = next_lsn_++;
  const PersistedObject* prior = Find(id);
  rec.hotness = prior != nullptr ? prior->hotness : 0.0;
  auto loc = data_log_.Append(id, class_id, rec.dirty, logical_size, rec.lsn,
                              payload);
  if (!loc.ok()) return Commit(loc.status(), now);
  rec.loc = *loc;
  return Commit(rec, now);
}

Status PersistenceManager::CommitState(ObjectId id, uint8_t class_id,
                                       std::optional<double> hotness,
                                       SimTime now) {
  if (replaying_ || Find(id) == nullptr) return Status::Ok();
  WalRecord rec;
  rec.type = WalRecordType::kState;
  rec.id = id;
  rec.class_id = class_id;
  rec.dirty = class_id == 1;
  rec.has_hotness = hotness.has_value();
  rec.hotness = hotness.value_or(0.0);
  return Commit(rec, now);
}

Status PersistenceManager::NoteHotness(ObjectId id, double hotness) {
  const PersistedObject* obj = Find(id);
  if (replaying_ || obj == nullptr) return Status::Ok();
  WalRecord rec;
  rec.type = WalRecordType::kState;
  rec.id = id;
  rec.class_id = kKeepClass;
  rec.dirty = obj->dirty;
  rec.has_hotness = true;
  rec.hotness = hotness;
  return Commit(rec, /*now=*/0);  // notes carry no time
}

Status PersistenceManager::NoteClassifierState(double h_hot) {
  if (replaying_) return Status::Ok();
  WalRecord rec;
  rec.type = WalRecordType::kClassifier;
  rec.hotness = h_hot;
  return Commit(rec, /*now=*/0);
}

Status PersistenceManager::CommitEvict(ObjectId id, SimTime now) {
  const PersistedObject* obj = Find(id);
  if (replaying_ || obj == nullptr) return Status::Ok();
  WalRecord rec;
  rec.type = WalRecordType::kEvict;
  rec.id = id;
  rec.class_id = obj->class_id;  // decides the sync; a kEvict body is the id
  return Commit(rec, now);
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
  superseded_.clear();
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
