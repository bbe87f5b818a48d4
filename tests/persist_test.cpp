// Persistence subsystem tests: WAL + data-log + checkpoint round trips,
// torn-tail truncation, segment GC, class-ordered restart restore (read
// off the EventLog timeline), and null-backend parity with the in-memory
// configuration.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "core/data_plane.h"
#include "osd/control_protocol.h"
#include "osd/osd_target.h"
#include "persist/persistence.h"
#include "persist/restore.h"
#include "sim/cache_simulator.h"
#include "telemetry/metric_registry.h"
#include "trace/event_log.h"
#include "workload/medisyn.h"

namespace reo {
namespace {

namespace fs = std::filesystem;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

std::vector<uint8_t> Payload(uint64_t n, size_t bytes) {
  std::vector<uint8_t> data(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<uint8_t>((n * 131 + i * 7) & 0xFF);
  }
  return data;
}

/// Fresh scratch directory per test (removed up front so reruns are clean).
std::string ScratchDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("reo_persist_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::unique_ptr<PersistenceManager> MustOpen(const PersistenceConfig& cfg) {
  auto opened = PersistenceManager::Open(cfg);
  EXPECT_TRUE(opened.ok()) << opened.status().to_string();
  return opened.ok() ? std::move(*opened) : nullptr;
}

/// Appends raw bytes to a file (for torn-tail / corruption injection).
void AppendBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0xFF);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

std::string WalPath(const std::string& dir, uint32_t seq) {
  return WalJournal::FilePath(dir, seq);
}

// --- Journal group-commit batching ------------------------------------------

TEST(JournalTest, BatchOfAppendsIsOneContiguousWrite) {
  std::string dir = ScratchDir("batch");
  fs::create_directories(dir);
  WalJournal j;
  ASSERT_TRUE(j.Open(dir, 1).ok());
  WalRecord rec;
  rec.type = WalRecordType::kEvict;
  constexpr int kRecords = 100;
  for (int i = 0; i < kRecords; ++i) {
    rec.id = Oid(static_cast<uint64_t>(i));
    ASSERT_TRUE(j.Append(EncodeWalBody(rec)).ok());
  }
  // Nothing reaches the file until the group commit...
  EXPECT_EQ(fs::file_size(WalPath(dir, 1)), 0u);
  ASSERT_TRUE(j.Sync().ok());
  // ...which flushes the whole batch with one write and one fsync.
  EXPECT_EQ(j.stats().records, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(j.stats().batch_writes, 1u);
  EXPECT_EQ(j.stats().fsyncs, 1u);
  EXPECT_EQ(fs::file_size(WalPath(dir, 1)), j.stats().bytes);
  // Every record in the batch replays intact and in order.
  uint64_t seen = 0;
  Status st = j.ReplayFile(dir, 1, [&](const WalRecord& r) {
    EXPECT_EQ(r.id, Oid(seen));
    ++seen;
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(seen, static_cast<uint64_t>(kRecords));
}

// --- Round trip ------------------------------------------------------------

TEST(PersistTest, CommitAndRecoverRoundTrip) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("roundtrip");
  {
    auto p = MustOpen(cfg);
    ASSERT_NE(p, nullptr);
    for (uint8_t cls = 0; cls < 4; ++cls) {
      ASSERT_TRUE(
          p->CommitWrite(Oid(cls), cls, 512, Payload(cls, 512), 0).ok());
    }
    ASSERT_TRUE(p->NoteHotness(Oid(2), 7.5).ok());
    ASSERT_TRUE(p->NoteClassifierState(3.25).ok());
    // p's destructor syncs; the bytes are in the page cache regardless.
  }
  auto p = MustOpen(cfg);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->live_objects(), 4u);
  EXPECT_EQ(p->replay_stats().journal_records, 6u);  // 4 puts + 2 notes
  EXPECT_DOUBLE_EQ(p->recovered_h_hot(), 3.25);
  for (uint8_t cls = 0; cls < 4; ++cls) {
    const PersistedObject* obj = p->Find(Oid(cls));
    ASSERT_NE(obj, nullptr) << "class " << int(cls);
    EXPECT_EQ(obj->class_id, cls);
    EXPECT_EQ(obj->dirty, cls == 1);
    EXPECT_EQ(obj->logical_size, 512u);
    auto payload = p->ReadPayload(*obj);
    ASSERT_TRUE(payload.ok()) << payload.status().to_string();
    EXPECT_EQ(*payload, Payload(cls, 512));
    EXPECT_EQ(p->replay_stats().objects_per_class[cls], 1u);
  }
  EXPECT_DOUBLE_EQ(p->Find(Oid(2))->hotness, 7.5);
}

TEST(PersistTest, OverwriteKeepsLatestVersionOnly) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("overwrite");
  {
    auto p = MustOpen(cfg);
    ASSERT_TRUE(p->CommitWrite(Oid(0), 3, 256, Payload(1, 256), 0).ok());
    ASSERT_TRUE(p->CommitWrite(Oid(0), 3, 300, Payload(2, 300), 0).ok());
  }
  auto p = MustOpen(cfg);
  EXPECT_EQ(p->live_objects(), 1u);
  const PersistedObject* obj = p->Find(Oid(0));
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->logical_size, 300u);
  auto payload = p->ReadPayload(*obj);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, Payload(2, 300));
}

// --- Checkpointing ---------------------------------------------------------

TEST(PersistTest, CheckpointCompactsJournal) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("checkpoint");
  {
    auto p = MustOpen(cfg);
    for (uint64_t n = 0; n < 8; ++n) {
      ASSERT_TRUE(p->CommitWrite(Oid(n), 2, 128, Payload(n, 128), 0).ok());
    }
    ASSERT_TRUE(p->Checkpoint(0).ok());
    // Post-checkpoint tail: these are the only records replay should see.
    ASSERT_TRUE(p->CommitWrite(Oid(100), 1, 128, Payload(100, 128), 0).ok());
    ASSERT_TRUE(p->CommitEvict(Oid(0), 0).ok());
    // The checkpoint rotation must have unlinked the pre-checkpoint WAL.
    EXPECT_FALSE(fs::exists(WalPath(cfg.data_dir, 1)));
  }
  auto p = MustOpen(cfg);
  EXPECT_TRUE(p->replay_stats().checkpoint_loaded);
  EXPECT_EQ(p->replay_stats().checkpoint_objects, 8u);
  EXPECT_EQ(p->replay_stats().journal_records, 2u);
  EXPECT_EQ(p->live_objects(), 8u);  // 8 checkpointed - 1 evicted + 1 new
  EXPECT_EQ(p->Find(Oid(0)), nullptr);
  ASSERT_NE(p->Find(Oid(100)), nullptr);
  EXPECT_TRUE(p->Find(Oid(100))->dirty);
}

TEST(PersistTest, ResetAllDropsEverything) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("reset");
  {
    auto p = MustOpen(cfg);
    ASSERT_TRUE(p->CommitWrite(Oid(0), 1, 256, Payload(0, 256), 0).ok());
    ASSERT_TRUE(p->Checkpoint(0).ok());
    p->ResetAll();
    EXPECT_EQ(p->live_objects(), 0u);
  }
  auto p = MustOpen(cfg);
  EXPECT_EQ(p->live_objects(), 0u);
  EXPECT_FALSE(p->replay_stats().checkpoint_loaded);
}

// --- Torn tails and corruption --------------------------------------------

TEST(PersistTest, TornJournalTailIsTruncatedNotFatal) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("torn");
  {
    auto p = MustOpen(cfg);
    for (uint64_t n = 0; n < 4; ++n) {
      ASSERT_TRUE(p->CommitWrite(Oid(n), 1, 128, Payload(n, 128), 0).ok());
    }
  }
  // A crash mid-append leaves garbage past the last full record.
  const std::string wal = WalPath(cfg.data_dir, 1);
  uint64_t intact_size = fs::file_size(wal);
  AppendBytes(wal, std::vector<uint8_t>(37, 0xAB));

  auto p = MustOpen(cfg);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->live_objects(), 4u);
  EXPECT_GE(p->replay_stats().torn_tail_truncations, 1u);
  EXPECT_EQ(fs::file_size(wal), intact_size);  // garbage cut off
}

TEST(PersistTest, MidJournalCorruptionFailStops) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("midcorrupt");
  {
    auto p = MustOpen(cfg);
    for (uint64_t n = 0; n < 6; ++n) {
      ASSERT_TRUE(p->CommitWrite(Oid(n), 1, 128, Payload(n, 128), 0).ok());
    }
  }
  // Damage the FIRST record's body while intact frames follow: that is not
  // a torn tail, and guessing would silently drop committed history.
  FlipByte(WalPath(cfg.data_dir, 1), 16);
  auto opened = PersistenceManager::Open(cfg);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), ErrorCode::kCorrupted);
}

TEST(PersistTest, TornDataSegmentTailDropsOnlyUnverifiableObjects) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("torndata");
  {
    auto p = MustOpen(cfg);
    for (uint64_t n = 0; n < 3; ++n) {
      ASSERT_TRUE(p->CommitWrite(Oid(n), 2, 256, Payload(n, 256), 0).ok());
    }
  }
  // Cut the last object's record short: its journal entry now points past
  // the end of the segment, so recovery must drop exactly that object.
  const std::string seg = cfg.data_dir + "/seg-000001.dat";
  fs::resize_file(seg, fs::file_size(seg) - 100);

  auto p = MustOpen(cfg);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->live_objects(), 2u);
  EXPECT_EQ(p->replay_stats().invalid_locations, 1u);
  EXPECT_EQ(p->Find(Oid(2)), nullptr);
  for (uint64_t n = 0; n < 2; ++n) {
    auto payload = p->ReadPayload(*p->Find(Oid(n)));
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(*payload, Payload(n, 256));
  }
}

// --- Segment GC ------------------------------------------------------------

TEST(PersistTest, EvictionReclaimsFullyDeadSegments) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("gc");
  cfg.segment_bytes = 1024;  // every ~600-byte record seals its own segment
  auto p = MustOpen(cfg);
  for (uint64_t n = 0; n < 3; ++n) {
    ASSERT_TRUE(p->CommitWrite(Oid(n), 2, 600, Payload(n, 600), 0).ok());
  }
  ASSERT_TRUE(fs::exists(cfg.data_dir + "/seg-000001.dat"));
  ASSERT_TRUE(fs::exists(cfg.data_dir + "/seg-000002.dat"));

  // Evicting the only record of a sealed segment unlinks the whole file.
  ASSERT_TRUE(p->CommitEvict(Oid(0), 0).ok());
  EXPECT_FALSE(fs::exists(cfg.data_dir + "/seg-000001.dat"));
  ASSERT_TRUE(p->CommitEvict(Oid(1), 0).ok());
  EXPECT_FALSE(fs::exists(cfg.data_dir + "/seg-000002.dat"));
  EXPECT_EQ(p->live_objects(), 1u);

  // Reopen: the evictions are journaled, nothing is resurrected.
  p.reset();
  p = MustOpen(cfg);
  EXPECT_EQ(p->live_objects(), 1u);
  EXPECT_EQ(p->Find(Oid(0)), nullptr);
  EXPECT_EQ(p->Find(Oid(1)), nullptr);
  EXPECT_NE(p->Find(Oid(2)), nullptr);
}

// --- Reclaim only after durability ------------------------------------------

FaultInjector FailEveryFsync() {
  return FaultInjector(FaultSpec{.rules = {FaultRule{
                                     .site = FaultSite::kPersistFsync,
                                     .probability = 1.0}}});
}

TEST(PersistTest, OverwriteCrashKeepsTheAckedObject) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("overwrite_crash");
  cfg.segment_bytes = 1024;  // every ~650-byte record seals its own segment
  const std::vector<uint8_t> acked = Payload(1, 600);
  const std::vector<uint8_t> overwrite = Payload(2, 600);
  // The child acks X at class 1, seals X's segment, then overwrites X while
  // every fsync fails and exits without running destructors (a crash: the
  // unsynced journal batch never reaches the file).
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    FaultInjector faults = FailEveryFsync();
    auto opened = PersistenceManager::Open(cfg);
    if (!opened.ok()) _exit(2);
    PersistenceManager& p = **opened;
    if (!p.CommitWrite(Oid(0), 1, 600, acked, 0).ok()) _exit(3);
    if (!p.CommitWrite(Oid(1), 1, 600, Payload(3, 600), 0).ok()) _exit(4);
    p.AttachFaults(&faults);
    if (p.CommitWrite(Oid(0), 1, 600, overwrite, 0).ok()) _exit(5);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  auto p = MustOpen(cfg);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->replay_stats().invalid_locations, 0u);
  const PersistedObject* obj = p->Find(Oid(0));
  ASSERT_NE(obj, nullptr) << "acked class-1 object lost";
  auto payload = p->ReadPayload(*obj);
  ASSERT_TRUE(payload.ok()) << payload.status().to_string();
  EXPECT_TRUE(*payload == acked || *payload == overwrite);
}

TEST(PersistTest, SupersededSegmentIsReclaimedByTheNextSync) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("superseded");
  cfg.segment_bytes = 1024;  // one record per segment
  const std::string seg1 = cfg.data_dir + "/seg-000001.dat";
  auto p = MustOpen(cfg);
  ASSERT_TRUE(p->CommitWrite(Oid(0), 3, 600, Payload(0, 600), 0).ok());
  ASSERT_TRUE(p->CommitWrite(Oid(1), 3, 600, Payload(1, 600), 0).ok());
  // A class-3 overwrite group-commits: its predecessor's sealed segment
  // stays until the successor is durable...
  ASSERT_TRUE(p->CommitWrite(Oid(0), 3, 600, Payload(2, 600), 0).ok());
  EXPECT_TRUE(fs::exists(seg1));
  // ...and the next sync (here a class-1 commit) reclaims it.
  ASSERT_TRUE(p->CommitWrite(Oid(2), 1, 64, Payload(3, 64), 0).ok());
  EXPECT_FALSE(fs::exists(seg1));

  // A checkpoint syncs too: the second overwrite's predecessor goes there.
  ASSERT_TRUE(p->CommitWrite(Oid(1), 3, 600, Payload(4, 600), 0).ok());
  EXPECT_TRUE(fs::exists(cfg.data_dir + "/seg-000002.dat"));
  ASSERT_TRUE(p->Checkpoint(0).ok());
  EXPECT_FALSE(fs::exists(cfg.data_dir + "/seg-000002.dat"));

  // Nothing leaks across a restart either.
  p.reset();
  p = MustOpen(cfg);
  EXPECT_EQ(p->live_objects(), 3u);
  EXPECT_EQ(p->replay_stats().gc_segments, 0u);
}

TEST(PersistTest, FailedCriticalSyncCountsAsCommitError) {
  FaultInjector faults = FailEveryFsync();  // outlives the manager
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("commit_errors");
  MetricRegistry registry;
  auto p = MustOpen(cfg);
  p->AttachTelemetry(registry);
  Counter& errors = registry.GetCounter("persist.commit_errors");
  ASSERT_TRUE(p->CommitWrite(Oid(0), 2, 128, Payload(0, 128), 0).ok());
  ASSERT_TRUE(p->CommitWrite(Oid(1), 1, 128, Payload(1, 128), 0).ok());
  p->AttachFaults(&faults);

  // Reclass into the dirty class: a critical record whose sync fails.
  EXPECT_FALSE(p->CommitState(Oid(0), 1, std::nullopt, 0).ok());
  EXPECT_EQ(errors.value(), 1u);
  // Evicting a class-1 object syncs too.
  EXPECT_FALSE(p->CommitEvict(Oid(1), 0).ok());
  EXPECT_EQ(errors.value(), 2u);
  p->AttachFaults(nullptr);
}

// --- On-disk format --------------------------------------------------------

std::string Hex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string Hex(std::string_view raw) {
  return Hex(std::span(reinterpret_cast<const uint8_t*>(raw.data()),
                       raw.size()));
}

TEST(PersistFormatTest, RecordBytesMatchFormatV1) {
  WalRecord put;
  put.type = WalRecordType::kPut;
  put.id = ObjectId{0x1122334455667788, 0x99AABBCCDDEEFF00};
  put.logical_size = 4097;
  put.lsn = 42;
  put.class_id = 1;
  put.dirty = true;
  put.hotness = 2.5;
  put.loc = DataLocation{.segment = 7, .offset = 0x10203, .payload_len = 4160,
                         .payload_crc = 0xDEADBEEF};
  EXPECT_EQ(Hex(EncodeWalBody(put)),
            "01"                                   // type kPut
            "8877665544332211" "00ffeeddccbbaa99"  // pid, oid
            "0110000000000000" "2a00000000000000"  // logical size, LSN
            "01" "01" "0000000000000440"           // class, dirty, hotness
            "07000000" "0302010000000000"          // segment, offset
            "40100000" "efbeadde");                // payload length, CRC

  DataRecordHeader h;
  h.id = put.id;
  h.logical_size = put.logical_size;
  h.lsn = put.lsn;
  h.payload_len = put.loc.payload_len;
  h.payload_crc = put.loc.payload_crc;
  h.class_id = 1;
  h.dirty = true;
  EXPECT_EQ(Hex(EncodeDataRecordHeader(h)),
            "52454f44" "579f9704"                  // magic, header CRC
            "efbeadde" "40100000"                  // payload CRC, length
            "8877665544332211" "00ffeeddccbbaa99"  // pid, oid
            "0110000000000000" "2a00000000000000"  // logical size, LSN
            "01" "01" "0000" "00000000");          // class, dirty, padding

  // A checkpoint of one object: header, image fields, then the entry.
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("golden");
  auto p = MustOpen(cfg);
  ASSERT_TRUE(p->CommitWrite(Oid(5), 2, 100, Payload(5, 128), 0).ok());
  ASSERT_TRUE(p->NoteHotness(Oid(5), 6.25).ok());
  ASSERT_TRUE(p->NoteClassifierState(1.5).ok());
  ASSERT_TRUE(p->Checkpoint(0).ok());
  auto image = ReadFileToString(cfg.data_dir + "/CHECKPOINT");
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(Hex(*image),
            "52454f43" "01000000" "243d1f66"       // magic, version, CRC
            "0200000000000000" "02000000"          // next LSN, WAL start
            "01000000" "000000000000f83f"          // data segment, H_hot
            "0100000000000000"                     // object count
            "0000010000000000" "0500020000000000"  // pid, oid
            "6400000000000000" "0100000000000000"  // logical size, LSN
            "02" "00" "0000000000001940"           // class, dirty, hotness
            "01000000" "0000000000000000"          // segment, offset
            "80000000" "628f47f6");                // payload length, CRC
}

// --- Restore order ---------------------------------------------------------

TEST(PersistTest, RestoreOrderIsClassThenHotnessThenLsn) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("order");
  auto p = MustOpen(cfg);
  // Interleave commits so insertion order is NOT the restore order.
  ASSERT_TRUE(p->CommitWrite(Oid(10), 3, 64, Payload(10, 64), 0).ok());
  ASSERT_TRUE(p->CommitWrite(Oid(11), 2, 64, Payload(11, 64), 0).ok());
  ASSERT_TRUE(p->CommitWrite(Oid(12), 0, 64, Payload(12, 64), 0).ok());
  ASSERT_TRUE(p->CommitWrite(Oid(13), 2, 64, Payload(13, 64), 0).ok());
  ASSERT_TRUE(p->CommitWrite(Oid(14), 1, 64, Payload(14, 64), 0).ok());
  ASSERT_TRUE(p->NoteHotness(Oid(13), 9.0).ok());  // hotter than Oid(11)
  ASSERT_TRUE(p->NoteHotness(Oid(11), 2.0).ok());

  std::vector<PersistedObject> order = p->RestoreOrder();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0].id, Oid(12));  // class 0 first
  EXPECT_EQ(order[1].id, Oid(14));  // then dirty class 1
  EXPECT_EQ(order[2].id, Oid(13));  // class 2, hotter first
  EXPECT_EQ(order[3].id, Oid(11));
  EXPECT_EQ(order[4].id, Oid(10));  // cold class 3 last
}

// --- Full-stack restart restore -------------------------------------------

struct Stack {
  explicit Stack(uint64_t chunk = 4096, uint64_t capacity = 8ull << 20) {
    FlashDeviceConfig dev;
    dev.capacity_bytes = capacity;
    array = std::make_unique<FlashArray>(5, dev);
    stripes = std::make_unique<StripeManager>(
        *array, StripeManagerConfig{.chunk_logical_bytes = chunk,
                                    .scale_shift = 0,
                                    .capacity_limit_bytes = capacity});
    plane = std::make_unique<ReoDataPlane>(
        *stripes, RedundancyPolicy({.mode = ProtectionMode::kReo,
                                    .reo_reserve_fraction = 0.5}));
    target = std::make_unique<OsdTarget>(*plane);
  }

  OsdResponse Format(uint64_t capacity) {
    OsdCommand cmd;
    cmd.op = OsdOp::kFormat;
    cmd.capacity_bytes = capacity;
    return target->Execute(cmd);
  }

  OsdResponse CreateAndClassify(ObjectId id, uint64_t bytes, uint8_t cls) {
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = id;
    create.logical_size = bytes;
    OsdResponse r = target->Execute(create);
    if (!r.ok()) return r;
    OsdCommand ctl;
    ctl.op = OsdOp::kWrite;
    ctl.id = kControlObject;
    ctl.data =
        EncodeControlMessage(SetIdCommand{.target = id, .class_id = cls});
    ctl.logical_size = ctl.data.size();
    return target->Execute(ctl);
  }

  OsdResponse Write(ObjectId id, const std::vector<uint8_t>& payload) {
    OsdCommand cmd;
    cmd.op = OsdOp::kWrite;
    cmd.id = id;
    cmd.logical_size = payload.size();
    cmd.data = payload;
    return target->Execute(cmd);
  }

  OsdResponse Read(ObjectId id) {
    OsdCommand cmd;
    cmd.op = OsdOp::kRead;
    cmd.id = id;
    return target->Execute(cmd);
  }

  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
  std::unique_ptr<ReoDataPlane> plane;
  std::unique_ptr<OsdTarget> target;
};

TEST(PersistRestoreTest, ClassOrderedRestoreTimelineAndPayloads) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("restore_timeline");
  constexpr uint64_t kCapacity = 8ull << 20;
  constexpr size_t kBytes = 4096;

  // Phase 1: serve writes of every class through the real stack.
  {
    Stack stack;
    auto p = MustOpen(cfg);
    stack.plane->AttachPersistence(p.get());
    ASSERT_TRUE(stack.Format(kCapacity).ok());
    // Two objects per class; give the class-2 pair distinct hotness.
    uint64_t n = 0;
    for (uint8_t cls = 0; cls < 4; ++cls) {
      for (int k = 0; k < 2; ++k, ++n) {
        ASSERT_TRUE(stack.CreateAndClassify(Oid(n), kBytes, cls).ok());
        ASSERT_TRUE(stack.Write(Oid(n), Payload(n, kBytes)).ok());
      }
    }
    ASSERT_TRUE(p->NoteHotness(Oid(5), 10.0).ok());  // second class-2 object
    ASSERT_TRUE(p->NoteHotness(Oid(4), 1.0).ok());
    EXPECT_EQ(p->live_objects(), 8u);
  }

  // Phase 2: "restart" — fresh stack, recover, replay in class order.
  Stack stack;
  auto p = MustOpen(cfg);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->live_objects(), 8u);
  EventLog events;
  RestoreReport report =
      RestoreToTarget(*p, *stack.target, kCapacity, /*now=*/0, &events);
  EXPECT_EQ(report.total_restored(), 8u);
  for (int cls = 0; cls < 4; ++cls) {
    EXPECT_EQ(report.restored_per_class[cls], 2u) << "class " << cls;
  }
  EXPECT_EQ(report.dirty_lost, 0u);
  EXPECT_EQ(report.payload_verify_failures, 0u);

  // The EventLog timeline must show classes restored in 0->1->2->3 order,
  // and the hotter class-2 object before the colder one.
  std::vector<int> class_seq;
  std::vector<std::string> restored_ids;
  bool saw_replay = false, saw_restart = false;
  for (const LoggedEvent& ev : events.events()) {
    if (ev.category == "persist.replay") saw_replay = true;
    if (ev.category == "recovery.restart") saw_restart = true;
    if (ev.category == "persist.restore" &&
        ev.severity == EventSeverity::kDebug) {
      class_seq.push_back(std::stoi(std::string(ev.Field("class"))));
      restored_ids.push_back(std::string(ev.Field("id")));
    }
  }
  EXPECT_TRUE(saw_replay);
  EXPECT_TRUE(saw_restart);
  ASSERT_EQ(class_seq.size(), 8u);
  EXPECT_TRUE(std::is_sorted(class_seq.begin(), class_seq.end()))
      << "restore timeline not in class order";
  // Objects 4 and 5 are the class-2 pair; 5 is hotter and must come first.
  EXPECT_EQ(restored_ids[4], Oid(5).ToString());
  EXPECT_EQ(restored_ids[5], Oid(4).ToString());

  // Every restored object must read back its exact pre-crash payload.
  for (uint64_t n = 0; n < 8; ++n) {
    OsdResponse r = stack.Read(Oid(n));
    ASSERT_TRUE(r.ok()) << "object " << n;
    ASSERT_GE(r.data.size(), kBytes);
    const std::vector<uint8_t> want = Payload(n, kBytes);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), r.data.begin()))
        << "object " << n;
  }
}

TEST(PersistRestoreTest, CorruptPayloadIsDroppedNotResurrected) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("restore_drop");
  constexpr uint64_t kCapacity = 8ull << 20;
  {
    Stack stack;
    auto p = MustOpen(cfg);
    stack.plane->AttachPersistence(p.get());
    ASSERT_TRUE(stack.Format(kCapacity).ok());
    for (uint64_t n = 0; n < 3; ++n) {
      ASSERT_TRUE(stack.CreateAndClassify(Oid(n), 4096, 2).ok());
      ASSERT_TRUE(stack.Write(Oid(n), Payload(n, 4096)).ok());
    }
  }
  // Flip one payload byte of the first record (header is 56 bytes).
  FlipByte(cfg.data_dir + "/seg-000001.dat", 100);

  Stack stack;
  auto p = MustOpen(cfg);
  EventLog events;
  RestoreReport report =
      RestoreToTarget(*p, *stack.target, kCapacity, 0, &events);
  EXPECT_EQ(report.total_restored(), 2u);
  EXPECT_EQ(report.payload_verify_failures, 1u);
  // The drop was journaled as an eviction: a second restart must not see
  // the corrupt object again.
  p.reset();
  p = MustOpen(cfg);
  EXPECT_EQ(p->live_objects(), 2u);
}

// --- FORMAT through the target --------------------------------------------

TEST(PersistRestoreTest, FormatThroughTargetResetsDurableState) {
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("format");
  Stack stack;
  auto p = MustOpen(cfg);
  stack.plane->AttachPersistence(p.get());
  ASSERT_TRUE(stack.Format(4ull << 20).ok());
  ASSERT_TRUE(stack.CreateAndClassify(Oid(0), 4096, 1).ok());
  ASSERT_TRUE(stack.Write(Oid(0), Payload(0, 4096)).ok());
  EXPECT_EQ(p->live_objects(), 1u);
  ASSERT_TRUE(stack.Format(4ull << 20).ok());
  EXPECT_EQ(p->live_objects(), 0u);
}

TEST(PersistRestoreTest, SetIdIntoDirtyClassFailsWhenTheJournalSyncFails) {
  FaultInjector faults = FailEveryFsync();  // outlives the manager
  PersistenceConfig cfg;
  cfg.data_dir = ScratchDir("setid_sync");
  Stack stack;
  auto p = MustOpen(cfg);
  stack.plane->AttachPersistence(p.get());
  ASSERT_TRUE(stack.Format(4ull << 20).ok());
  ASSERT_TRUE(stack.CreateAndClassify(Oid(0), 4096, 2).ok());
  ASSERT_TRUE(stack.Write(Oid(0), Payload(0, 4096)).ok());
  p->AttachFaults(&faults);

  // The reclass to class 1 cannot be made durable: a crash would restore
  // the object at class 2, so the SETID must not be acked.
  OsdCommand ctl;
  ctl.op = OsdOp::kWrite;
  ctl.id = kControlObject;
  ctl.data =
      EncodeControlMessage(SetIdCommand{.target = Oid(0), .class_id = 1});
  ctl.logical_size = ctl.data.size();
  OsdResponse resp = stack.target->Execute(ctl);
  EXPECT_NE(resp.sense, SenseCode::kOk);
  p->AttachFaults(nullptr);
}

// --- Null-backend parity ---------------------------------------------------

TEST(PersistParityTest, DisabledPersistenceMatchesInMemoryRun) {
  MediSynConfig wl;
  wl.num_objects = 120;
  wl.mean_object_bytes = 48 * 1024;
  wl.num_requests = 1200;
  wl.write_ratio = 0.3;
  Trace trace = GenerateMediSyn(wl);

  SimulationConfig base;
  base.name = "parity";
  base.cache_fraction = 0.2;
  base.chunk_logical_bytes = 16 * 1024;
  base.scale_shift = 0;

  SimulationConfig with_persist = base;
  with_persist.persistence.data_dir = ScratchDir("parity");
  with_persist.persistence.sync_critical = false;  // speed; batching only

  CacheSimulator plain(trace, base);
  RunReport a = plain.Run();
  CacheSimulator durable(trace, with_persist);
  RunReport b = durable.Run();

  // Durability must be invisible to cache behavior: identical hit/miss
  // stream, identical virtual-time latencies, identical space accounting.
  EXPECT_EQ(a.total.requests, b.total.requests);
  EXPECT_EQ(a.total.hits, b.total.hits);
  EXPECT_EQ(a.total.bytes, b.total.bytes);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(a.space.user_bytes, b.space.user_bytes);
  EXPECT_EQ(a.space.redundancy_bytes, b.space.redundancy_bytes);
  EXPECT_EQ(a.total.latency_us.count(), b.total.latency_us.count());
  EXPECT_DOUBLE_EQ(a.total.AvgLatencyMs(), b.total.AvgLatencyMs());

  // And the durable run really did persist the cache's current contents.
  EXPECT_GT(durable.stack().persist->live_objects(), 0u);
}

}  // namespace
}  // namespace reo
