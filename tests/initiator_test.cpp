// OsdInitiator tests: the typed client API over the target, including the
// control-protocol helpers, against a real ReoDataPlane stack, and what it
// sends over a recording fake session.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backend/backend_store.h"
#include "core/data_plane.h"
#include "osd/osd_initiator.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

struct InitiatorFixture {
  InitiatorFixture() {
    FlashDeviceConfig dev;
    dev.capacity_bytes = 1 << 20;
    array = std::make_unique<FlashArray>(5, dev);
    stripes = std::make_unique<StripeManager>(
        *array,
        StripeManagerConfig{.chunk_logical_bytes = kChunk, .scale_shift = 0});
    plane = std::make_unique<ReoDataPlane>(
        *stripes, RedundancyPolicy({.mode = ProtectionMode::kReo,
                                    .reo_reserve_fraction = 0.3}));
    target = std::make_unique<OsdTarget>(*plane);
    initiator = std::make_unique<OsdInitiator>(*target);
    EXPECT_TRUE(initiator->FormatOsd(5 << 20).ok());
  }

  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
  std::unique_ptr<ReoDataPlane> plane;
  std::unique_ptr<OsdTarget> target;
  std::unique_ptr<OsdInitiator> initiator;
};

TEST(OsdInitiatorTest, FullObjectLifecycle) {
  InitiatorFixture fx;
  ObjectId id = Oid(1);
  uint64_t logical = 3 * kChunk;
  auto payload = BackendStore::SynthesizePayload(id, 0, fx.stripes->PhysicalSize(logical));

  ASSERT_TRUE(fx.initiator->CreateObject(id, logical, 0).ok());
  ASSERT_TRUE(fx.initiator->WriteObject(id, payload, logical, 0).ok());

  auto read = fx.initiator->ReadObject(id, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.data, payload);
  EXPECT_GT(read.complete, 0u);

  ASSERT_TRUE(fx.initiator->RemoveObject(id, 0).ok());
  EXPECT_EQ(fx.initiator->ReadObject(id, 0).sense, SenseCode::kFail);
}

TEST(OsdInitiatorTest, ClassificationDrivesRedundancy) {
  InitiatorFixture fx;
  ObjectId id = Oid(1);
  uint64_t logical = 3 * kChunk;
  auto payload = BackendStore::SynthesizePayload(id, 0, fx.stripes->PhysicalSize(logical));
  ASSERT_TRUE(fx.initiator->CreateObject(id, logical, 0).ok());

  // Classify before write: class 1 (dirty) -> replicate on write.
  EXPECT_EQ(fx.initiator->SetClassId(id, 1, 0), SenseCode::kOk);
  ASSERT_TRUE(fx.initiator->WriteObject(id, payload, logical, 0).ok());
  EXPECT_EQ(*fx.stripes->LevelOf(id), RedundancyLevel::kReplicate);

  // Reclassify to hot clean -> re-encode to 2-parity.
  EXPECT_EQ(fx.initiator->SetClassId(id, 2, 0), SenseCode::kOk);
  EXPECT_EQ(*fx.stripes->LevelOf(id), RedundancyLevel::kParity2);

  // Cold -> no redundancy.
  EXPECT_EQ(fx.initiator->SetClassId(id, 3, 0), SenseCode::kOk);
  EXPECT_EQ(*fx.stripes->LevelOf(id), RedundancyLevel::kNone);
}

TEST(OsdInitiatorTest, QueriesFollowTableIII) {
  InitiatorFixture fx;
  ObjectId id = Oid(1);
  uint64_t logical = 5 * kChunk;
  auto payload = BackendStore::SynthesizePayload(id, 0, fx.stripes->PhysicalSize(logical));
  ASSERT_TRUE(fx.initiator->CreateObject(id, logical, 0).ok());
  ASSERT_TRUE(fx.initiator->WriteObject(id, payload, logical, 0).ok());

  EXPECT_EQ(fx.initiator->Query(id, false, 0, logical, 0), SenseCode::kOk);
  EXPECT_EQ(fx.initiator->QueryRecoveryState(0), SenseCode::kOk);

  // Kill a device: the cold object is lost -> 0x63; recovery flag shows
  // through the control-object query once the plane raises it.
  ASSERT_TRUE(fx.array->FailDevice(0).ok());
  (void)fx.stripes->OnDeviceFailure(0);
  EXPECT_EQ(fx.initiator->Query(id, false, 0, logical, 0), SenseCode::kCorrupted);
  fx.plane->set_recovery_active(true);
  EXPECT_EQ(fx.initiator->QueryRecoveryState(0), SenseCode::kRecoveryStarts);
}

TEST(OsdInitiatorTest, WriteQueryReportsSpace) {
  InitiatorFixture fx;
  ObjectId id = Oid(1);
  ASSERT_TRUE(fx.initiator->CreateObject(id, kChunk, 0).ok());
  EXPECT_EQ(fx.initiator->Query(id, true, 0, kChunk, 0), SenseCode::kOk);
  // Far beyond the array: 0x64.
  EXPECT_EQ(fx.initiator->Query(id, true, 0, 100 << 20, 0), SenseCode::kCacheFull);
}

TEST(OsdInitiatorTest, AttrRoundTrip) {
  InitiatorFixture fx;
  ObjectId id = Oid(1);
  ASSERT_TRUE(fx.initiator->CreateObject(id, kChunk, 0).ok());
  std::vector<uint8_t> value{9, 8, 7};
  ASSERT_TRUE(fx.initiator->SetAttr(id, kAttrReadFreq, value).ok());
  auto got = fx.initiator->GetAttr(id, kAttrReadFreq);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.attr_value, value);
}

TEST(OsdInitiatorTest, CollectionsAndListing) {
  InitiatorFixture fx;
  ObjectId coll{kFirstUserId, 0x30000};
  ASSERT_TRUE(fx.initiator->CreateCollection(coll).ok());
  auto members = fx.initiator->ListCollection(coll);
  ASSERT_TRUE(members.ok());
  EXPECT_TRUE(members.list.empty());
  ASSERT_TRUE(fx.initiator->RemoveCollection(coll).ok());

  ASSERT_TRUE(fx.initiator->CreateObject(Oid(1), kChunk, 0).ok());
  auto list = fx.initiator->ListObjects(kFirstUserId);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.list.size(), 5u);  // 4 reserved + 1
}

TEST(OsdInitiatorTest, StatsTrackTraffic) {
  InitiatorFixture fx;
  ASSERT_TRUE(fx.initiator->CreateObject(Oid(1), kChunk, 0).ok());
  (void)fx.initiator->SetClassId(Oid(1), 3, 0);
  (void)fx.initiator->ReadObject(Oid(9), 0);  // error
  const auto& st = fx.initiator->stats();
  EXPECT_GE(st.commands_sent, 4u);  // format + create + setid + read
  EXPECT_EQ(st.control_writes, 1u);
  EXPECT_GE(st.errors, 1u);
}

/// A session that records every command it is sent and answers OK.
class RecordingSession final : public OsdSession {
 public:
  OsdResponse Roundtrip(const OsdCommand& command) override {
    sent.push_back(command);
    return {};
  }
  std::vector<OsdCommand> sent;
};

TEST(OsdInitiatorTest, ControlLatencyIsCharged) {
  RecordingSession session;
  OsdInitiator initiator(session);
  constexpr SimTime kNow = 7 * kNsPerMs;
  ASSERT_TRUE(initiator.CreateObject(Oid(1), kChunk, kNow).ok());
  EXPECT_EQ(initiator.SetClassId(Oid(1), 3, kNow), SenseCode::kOk);
  EXPECT_EQ(initiator.QueryRecoveryState(kNow), SenseCode::kOk);
  ASSERT_EQ(session.sent.size(), 3u);

  // A data command goes out at `now`; each fsync'd control write is
  // charged 150 us on top.
  EXPECT_EQ(session.sent[0].now, kNow);
  for (size_t i : {1, 2}) {
    EXPECT_EQ(session.sent[i].op, OsdOp::kWrite);
    EXPECT_EQ(session.sent[i].id, kControlObject);
    EXPECT_EQ(session.sent[i].now, kNow + 150 * kNsPerUs);
  }
  auto setid = DecodeControlMessage(session.sent[1].data);
  ASSERT_TRUE(setid.ok());
  EXPECT_EQ(*setid,
            ControlMessage(SetIdCommand{.target = Oid(1), .class_id = 3}));
}

TEST(OsdInitiatorTest, PartitionManagement) {
  InitiatorFixture fx;
  ASSERT_TRUE(fx.initiator->CreatePartition(0x20000).ok());
  EXPECT_EQ(fx.initiator->CreatePartition(0x20000).sense, SenseCode::kFail);
  ObjectId in_new{0x20000, 0x50000};
  ASSERT_TRUE(fx.initiator->CreateObject(in_new, kChunk, 0).ok());
}

}  // namespace
}  // namespace reo
