// OSD substrate tests: object store semantics, attribute pages, the
// control-object wire protocol, command dispatch, Table III sense codes,
// and the command placement shards and the cluster client share.
#include <gtest/gtest.h>

#include <unordered_map>

#include "osd/command_placement.h"
#include "osd/control_protocol.h"
#include "osd/object_store.h"
#include "osd/osd_target.h"

namespace reo {
namespace {

// --- ObjectStore -----------------------------------------------------------------

TEST(ObjectStoreTest, FormatCreatesTableIObjects) {
  ObjectStore store;
  store.Format(1 << 30);
  EXPECT_TRUE(store.Exists(kRootObject));
  EXPECT_TRUE(store.Exists(kSuperBlockObject));
  EXPECT_TRUE(store.Exists(kDeviceTableObject));
  EXPECT_TRUE(store.Exists(kRootDirectoryObject));
  EXPECT_TRUE(store.Exists(kControlObject));
  EXPECT_TRUE(store.HasPartition(kFirstUserId));
  EXPECT_EQ(store.capacity_bytes(), 1u << 30);

  auto root = store.Find(kRootObject);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->type, ObjectType::kRoot);
}

TEST(ObjectStoreTest, PartitionRules) {
  ObjectStore store;
  store.Format(1);
  EXPECT_EQ(store.CreatePartition(5).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(store.CreatePartition(kFirstUserId).code(), ErrorCode::kAlreadyExists);
  ASSERT_TRUE(store.CreatePartition(0x20000).ok());
  EXPECT_EQ(store.ListPartitions(), (std::vector<uint64_t>{0x10000, 0x20000}));
  // Each partition has a partition object with OID 0.
  EXPECT_TRUE(store.Exists(ObjectId{0x20000, 0}));
}

TEST(ObjectStoreTest, UserObjectLifecycle) {
  ObjectStore store;
  store.Format(1);
  ObjectId id{kFirstUserId, 0x20000};
  ASSERT_TRUE(store.CreateObject(id, 4096).ok());
  EXPECT_EQ(store.CreateObject(id).code(), ErrorCode::kAlreadyExists);
  auto rec = store.Find(id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->logical_size, 4096u);
  EXPECT_EQ((*rec)->type, ObjectType::kUser);
  ASSERT_TRUE(store.RemoveObject(id).ok());
  EXPECT_FALSE(store.Exists(id));
  EXPECT_EQ(store.RemoveObject(id).code(), ErrorCode::kNotFound);
}

TEST(ObjectStoreTest, ReservedObjectsCannotBeRemoved) {
  ObjectStore store;
  store.Format(1);
  for (ObjectId id : {kSuperBlockObject, kDeviceTableObject,
                      kRootDirectoryObject, kControlObject}) {
    EXPECT_EQ(store.RemoveObject(id).code(), ErrorCode::kInvalidArgument)
        << id.ToString();
    EXPECT_TRUE(store.Exists(id));
  }
}

TEST(ObjectStoreTest, CreateInMissingPartitionFails) {
  ObjectStore store;
  store.Format(1);
  EXPECT_EQ(store.CreateObject(ObjectId{0x99999, 1}).code(), ErrorCode::kNotFound);
}

TEST(ObjectStoreTest, CollectionsMembership) {
  ObjectStore store;
  store.Format(1);
  ObjectId coll{kFirstUserId, 0x30000};
  ObjectId member{kFirstUserId, 0x30001};
  ASSERT_TRUE(store.CreateCollection(coll).ok());
  ASSERT_TRUE(store.CreateObject(member).ok());
  ASSERT_TRUE(store.AddToCollection(coll, member).ok());
  EXPECT_EQ(store.AddToCollection(coll, member).code(), ErrorCode::kAlreadyExists);

  auto members = store.ListCollection(coll);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(*members, std::vector<uint64_t>{member.oid});

  // §II.A: user objects share the PID with their collections.
  ASSERT_TRUE(store.CreatePartition(0x20000).ok());
  ObjectId foreign{0x20000, 0x30001};
  ASSERT_TRUE(store.CreateObject(foreign).ok());
  EXPECT_EQ(store.AddToCollection(coll, foreign).code(), ErrorCode::kInvalidArgument);

  // Non-empty collections cannot be removed.
  EXPECT_EQ(store.RemoveCollection(coll).code(), ErrorCode::kInvalidArgument);
  ASSERT_TRUE(store.RemoveFromCollection(coll, member).ok());
  ASSERT_TRUE(store.RemoveCollection(coll).ok());
}

TEST(ObjectStoreTest, RemovingObjectLeavesCollectionsConsistent) {
  ObjectStore store;
  store.Format(1);
  ObjectId coll{kFirstUserId, 0x30000};
  ObjectId member{kFirstUserId, 0x30001};
  ASSERT_TRUE(store.CreateCollection(coll).ok());
  ASSERT_TRUE(store.CreateObject(member).ok());
  ASSERT_TRUE(store.AddToCollection(coll, member).ok());
  ASSERT_TRUE(store.RemoveObject(member).ok());
  auto members = store.ListCollection(coll);
  ASSERT_TRUE(members.ok());
  EXPECT_TRUE(members->empty());
}

TEST(ObjectStoreTest, ListObjects) {
  ObjectStore store;
  store.Format(1);
  ASSERT_TRUE(store.CreateObject(ObjectId{kFirstUserId, 0x50000}).ok());
  ASSERT_TRUE(store.CreateObject(ObjectId{kFirstUserId, 0x50001}).ok());
  auto oids = store.ListObjects(kFirstUserId);
  // 4 reserved (Table I) + 2 created.
  EXPECT_EQ(oids.size(), 6u);
}

// --- AttributeStore ----------------------------------------------------------------

TEST(AttributeStoreTest, SetGetU64) {
  AttributeStore attrs;
  attrs.SetU64(kAttrClassId, 2);
  auto v = attrs.GetU64(kAttrClassId);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 2u);
  EXPECT_FALSE(attrs.GetU64(kAttrDirty).has_value());
}

TEST(AttributeStoreTest, RawBytesRoundTrip) {
  AttributeStore attrs;
  std::vector<uint8_t> value{1, 2, 3};
  attrs.Set(AttributeId{7, 9}, value);
  auto got = attrs.Get(AttributeId{7, 9});
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(std::equal(got->begin(), got->end(), value.begin(), value.end()));
}

TEST(AttributeStoreTest, RemoveAndListPage) {
  AttributeStore attrs;
  attrs.SetU64(kAttrClassId, 1);
  attrs.SetU64(kAttrReadFreq, 5);
  attrs.SetU64(AttributeId{99, 1}, 7);
  auto page = attrs.ListPage(kReoAttributePage);
  EXPECT_EQ(page.size(), 2u);
  ASSERT_TRUE(attrs.Remove(kAttrClassId).ok());
  EXPECT_EQ(attrs.Remove(kAttrClassId).code(), ErrorCode::kNotFound);
  EXPECT_EQ(attrs.ListPage(kReoAttributePage).size(), 1u);
}

// --- Control protocol (paper §IV.C.2) -------------------------------------------

TEST(ControlProtocolTest, SetIdRoundTrip) {
  SetIdCommand cmd{.target = {0x10000, 0x10123}, .class_id = 2};
  auto wire = EncodeControlMessage(ControlMessage{cmd});
  std::string s(wire.begin(), wire.end());
  EXPECT_TRUE(s.starts_with("#SETID#"));
  auto decoded = DecodeControlMessage(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<SetIdCommand>(*decoded), cmd);
}

TEST(ControlProtocolTest, QueryRoundTrip) {
  QueryCommand cmd{.target = {0x10000, 0x42}, .is_write = true, .offset = 128,
                   .size = 4096};
  auto wire = EncodeControlMessage(ControlMessage{cmd});
  std::string s(wire.begin(), wire.end());
  EXPECT_TRUE(s.starts_with("#QUERY#"));
  EXPECT_NE(s.find(":W:"), std::string::npos);
  auto decoded = DecodeControlMessage(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<QueryCommand>(*decoded), cmd);
}

TEST(ControlProtocolTest, ReadQueryEncodesR) {
  QueryCommand cmd{.target = {1, 2}, .is_write = false, .offset = 0, .size = 1};
  auto wire = EncodeControlMessage(ControlMessage{cmd});
  std::string s(wire.begin(), wire.end());
  EXPECT_NE(s.find(":R:"), std::string::npos);
}

TEST(ControlProtocolTest, MalformedInputsRejected) {
  for (const char* bad :
       {"", "#NOPE#:1:2:3", "#SETID#:1:2", "#SETID#:1:2:3:4", "#SETID#:x:2:3",
        "#SETID#:1:2:999", "#QUERY#:1:2:R:0", "#QUERY#:1:2:Z:0:1",
        "#QUERY#:1:2:R:abc:1"}) {
    std::string s(bad);
    auto r = DecodeControlMessage(
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
    EXPECT_FALSE(r.ok()) << "input: " << bad;
  }
}

// --- OsdTarget with a fake data plane --------------------------------------------

/// Minimal in-memory data plane for target-dispatch tests.
class FakeDataPlane final : public DataPlane {
 public:
  Result<DataPlaneIo> WriteObject(ObjectId id, std::span<const uint8_t> payload,
                                  uint64_t logical, uint8_t class_id,
                                  SimTime now) override {
    if (full_) return Status{ErrorCode::kNoSpace, "full"};
    auto& o = objects_[id];
    o.payload.assign(payload.begin(), payload.end());
    o.logical = logical;
    o.class_id = class_id;
    o.health = ObjectHealth::kIntact;
    return DataPlaneIo{.complete = now + 10};
  }
  Result<DataPlaneIo> ReadObject(ObjectId id, SimTime now) override {
    auto it = objects_.find(id);
    if (it == objects_.end()) return Status{ErrorCode::kNotFound, ""};
    if (it->second.health == ObjectHealth::kLost) {
      return Status{ErrorCode::kUnrecoverable, ""};
    }
    DataPlaneIo io;
    io.complete = now + 5;
    io.degraded = it->second.health == ObjectHealth::kDegraded;
    io.payload.assign(it->second.payload.begin(), it->second.payload.end());
    return io;
  }
  Status RemoveObject(ObjectId id) override {
    return objects_.erase(id) ? Status::Ok()
                              : Status{ErrorCode::kNotFound, ""};
  }
  Status SetObjectClass(ObjectId id, uint8_t class_id, SimTime) override {
    auto it = objects_.find(id);
    if (it == objects_.end()) return {ErrorCode::kNotFound, ""};
    if (reserve_full_) return {ErrorCode::kNoSpace, "reserve"};
    it->second.class_id = class_id;
    return Status::Ok();
  }
  ObjectHealth Health(ObjectId id) const override {
    auto it = objects_.find(id);
    return it == objects_.end() ? ObjectHealth::kAbsent : it->second.health;
  }
  bool recovery_active() const override { return recovering_; }
  bool HasSpaceFor(uint64_t, uint8_t) const override { return !full_; }

  struct Obj {
    std::vector<uint8_t> payload;
    uint64_t logical = 0;
    uint8_t class_id = 3;
    ObjectHealth health = ObjectHealth::kIntact;
  };
  std::unordered_map<ObjectId, Obj, ObjectIdHash> objects_;
  bool full_ = false;
  bool reserve_full_ = false;
  bool recovering_ = false;
};

class OsdTargetTest : public ::testing::Test {
 protected:
  OsdTargetTest() : target_(plane_) {
    OsdCommand format;
    format.op = OsdOp::kFormat;
    format.capacity_bytes = 1 << 30;
    (void)target_.Execute(format);
  }

  OsdResponse Create(ObjectId id, uint64_t size = 100) {
    OsdCommand c;
    c.op = OsdOp::kCreate;
    c.id = id;
    c.logical_size = size;
    return target_.Execute(c);
  }
  OsdResponse Write(ObjectId id, std::vector<uint8_t> data, uint64_t size) {
    OsdCommand c;
    c.op = OsdOp::kWrite;
    c.id = id;
    c.data = std::move(data);
    c.logical_size = size;
    return target_.Execute(c);
  }
  OsdResponse Control(const ControlMessage& msg) {
    OsdCommand c;
    c.op = OsdOp::kWrite;
    c.id = kControlObject;
    c.data = EncodeControlMessage(msg);
    return target_.Execute(c);
  }

  FakeDataPlane plane_;
  OsdTarget target_;
  ObjectId obj_{kFirstUserId, 0x20000};
};

TEST_F(OsdTargetTest, CreateWriteReadRemove) {
  ASSERT_TRUE(Create(obj_).ok());
  ASSERT_TRUE(Write(obj_, {1, 2, 3}, 3).ok());

  OsdCommand read;
  read.op = OsdOp::kRead;
  read.id = obj_;
  auto resp = target_.Execute(read);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.data, (std::vector<uint8_t>{1, 2, 3}));

  OsdCommand rm;
  rm.op = OsdOp::kRemove;
  rm.id = obj_;
  EXPECT_TRUE(target_.Execute(rm).ok());
  EXPECT_EQ(target_.Execute(read).sense, SenseCode::kFail);
}

TEST_F(OsdTargetTest, WriteToMissingObjectFails) {
  EXPECT_EQ(Write(obj_, {1}, 1).sense, SenseCode::kFail);
}

TEST_F(OsdTargetTest, WriteWhenFullReturnsCacheFull) {
  ASSERT_TRUE(Create(obj_).ok());
  plane_.full_ = true;
  EXPECT_EQ(Write(obj_, {1}, 1).sense, SenseCode::kCacheFull);
}

TEST_F(OsdTargetTest, WriteUsesClassAttribute) {
  ASSERT_TRUE(Create(obj_).ok());
  ASSERT_TRUE(Control(SetIdCommand{.target = obj_, .class_id = 1}).ok());
  ASSERT_TRUE(Write(obj_, {9}, 1).ok());
  EXPECT_EQ(plane_.objects_[obj_].class_id, 1);
}

TEST_F(OsdTargetTest, SetIdBeforeWriteIsAccepted) {
  ASSERT_TRUE(Create(obj_).ok());
  // Object exists in metadata but not in the data plane yet.
  EXPECT_EQ(Control(SetIdCommand{.target = obj_, .class_id = 2}).sense,
            SenseCode::kOk);
}

TEST_F(OsdTargetTest, SetIdOnUnknownObjectFails) {
  EXPECT_EQ(Control(SetIdCommand{.target = obj_, .class_id = 2}).sense,
            SenseCode::kFail);
}

TEST_F(OsdTargetTest, SetIdReserveFullIs0x67) {
  ASSERT_TRUE(Create(obj_).ok());
  ASSERT_TRUE(Write(obj_, {1}, 1).ok());
  plane_.reserve_full_ = true;
  EXPECT_EQ(Control(SetIdCommand{.target = obj_, .class_id = 2}).sense,
            SenseCode::kRedundancyFull);
}

TEST_F(OsdTargetTest, QueryReadSenses) {
  ASSERT_TRUE(Create(obj_).ok());
  ASSERT_TRUE(Write(obj_, {1}, 1).ok());
  auto query = [&](ObjectHealth h) {
    plane_.objects_[obj_].health = h;
    return Control(QueryCommand{.target = obj_, .is_write = false, .size = 1}).sense;
  };
  EXPECT_EQ(query(ObjectHealth::kIntact), SenseCode::kOk);
  EXPECT_EQ(query(ObjectHealth::kDegraded), SenseCode::kOk);
  EXPECT_EQ(query(ObjectHealth::kLost), SenseCode::kCorrupted);
  plane_.objects_.erase(obj_);
  EXPECT_EQ(
      Control(QueryCommand{.target = obj_, .is_write = false, .size = 1}).sense,
      SenseCode::kFail);
}

TEST_F(OsdTargetTest, QueryWriteReportsCacheFull) {
  ASSERT_TRUE(Create(obj_).ok());
  EXPECT_EQ(
      Control(QueryCommand{.target = obj_, .is_write = true, .size = 10}).sense,
      SenseCode::kOk);
  plane_.full_ = true;
  EXPECT_EQ(
      Control(QueryCommand{.target = obj_, .is_write = true, .size = 10}).sense,
      SenseCode::kCacheFull);
}

TEST_F(OsdTargetTest, ControlObjectQueryReportsRecoveryState) {
  auto q = QueryCommand{.target = kControlObject, .is_write = false, .size = 0};
  EXPECT_EQ(Control(q).sense, SenseCode::kOk);
  plane_.recovering_ = true;
  EXPECT_EQ(Control(q).sense, SenseCode::kRecoveryStarts);
}

TEST_F(OsdTargetTest, MalformedControlMessageFails) {
  OsdCommand c;
  c.op = OsdOp::kWrite;
  c.id = kControlObject;
  std::string junk = "#BOGUS#:1";
  c.data.assign(junk.begin(), junk.end());
  EXPECT_EQ(target_.Execute(c).sense, SenseCode::kFail);
}

TEST_F(OsdTargetTest, AttrCommands) {
  ASSERT_TRUE(Create(obj_).ok());
  OsdCommand set;
  set.op = OsdOp::kSetAttr;
  set.id = obj_;
  set.attr = kAttrReadFreq;
  set.attr_value = {42, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(target_.Execute(set).ok());

  OsdCommand get;
  get.op = OsdOp::kGetAttr;
  get.id = obj_;
  get.attr = kAttrReadFreq;
  auto resp = target_.Execute(get);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.attr_value, set.attr_value);

  get.attr = kAttrDirty;  // never set
  EXPECT_EQ(target_.Execute(get).sense, SenseCode::kFail);
}

TEST_F(OsdTargetTest, ListAndCollections) {
  ASSERT_TRUE(Create(obj_).ok());
  OsdCommand list;
  list.op = OsdOp::kList;
  list.id = ObjectId{kFirstUserId, 0};
  auto resp = target_.Execute(list);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.list.size(), 5u);  // 4 reserved + 1 created

  OsdCommand coll;
  coll.op = OsdOp::kCreateCollection;
  coll.id = ObjectId{kFirstUserId, 0x60000};
  ASSERT_TRUE(target_.Execute(coll).ok());
  coll.op = OsdOp::kListCollection;
  auto members = target_.Execute(coll);
  ASSERT_TRUE(members.ok());
  EXPECT_TRUE(members.list.empty());
  coll.op = OsdOp::kRemoveCollection;
  EXPECT_TRUE(target_.Execute(coll).ok());
}

TEST_F(OsdTargetTest, StatsCount) {
  ASSERT_TRUE(Create(obj_).ok());
  ASSERT_TRUE(Write(obj_, {1}, 1).ok());
  OsdCommand read;
  read.op = OsdOp::kRead;
  read.id = obj_;
  (void)target_.Execute(read);
  (void)Control(QueryCommand{.target = obj_, .is_write = false, .size = 1});
  const auto& st = target_.stats();
  EXPECT_EQ(st.reads, 1u);
  EXPECT_EQ(st.writes, 1u);
  EXPECT_EQ(st.control_messages, 1u);
  EXPECT_GE(st.commands, 4u);
}

// --- Command placement -----------------------------------------------------------

OsdCommand ControlWrite(const ControlMessage& msg) {
  OsdCommand cmd;
  cmd.op = OsdOp::kWrite;
  cmd.id = kControlObject;
  cmd.data = EncodeControlMessage(msg);
  cmd.logical_size = cmd.data.size();
  return cmd;
}

TEST(CommandPlacementTest, HintsCarryTheirOwnerAndNodeDownFansOut) {
  const ObjectId obj{kFirstUserId, kFirstUserId + 0x42};
  CommandPlacement hint = PlaceCommand(ControlWrite(OwnerHintCommand{
      .target = obj, .class_id = 1, .hotness = 8, .owner = 2}));
  EXPECT_FALSE(hint.fan_out);
  EXPECT_EQ(hint.key, obj);
  EXPECT_EQ(hint.hint_owner, std::optional<uint32_t>(2));

  EXPECT_TRUE(PlaceCommand(ControlWrite(NodeDownCommand{.node = 2})).fan_out);

  // Only a hint names an owner; a data op follows its own id.
  OsdCommand read;
  read.op = OsdOp::kRead;
  read.id = obj;
  CommandPlacement data = PlaceCommand(read);
  EXPECT_FALSE(data.fan_out);
  EXPECT_EQ(data.key, obj);
  EXPECT_FALSE(data.hint_owner.has_value());
  EXPECT_FALSE(
      PlaceCommand(ControlWrite(SetIdCommand{.target = obj, .class_id = 2}))
          .hint_owner.has_value());
}

TEST(CommandPlacementTest, MergeNamesEachListedObjectOnce) {
  // Every partition lists the reserved objects FORMAT created on it.
  std::vector<OsdResponse> parts(3);
  parts[0].list = {kControlObject.oid, kFirstUserId + 9};
  parts[1].list = {kFirstUserId + 1, kControlObject.oid};
  parts[2].list = {kControlObject.oid};
  OsdResponse merged = MergeFanOutResponses(parts);
  ASSERT_EQ(kControlObject.oid, kFirstUserId + 4);
  EXPECT_EQ(merged.list, (std::vector<uint64_t>{kFirstUserId + 1,
                                                kFirstUserId + 4,
                                                kFirstUserId + 9}));
}

}  // namespace
}  // namespace reo
