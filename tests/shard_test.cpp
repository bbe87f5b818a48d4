// Sharded serving tests: ShardRouter unit coverage (partition stability,
// command-aware routing, fan-out response merging) plus loopback
// integration against a real 4-shard ShardedServer — cross-shard
// round trips and pipelining on one connection, the FORMAT control
// barrier under live pipelined traffic, graceful drain with in-flight
// requests on every shard, and multi-shard ADMIN aggregation.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "map_data_plane.h"
#include "osd/control_protocol.h"
#include "osd/osd_target.h"
#include "server/admin_protocol.h"
#include "server/socket_initiator.h"
#include "shard/shard_router.h"
#include "shard/sharded_server.h"
#include "telemetry/json_scan.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "trace/event_log.h"

namespace reo {
namespace {

// --- ShardRouter -------------------------------------------------------------

TEST(ShardRouterTest, PartitionIsStableAndCoversEveryShard) {
  ShardRouter router(4);
  std::set<size_t> hit;
  for (uint64_t i = 0; i < 4096; ++i) {
    ObjectId id{kFirstUserId, kFirstUserId + i};
    size_t shard = router.ShardOf(id);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, router.ShardOf(id));  // stable
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 4u);  // splitmix64 spreads across all shards

  ShardRouter single(1);
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(single.ShardOf(ObjectId{kFirstUserId, kFirstUserId + i}), 0u);
  }
  // Zero shards clamps to one instead of dividing by zero.
  EXPECT_EQ(ShardRouter(0).num_shards(), 1u);
}

TEST(ShardRouterTest, NamespaceOpsFanOutDataOpsDoNot) {
  ShardRouter router(4);
  for (OsdOp op : {OsdOp::kFormat, OsdOp::kCreatePartition,
                   OsdOp::kCreateCollection, OsdOp::kRemoveCollection,
                   OsdOp::kList, OsdOp::kListCollection}) {
    OsdCommand cmd;
    cmd.op = op;
    EXPECT_TRUE(router.RouteOf(cmd).fan_out) << static_cast<int>(op);
  }
  for (OsdOp op : {OsdOp::kCreate, OsdOp::kWrite, OsdOp::kRead,
                   OsdOp::kRemove, OsdOp::kGetAttr, OsdOp::kSetAttr}) {
    OsdCommand cmd;
    cmd.op = op;
    cmd.id = ObjectId{kFirstUserId, kFirstUserId + 77};
    ShardRoute route = router.RouteOf(cmd);
    EXPECT_FALSE(route.fan_out) << static_cast<int>(op);
    EXPECT_EQ(route.shard, router.ShardOf(cmd.id)) << static_cast<int>(op);
  }
}

TEST(ShardRouterTest, ControlWritesRouteByEmbeddedTarget) {
  ShardRouter router(4);
  ObjectId victim{kFirstUserId, kFirstUserId + 0x321};

  OsdCommand setid;
  setid.op = OsdOp::kWrite;
  setid.id = kControlObject;
  setid.data =
      EncodeControlMessage(SetIdCommand{.target = victim, .class_id = 2});
  setid.logical_size = setid.data.size();
  ShardRoute sr = router.RouteOf(setid);
  EXPECT_FALSE(sr.fan_out);
  EXPECT_EQ(sr.shard, router.ShardOf(victim));

  OsdCommand query;
  query.op = OsdOp::kWrite;
  query.id = kControlObject;
  query.data = EncodeControlMessage(QueryCommand{.target = victim});
  query.logical_size = query.data.size();
  ShardRoute qr = router.RouteOf(query);
  EXPECT_FALSE(qr.fan_out);
  EXPECT_EQ(qr.shard, router.ShardOf(victim));

  // Recovery-state probe of the control object itself: any shard may be
  // reconstructing, so it must ask all of them.
  OsdCommand probe;
  probe.op = OsdOp::kWrite;
  probe.id = kControlObject;
  probe.data = EncodeControlMessage(QueryCommand{.target = kControlObject});
  probe.logical_size = probe.data.size();
  EXPECT_TRUE(router.RouteOf(probe).fan_out);

  // Malformed control payloads pick a deterministic shard (any shard
  // rejects them identically).
  OsdCommand junk;
  junk.op = OsdOp::kWrite;
  junk.id = kControlObject;
  junk.data = {0xde, 0xad};
  junk.logical_size = 2;
  ShardRoute jr = router.RouteOf(junk);
  EXPECT_FALSE(jr.fan_out);
  EXPECT_EQ(jr.shard, router.ShardOf(kControlObject));
}

TEST(ShardRouterTest, MergeFanOutResponses) {
  std::vector<OsdResponse> parts(3);
  parts[0].sense = SenseCode::kOk;
  parts[0].complete = 50;
  parts[1].sense = SenseCode::kCacheFull;
  parts[1].complete = 90;
  parts[1].degraded = true;
  parts[2].sense = SenseCode::kCorrupted;
  parts[2].complete = 10;
  parts[0].list = {kFirstUserId + 9};
  parts[1].list = {kFirstUserId + 1};
  parts[2].list = {kFirstUserId + 5};

  OsdResponse merged = MergeFanOutResponses(parts);
  EXPECT_EQ(merged.sense, SenseCode::kCacheFull);  // first non-OK by index
  EXPECT_EQ(merged.complete, 90u);                // latest completion
  EXPECT_TRUE(merged.degraded);
  ASSERT_EQ(merged.list.size(), 3u);  // concatenated and sorted
  EXPECT_EQ(merged.list[0], kFirstUserId + 1);
  EXPECT_EQ(merged.list[1], kFirstUserId + 5);
  EXPECT_EQ(merged.list[2], kFirstUserId + 9);

  std::vector<OsdResponse> all_ok(2);
  all_ok[0].complete = 5;
  all_ok[1].complete = 7;
  OsdResponse ok = MergeFanOutResponses(all_ok);
  EXPECT_EQ(ok.sense, SenseCode::kOk);
  EXPECT_EQ(ok.complete, 7u);
  EXPECT_FALSE(ok.degraded);
}

// --- ShardedServer integration ----------------------------------------------

OsdCommand FormatCmd() {
  OsdCommand c;
  c.op = OsdOp::kFormat;
  c.capacity_bytes = 4 << 20;
  return c;
}

std::vector<uint8_t> PayloadFor(uint32_t rank) {
  std::vector<uint8_t> data(256 + (rank % 7) * 64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((rank * 131 + i) & 0xFF);
  }
  return data;
}

/// 4 independent target stacks behind one ShardedServer, run on its own
/// thread; each shard carries its own registry so the aggregation tests
/// exercise the real cross-shard merge.
class ShardedServerTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 4;

  void Start(ShardedServerConfig cfg = {}) {
    std::vector<OsdTarget*> targets;
    std::vector<MetricRegistry*> registries;
    for (size_t k = 0; k < kShards; ++k) {
      planes_.push_back(std::make_unique<MapDataPlane>());
      targets_.push_back(std::make_unique<OsdTarget>(*planes_.back()));
      registries_.push_back(std::make_unique<MetricRegistry>());
      targets_.back()->AttachTelemetry(*registries_.back());
      targets.push_back(targets_.back().get());
      registries.push_back(registries_.back().get());
    }
    server_ = std::make_unique<ShardedServer>(targets, cfg);
    server_->AttachEvents(events_);
    for (size_t k = 0; k < kShards; ++k) {
      server_->AttachShardTelemetry(k, *registries_[k]);
    }
    TrackServingDefaults(std::span<MetricRegistry* const>(registries), series_,
                         /*num_devices=*/0);
    server_->AttachAdmin(registries, &series_);
    ASSERT_TRUE(server_->Listen().ok());
    ASSERT_GT(server_->port(), 0);
    run_thread_ = std::thread([this] { server_->Run(); });
  }

  void DrainAndJoin() {
    if (!server_ || !run_thread_.joinable()) return;
    server_->RequestDrain();
    run_thread_.join();
  }

  void TearDown() override { DrainAndJoin(); }

  /// An object id owned by `shard` (scan oids until the hash lands there).
  ObjectId IdOnShard(size_t shard, uint64_t salt) const {
    for (uint64_t oid = kFirstUserId + 0x9000 + salt * 0x1000;; ++oid) {
      ObjectId id{kFirstUserId, oid};
      if (server_->router().ShardOf(id) == shard) return id;
    }
  }

  std::vector<std::unique_ptr<MapDataPlane>> planes_;
  std::vector<std::unique_ptr<OsdTarget>> targets_;
  std::vector<std::unique_ptr<MetricRegistry>> registries_;
  EventLog events_;
  TimeSeriesRing series_{
      TimeSeriesConfig{.window_ns = 50'000'000, .capacity = 64}};
  std::unique_ptr<ShardedServer> server_;
  std::thread run_thread_;
};

TEST_F(ShardedServerTest, CrossShardRoundTripsOnOneConnection) {
  Start();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());  // fan-out barrier

  // One object per shard, all served over this single connection: at
  // least 3 of the 4 round trips cross shards.
  constexpr uint32_t kRounds = 4;
  for (uint32_t r = 0; r < kRounds; ++r) {
    for (size_t shard = 0; shard < kShards; ++shard) {
      uint32_t rank = static_cast<uint32_t>(r * kShards + shard);
      ObjectId id = IdOnShard(shard, rank);
      std::vector<uint8_t> payload = PayloadFor(rank);

      OsdCommand create;
      create.op = OsdOp::kCreate;
      create.id = id;
      create.logical_size = payload.size();
      ASSERT_TRUE(client.Roundtrip(create).ok()) << "shard " << shard;

      OsdCommand write;
      write.op = OsdOp::kWrite;
      write.id = id;
      write.logical_size = payload.size();
      write.data = payload;
      ASSERT_TRUE(client.Roundtrip(write).ok()) << "shard " << shard;

      OsdCommand read;
      read.op = OsdOp::kRead;
      read.id = id;
      OsdResponse got = client.Roundtrip(read);
      ASSERT_TRUE(got.ok()) << "shard " << shard;
      EXPECT_EQ(got.data, payload) << "shard " << shard;
    }
  }

  EXPECT_EQ(client.stats().crc_errors, 0u);
  client.Close();
  DrainAndJoin();

  ShardedServerStats stats = server_->stats();
  EXPECT_EQ(stats.requests, 1u + 3u * kRounds * kShards);
  EXPECT_GT(stats.forwarded, 0u);
  EXPECT_EQ(stats.forwarded, stats.forward_executed);
  EXPECT_EQ(stats.crc_errors, 0u);
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  // Every shard actually executed work (its own registry counted it).
  for (size_t k = 0; k < kShards; ++k) {
    MetricSnapshot snap = registries_[k]->Snapshot();
    const auto* cmds = snap.Find("osd.commands");
    ASSERT_NE(cmds, nullptr) << "shard " << k;
    EXPECT_GT(cmds->value, 0.0) << "shard " << k;
  }
}

TEST_F(ShardedServerTest, PipelinedCrossShardResponsesStayInOrder) {
  Start();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());

  // Interleave shards so consecutive pipelined frames land on different
  // loops; responses must still flush in request order.
  constexpr uint32_t kN = 24;
  std::vector<ObjectId> ids;
  for (uint32_t i = 0; i < kN; ++i) {
    ObjectId id = IdOnShard(i % kShards, 100 + i);
    ids.push_back(id);
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = id;
    create.logical_size = PayloadFor(i).size();
    ASSERT_TRUE(client.Roundtrip(create).ok());
    OsdCommand write;
    write.op = OsdOp::kWrite;
    write.id = id;
    write.data = PayloadFor(i);
    write.logical_size = write.data.size();
    ASSERT_TRUE(client.Roundtrip(write).ok());
  }

  // Pipeline all the reads without consuming a single response; response
  // i must carry object i's distinct payload — any cross-shard reorder
  // would pair a response with the wrong request.
  for (uint32_t i = 0; i < kN; ++i) {
    OsdCommand read;
    read.op = OsdOp::kRead;
    read.id = ids[i];
    ASSERT_TRUE(client.Send(read).ok());
  }
  for (uint32_t i = 0; i < kN; ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << "response " << i;
    ASSERT_TRUE(resp->ok()) << "response " << i;
    EXPECT_EQ(resp->data, PayloadFor(i)) << "response " << i;
  }

  client.Close();
  DrainAndJoin();
  ShardedServerStats stats = server_->stats();
  EXPECT_EQ(stats.forwarded, stats.forward_executed);
  EXPECT_EQ(stats.crc_errors + stats.frame_errors + stats.decode_errors, 0u);
}

TEST_F(ShardedServerTest, FormatBarrierDuringPipelinedTraffic) {
  Start();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());

  ObjectId a = IdOnShard(1, 900);
  ObjectId b = IdOnShard(2, 901);
  std::vector<uint8_t> pa = PayloadFor(900);
  std::vector<uint8_t> pb = PayloadFor(901);

  OsdCommand create_a;
  create_a.op = OsdOp::kCreate;
  create_a.id = a;
  create_a.logical_size = pa.size();
  ASSERT_TRUE(client.Roundtrip(create_a).ok());
  OsdCommand write_a;
  write_a.op = OsdOp::kWrite;
  write_a.id = a;
  write_a.data = pa;
  write_a.logical_size = pa.size();
  ASSERT_TRUE(client.Roundtrip(write_a).ok());

  // One pipelined burst: read-before-FORMAT must see the data, FORMAT
  // fans out as a pipeline barrier, traffic after it runs on the wiped
  // namespace — all six responses in request order.
  OsdCommand read_a;
  read_a.op = OsdOp::kRead;
  read_a.id = a;
  OsdCommand create_b;
  create_b.op = OsdOp::kCreate;
  create_b.id = b;
  create_b.logical_size = pb.size();
  OsdCommand write_b;
  write_b.op = OsdOp::kWrite;
  write_b.id = b;
  write_b.data = pb;
  write_b.logical_size = pb.size();

  ASSERT_TRUE(client.Send(read_a).ok());    // 0: ok, payload a
  ASSERT_TRUE(client.Send(FormatCmd()).ok());  // 1: barrier, wipes a
  ASSERT_TRUE(client.Send(create_b).ok());  // 2: ok on fresh namespace
  ASSERT_TRUE(client.Send(write_b).ok());   // 3: ok
  ASSERT_TRUE(client.Send(read_a).ok());    // 4: NOT ok — a was wiped
  ASSERT_TRUE(client.Send(read_a).ok());    // 5: still not ok

  auto r0 = client.Receive();
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r0->ok());
  EXPECT_EQ(r0->data, pa);
  auto r1 = client.Receive();
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->ok());
  auto r2 = client.Receive();
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->ok());
  auto r3 = client.Receive();
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->ok());
  auto r4 = client.Receive();
  ASSERT_TRUE(r4.ok());
  EXPECT_FALSE(r4->ok());
  auto r5 = client.Receive();
  ASSERT_TRUE(r5.ok());
  EXPECT_FALSE(r5->ok());

  // And b survives the whole sequence.
  OsdCommand read_b;
  read_b.op = OsdOp::kRead;
  read_b.id = b;
  OsdResponse got = client.Roundtrip(read_b);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.data, pb);
}

TEST_F(ShardedServerTest, GracefulDrainCompletesInflightOnEveryShard) {
  Start();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());

  // Pipeline creates that land on every shard, then drain while they are
  // in flight: each must still answer, on its owning shard, before the
  // connection closes.
  constexpr uint32_t kN = 32;
  for (uint32_t i = 0; i < kN; ++i) {
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = IdOnShard(i % kShards, 200 + i);
    create.logical_size = 64;
    ASSERT_TRUE(client.Send(create).ok());
  }
  server_->RequestDrain();

  for (uint32_t i = 0; i < kN; ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << "in-flight response " << i << ": "
                           << resp.status().to_string();
    EXPECT_TRUE(resp->ok()) << "in-flight response " << i;
  }
  auto after = client.Receive();
  EXPECT_FALSE(after.ok());  // server closed the drained connection

  run_thread_.join();
  ShardedServerStats stats = server_->stats();
  EXPECT_EQ(stats.requests, 1u + kN);
  EXPECT_EQ(stats.forwarded, stats.forward_executed);
  // Every shard saw its share of the interleaved creates.
  for (size_t k = 0; k < kShards; ++k) {
    MetricSnapshot snap = registries_[k]->Snapshot();
    const auto* cmds = snap.Find("osd.commands");
    ASSERT_NE(cmds, nullptr);
    EXPECT_GT(cmds->value, 0.0) << "shard " << k;
  }
}

TEST_F(ShardedServerTest, DrainHookRunsOncePerShardAfterQuiesce) {
  std::atomic<uint32_t> hooks{0};
  std::array<std::atomic<uint32_t>, kShards> per_shard{};
  ShardedServerConfig cfg;
  cfg.on_shard_drained = [&](size_t shard) {
    hooks.fetch_add(1);
    per_shard[shard].fetch_add(1);
  };
  Start(cfg);
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());
  client.Close();
  DrainAndJoin();
  EXPECT_EQ(hooks.load(), kShards);
  for (size_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(per_shard[k].load(), 1u) << "shard " << k;
  }
}

TEST_F(ShardedServerTest, AdminAggregatesAcrossShards) {
  Start();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());

  // Touch every shard so each per-shard registry has non-zero counters.
  for (size_t shard = 0; shard < kShards; ++shard) {
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = IdOnShard(shard, 300 + shard);
    create.logical_size = 32;
    ASSERT_TRUE(client.Roundtrip(create).ok());
  }
  constexpr double kDataRequests = 1.0 + kShards;  // format + creates

  // STATS arg 0: the bucket-level merge across every shard's registry.
  auto merged = client.AdminRoundtrip(AdminOp::kStats);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->status, 0);
  auto mdoc = JsonDoc::Parse(merged->json);
  ASSERT_TRUE(mdoc.has_value());
  EXPECT_EQ(mdoc->number(mdoc->Find({"counters", "server.requests"})),
            kDataRequests);
  // FORMAT fanned out: every shard executed it, so merged osd.commands
  // counts kShards formats + kShards creates.
  EXPECT_EQ(mdoc->number(mdoc->Find({"counters", "osd.commands"})),
            static_cast<double>(2 * kShards));

  // STATS arg k >= 1: shard k-1 alone; per-shard requests sum to the
  // merged total (the counter-sum contract admin_probe --expect-sum
  // checks in CI).
  double sum_requests = 0.0;
  double sum_commands = 0.0;
  for (size_t k = 1; k <= kShards; ++k) {
    auto one = client.AdminRoundtrip(AdminOp::kStats,
                                     static_cast<uint32_t>(k));
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one->status, 0) << "shard " << (k - 1);
    auto doc = JsonDoc::Parse(one->json);
    ASSERT_TRUE(doc.has_value());
    int req = doc->Find({"counters", "server.requests"});
    if (doc->is(req, JsonDoc::Type::kNumber)) {
      sum_requests += doc->number(req);
    }
    sum_commands += doc->number(doc->Find({"counters", "osd.commands"}));
  }
  EXPECT_EQ(sum_requests, kDataRequests);
  EXPECT_EQ(sum_commands, static_cast<double>(2 * kShards));

  // Out-of-range shard index: in-band error, connection survives.
  auto bad = client.AdminRoundtrip(AdminOp::kStats, kShards + 1);
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(bad->status, 0);

  // HEALTH names the shard topology and proves no forwarded frame was
  // dropped (the invariant the CI smoke asserts via --expect-sum).
  auto health = client.AdminRoundtrip(AdminOp::kHealth);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 0);
  auto hdoc = JsonDoc::Parse(health->json);
  ASSERT_TRUE(hdoc.has_value());
  EXPECT_EQ(hdoc->number(hdoc->member(hdoc->root(), "shards")),
            static_cast<double>(kShards));
  EXPECT_EQ(hdoc->number(hdoc->member(hdoc->root(), "requests")),
            kDataRequests);
  EXPECT_EQ(hdoc->number(hdoc->member(hdoc->root(), "forwarded")),
            hdoc->number(hdoc->member(hdoc->root(), "forward_executed")));

  // EVENTS answers from the shared log (thread-safe, global order).
  auto ev = client.AdminRoundtrip(AdminOp::kEvents, 10);
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev->status, 0);

  client.Close();
  DrainAndJoin();
  EXPECT_EQ(server_->stats().admin_errors, 1u);  // the out-of-range probe
}

TEST_F(ShardedServerTest, ControlWritesExecuteOnTargetsShard) {
  Start();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());

  // SETID for an object on shard 3, sent down a connection that may be
  // homed anywhere. SETID only succeeds on the shard holding the target's
  // record (any other shard answers kFail), so a clean round trip IS the
  // routing proof.
  ObjectId id = IdOnShard(3, 400);
  OsdCommand create;
  create.op = OsdOp::kCreate;
  create.id = id;
  create.logical_size = 16;
  ASSERT_TRUE(client.Roundtrip(create).ok());

  OsdCommand setid;
  setid.op = OsdOp::kWrite;
  setid.id = kControlObject;
  setid.data =
      EncodeControlMessage(SetIdCommand{.target = id, .class_id = 3});
  setid.logical_size = setid.data.size();
  ASSERT_TRUE(client.Roundtrip(setid).ok());

  // And only shard 3's registry saw a control message.
  for (size_t k = 0; k < kShards; ++k) {
    MetricSnapshot snap = registries_[k]->Snapshot();
    const auto* ctl = snap.Find("osd.control_messages");
    double got = ctl != nullptr ? ctl->value : 0.0;
    EXPECT_EQ(got, k == 3 ? 1.0 : 0.0) << "shard " << k;
  }

  // Per-object read query routes to the same shard: after the payload
  // lands the object is intact there, so the probe answers OK.
  OsdCommand write;
  write.op = OsdOp::kWrite;
  write.id = id;
  write.data = {1, 2, 3, 4};
  write.logical_size = 4;
  ASSERT_TRUE(client.Roundtrip(write).ok());
  OsdCommand query;
  query.op = OsdOp::kWrite;
  query.id = kControlObject;
  query.data = EncodeControlMessage(QueryCommand{.target = id});
  query.logical_size = query.data.size();
  EXPECT_TRUE(client.Roundtrip(query).ok());

  // Recovery-state probe of the control object fans out to all shards
  // and answers OK while none is reconstructing.
  OsdCommand probe;
  probe.op = OsdOp::kWrite;
  probe.id = kControlObject;
  probe.data = EncodeControlMessage(QueryCommand{.target = kControlObject});
  probe.logical_size = probe.data.size();
  EXPECT_TRUE(client.Roundtrip(probe).ok());
}

}  // namespace
}  // namespace reo
