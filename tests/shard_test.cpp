// Sharded serving tests: ShardRouter unit coverage (partition stability,
// command-aware routing, fan-out response merging) plus loopback
// integration against a real 4-shard ShardedServer — cross-shard
// round trips and pipelining on one connection, FORMAT ordering under
// live pipelined traffic, graceful drain with in-flight requests on
// every shard, multi-shard ADMIN aggregation, real NodeStack stacks
// driven from four client threads at once (also traced, one tracer per
// stack), fan-out racing cross-shard traffic on other connections, and
// the same stacks driven without sockets through Execute() while
// MergedStats() is polled.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/node_stack.h"
#include "map_data_plane.h"
#include "osd/control_protocol.h"
#include "osd/osd_target.h"
#include "persist/persistence.h"
#include "server/admin_protocol.h"
#include "server/socket_initiator.h"
#include "shard/shard_router.h"
#include "shard/sharded_server.h"
#include "telemetry/json_scan.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {
namespace {

namespace fs = std::filesystem;

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

  /// Four map-backed shards, each reporting into its own registry.
  std::vector<ServedShard> MapShards() {
    std::vector<ServedShard> shards;
    for (size_t k = 0; k < kShards; ++k) {
      planes_.push_back(std::make_unique<MapDataPlane>());
      targets_.push_back(std::make_unique<OsdTarget>(*planes_.back()));
      registries_.push_back(std::make_unique<MetricRegistry>());
      targets_.back()->AttachTelemetry(*registries_.back());
      shards.push_back({.target = targets_.back().get(),
                        .registry = registries_.back().get()});
    }
    return shards;
  }

  void Start(ShardedServerConfig cfg = {}) { Serve(MapShards(), cfg); }

  /// Four real stacks, wired by NodeStack::Build as reo_server wires
  /// them, each reporting into its shard's registry. `traced` gives each
  /// stack its own every-request tracer, feeding that registry's
  /// stage.* histograms, as reo_server does under --trace-sample 1.
  void BuildNodeStacks(const NodeStackConfig& config,
                       std::vector<ServedShard>* shards, bool traced = false) {
    stacks_.reserve(kShards);
    for (size_t k = 0; k < kShards; ++k) {
      registries_.push_back(std::make_unique<MetricRegistry>());
      Tracer* tracer = nullptr;
      if (traced) {
        tracer = &tracers_.emplace_back(TracerConfig{.sample_every = 1});
        tracer->AttachStageMetrics(*registries_.back());
      }
      NodeStackSinks sinks{.registry = registries_.back().get(),
                           .events = &events_,
                           .tracer = tracer};
      auto built = NodeStack::Build(config, k, kShards, sinks);
      ASSERT_TRUE(built.ok()) << built.status().to_string();
      stacks_.push_back(std::move(*built));
      const NodeStack& s = stacks_.back();
      shards->push_back({.target = s.target.get(),
                         .registry = registries_.back().get(),
                         .tracer = tracer,
                         .cluster = s.cluster.get(),
                         .persist = s.persist.get()});
    }
  }

  void StartNodeStacks(const NodeStackConfig& config) {
    std::vector<ServedShard> shards;
    ASSERT_NO_FATAL_FAILURE(BuildNodeStacks(config, &shards));
    Serve(shards, {});
  }

  void Serve(std::span<const ServedShard> shards, ShardedServerConfig cfg) {
    std::vector<MetricRegistry*> registries;
    for (auto& r : registries_) registries.push_back(r.get());
    server_ = std::make_unique<ShardedServer>(shards, cfg);
    server_->AttachEvents(events_);
    TrackServingDefaults(std::span<MetricRegistry* const>(registries), series_,
                         /*num_devices=*/0);
    server_->AttachSeries(series_);
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

  /// Counter `name` summed over every shard's registry (0 if absent).
  double MergedCounter(const char* name) const {
    std::vector<const MetricRegistry*> regs;
    for (const auto& r : registries_) regs.push_back(r.get());
    MetricSnapshot snap = MetricRegistry::Merged(regs);
    const MetricSnapshot::Entry* e = snap.Find(name);
    return e != nullptr ? e->value : 0.0;
  }

  std::vector<std::unique_ptr<MetricRegistry>> registries_;
  std::deque<Tracer> tracers_;  ///< outlive the stacks that point at them
  EventLog events_;
  std::vector<std::unique_ptr<MapDataPlane>> planes_;
  std::vector<std::unique_ptr<OsdTarget>> targets_;
  std::vector<std::unique_ptr<PersistenceManager>> journals_;
  std::vector<NodeStack> stacks_;
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
  // Every shard gets a journal; phase 2 of the drain checkpoints each.
  std::vector<ServedShard> shards = MapShards();
  fs::path dir = fs::temp_directory_path() / "reo_shard_drain_checkpoint";
  fs::remove_all(dir);
  for (size_t k = 0; k < kShards; ++k) {
    auto opened = PersistenceManager::Open(
        {.data_dir = (dir / ("shard" + std::to_string(k))).string()});
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    journals_.push_back(std::move(*opened));
    journals_.back()->AttachTelemetry(*registries_[k]);
    shards[k].persist = journals_.back().get();
  }
  Serve(shards, {});
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());
  client.Close();
  DrainAndJoin();
  for (size_t k = 0; k < kShards; ++k) {
    MetricSnapshot snap = registries_[k]->Snapshot();
    const auto* checkpoints = snap.Find("persist.checkpoints");
    ASSERT_NE(checkpoints, nullptr) << "shard " << k;
    EXPECT_EQ(checkpoints->value, 1.0) << "shard " << k;
  }
  fs::remove_all(dir);
}

// The attribution invariant at four shards, with four clients at once:
// every executed command part opens its transport root span on the
// executing shard's tracer, under that shard's lock, and the stack's
// nested spans join it. So the merged stage.transport count is the
// number of executed parts (one per single-shard command, four per
// fan-out), stage.osd_target has the same count, and a single-shard
// command's root spans exactly the stamps its latency observes.
TEST_F(ShardedServerTest, StageLatencyAttributionMatchesEndToEnd) {
  NodeStackConfig config;
  config.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2};
  config.capacity_bytes = 64ull << 20;
  std::vector<ServedShard> shards;
  ASSERT_NO_FATAL_FAILURE(BuildNodeStacks(config, &shards, /*traced=*/true));
  Serve(shards, {});
  {
    SocketInitiator setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", server_->port()).ok());
    OsdCommand format = FormatCmd();
    format.capacity_bytes = config.capacity_bytes;
    ASSERT_TRUE(setup.Roundtrip(format).ok());
  }

  constexpr uint32_t kClients = 4;
  constexpr uint32_t kOps = 24;  // per client, spread over every shard
  std::vector<std::string> errors(kClients);
  auto run_client = [&](uint32_t c) {
    SocketInitiator client;
    if (!client.Connect("127.0.0.1", server_->port()).ok()) {
      errors[c] = "connect failed";
      return;
    }
    for (uint32_t i = 0; i < kOps; ++i) {
      uint32_t rank = c * kOps + i;
      std::vector<uint8_t> payload = PayloadFor(rank);
      OsdCommand create;
      create.op = OsdOp::kCreate;
      create.id = IdOnShard(i % kShards, 2000 + rank);
      create.logical_size = payload.size();
      OsdCommand write;
      write.op = OsdOp::kWrite;
      write.id = create.id;
      write.logical_size = payload.size();
      write.data = payload;
      OsdCommand read;
      read.op = OsdOp::kRead;
      read.id = create.id;
      for (const OsdCommand* cmd : {&create, &write, &read}) {
        if (!client.Roundtrip(*cmd).ok()) {
          errors[c] = "rank " + std::to_string(rank) + " failed";
          return;
        }
      }
    }
  };
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) clients.emplace_back(run_client, c);
  for (std::thread& t : clients) t.join();
  for (const std::string& e : errors) EXPECT_EQ(e, "");
  DrainAndJoin();

  MetricSnapshot snap = server_->MergedStats();
  const MetricSnapshot::Entry* transport =
      snap.Find("stage.transport.span_us");
  const MetricSnapshot::Entry* target_stage =
      snap.Find("stage.osd_target.span_us");
  const MetricSnapshot::Entry* lat_read = snap.Find("server.latency.read_us");
  const MetricSnapshot::Entry* lat_write =
      snap.Find("server.latency.write_us");
  const MetricSnapshot::Entry* lat_other =
      snap.Find("server.latency.other_us");
  ASSERT_NE(transport, nullptr);
  ASSERT_NE(target_stage, nullptr);
  ASSERT_NE(lat_read, nullptr);
  ASSERT_NE(lat_write, nullptr);
  ASSERT_NE(lat_other, nullptr);

  constexpr uint64_t kSingleShard = 3ull * kClients * kOps;
  EXPECT_EQ(lat_read->count + lat_write->count + lat_other->count,
            1 + kSingleShard);
  EXPECT_EQ(transport->count, kSingleShard + kShards);
  EXPECT_EQ(target_stage->count, transport->count);
  // Each FORMAT part's root runs from the frame's stamp to its own end,
  // the last of which is the latency's end; every other root equals its
  // command's latency.
  double end_to_end_sum = lat_read->sum + lat_write->sum + lat_other->sum;
  EXPECT_GE(transport->sum, end_to_end_sum * (1 - 1e-9));
  // Every shard traced its own parts into its own registry.
  for (size_t k = 0; k < kShards; ++k) {
    MetricSnapshot shard_snap = registries_[k]->Snapshot();
    const MetricSnapshot::Entry* own =
        shard_snap.Find("stage.transport.span_us");
    ASSERT_NE(own, nullptr) << "shard " << k;
    EXPECT_GT(own->count, 1u) << "shard " << k;
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

/// Object bytes for one version: rank and version in the first eight
/// bytes, so a response paired with the wrong request cannot match.
std::vector<uint8_t> VersionedPayload(uint32_t rank, uint32_t version,
                                      size_t size) {
  std::vector<uint8_t> data(size);
  for (size_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>((rank * 131 + version * 29 + i) & 0xFF);
  }
  std::memcpy(data.data(), &rank, sizeof(rank));
  std::memcpy(data.data() + 4, &version, sizeof(version));
  return data;
}

OsdCommand WriteCmd(ObjectId id, std::vector<uint8_t> data) {
  OsdCommand c;
  c.op = OsdOp::kWrite;
  c.id = id;
  c.logical_size = data.size();
  c.data = std::move(data);
  return c;
}

OsdCommand ReadCmd(ObjectId id) {
  OsdCommand c;
  c.op = OsdOp::kRead;
  c.id = id;
  return c;
}

// Every loop executes on every shard's real stack in turn: flash array,
// stripes, RS code, fault injector and DRAM tier, one thread at a time
// under the shard's lock. Four clients, one connection each, pipeline
// writes and byte-checked reads of objects on all four shards in
// classes 0-3, with latent faults on device 0 (every protected stripe
// keeps at most one corrupt chunk, so it stays repairable). A class-3
// object has no redundancy, so its read may miss; no read may return
// wrong bytes.
TEST_F(ShardedServerTest, RealStacksServeConcurrentCrossShardClients) {
  NodeStackConfig config;
  config.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2};
  config.capacity_bytes = 64ull << 20;
  config.admission.dram_bytes = 2ull << 20;  // 512 KiB of DRAM per shard
  config.faults.seed = 11;
  config.faults.rules.push_back(FaultRule{
      .site = FaultSite::kFlashLatent, .probability = 0.05, .device = 0});
  ASSERT_NO_FATAL_FAILURE(StartNodeStacks(config));
  {
    SocketInitiator setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", server_->port()).ok());
    OsdCommand format = FormatCmd();
    format.capacity_bytes = config.capacity_bytes;
    ASSERT_TRUE(setup.Roundtrip(format).ok());
  }

  constexpr uint32_t kClients = 4;
  constexpr uint32_t kObjects = 16;  // per client: every (shard, class)
  constexpr uint32_t kRounds = 5;
  struct Object {
    ObjectId id;
    uint32_t rank = 0;
    uint8_t cls = 0;
    size_t size = 0;
  };
  struct Tally {
    std::string error;
    uint64_t ok_reads = 0;
    uint64_t wrong = 0;  ///< responses that do not fit their request
    std::array<uint64_t, 4> misses{};  ///< failed reads, per class
    uint64_t wire_errors = 0;
  };
  std::vector<std::vector<Object>> objects(kClients);
  for (uint32_t c = 0; c < kClients; ++c) {
    for (uint32_t i = 0; i < kObjects; ++i) {
      Object o;
      o.rank = c * kObjects + i;
      o.id = IdOnShard(i % kShards, 1000 + o.rank);
      o.cls = static_cast<uint8_t>((i / kShards + c) % 4);
      o.size = 4096 + (o.rank % 5) * 24 * 1024;  // up to two 64 KiB chunks
      objects[c].push_back(o);
    }
  }
  std::vector<Tally> tallies(kClients);
  auto run_client = [&](uint32_t c) {
    Tally& t = tallies[c];
    SocketInitiatorConfig scfg;
    scfg.receive_timeout_ms = 60'000;
    SocketInitiator client(scfg);
    if (!client.Connect("127.0.0.1", server_->port()).ok()) {
      t.error = "connect failed";
      return;
    }
    // Populate: CREATE, SETID and the first version of every object,
    // pipelined; every response must be OK.
    std::vector<OsdCommand> burst;
    for (const Object& o : objects[c]) {
      OsdCommand create;
      create.op = OsdOp::kCreate;
      create.id = o.id;
      create.logical_size = o.size;
      burst.push_back(create);
      OsdCommand setid;
      setid.op = OsdOp::kWrite;
      setid.id = kControlObject;
      setid.data = EncodeControlMessage(
          SetIdCommand{.target = o.id, .class_id = o.cls});
      setid.logical_size = setid.data.size();
      burst.push_back(std::move(setid));
      burst.push_back(WriteCmd(o.id, VersionedPayload(o.rank, 0, o.size)));
    }
    for (const OsdCommand& cmd : burst) {
      if (!client.Send(cmd).ok()) {
        t.error = "populate send failed";
        return;
      }
    }
    for (size_t k = 0; k < burst.size(); ++k) {
      auto resp = client.Receive();
      if (!resp.ok() || !resp->ok()) {
        t.error = "populate response " + std::to_string(k) + " failed";
        return;
      }
    }
    // Rounds: a new version of every object, each followed by its read.
    for (uint32_t v = 1; v <= kRounds; ++v) {
      for (const Object& o : objects[c]) {
        if (!client.Send(WriteCmd(o.id, VersionedPayload(o.rank, v, o.size)))
                 .ok() ||
            !client.Send(ReadCmd(o.id)).ok()) {
          t.error = "send failed";
          return;
        }
      }
      for (const Object& o : objects[c]) {
        auto wr = client.Receive();
        auto rd = client.Receive();
        if (!wr.ok() || !rd.ok()) {
          t.error = "receive failed in round " + std::to_string(v);
          return;
        }
        if (!wr->ok() || !wr->data.empty()) ++t.wrong;
        // The stack answers whole chunks: the object is their prefix.
        std::vector<uint8_t> want = VersionedPayload(o.rank, v, o.size);
        if (!rd->ok()) {
          ++t.misses[o.cls];
        } else if (rd->data.size() >= want.size() &&
                   std::equal(want.begin(), want.end(), rd->data.begin())) {
          ++t.ok_reads;
        } else {
          ++t.wrong;
        }
      }
    }
    const SocketInitiatorStats& w = client.stats();
    t.wire_errors = w.crc_errors + w.frame_errors + w.decode_errors;
  };
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) clients.emplace_back(run_client, c);
  for (std::thread& th : clients) th.join();

  uint64_t ok_reads = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    const Tally& t = tallies[c];
    EXPECT_EQ(t.error, "") << "client " << c;
    EXPECT_EQ(t.wrong, 0u) << "client " << c;
    EXPECT_EQ(t.wire_errors, 0u) << "client " << c;
    for (int cls = 0; cls < 3; ++cls) {
      EXPECT_EQ(t.misses[cls], 0u) << "client " << c << " class " << cls;
    }
    ok_reads += t.ok_reads;
  }
  EXPECT_GT(ok_reads, kClients * kObjects * kRounds / 2);

  DrainAndJoin();
  ShardedServerStats stats = server_->stats();
  EXPECT_EQ(stats.crc_errors + stats.frame_errors + stats.decode_errors, 0u);
  EXPECT_GT(stats.forwarded, 0u);
  EXPECT_EQ(stats.forwarded, stats.forward_executed);
  EXPECT_EQ(MergedCounter("fault.crc_unrepaired"), 0.0);
  EXPECT_GT(MergedCounter("fault.injected"), 0.0);  // the faults did fire
  EXPECT_GT(MergedCounter("admit.staged"), 0.0);    // and the DRAM tier ran
}

// A fan-out locks one shard at a time while other loops execute
// cross-shard frames. One connection pipelines FORMAT and LIST, two
// others pipeline CREATE/WRITE/READ triples across all shards, and a
// fourth polls STATS throughout. Every connection's responses must come
// back in request order before the receive deadline, and every poll
// must see forwarded == forward_executed: a frame is counted on both
// sides in the same call, under the executing shard's lock, and STATS
// holds every lock while it merges.
TEST_F(ShardedServerTest, FanOutRacesCrossShardTraffic) {
  Start();
  SocketInitiatorConfig scfg;
  scfg.receive_timeout_ms = 20'000;  // a stuck lock fails here, not hangs

  constexpr uint32_t kFanOutRounds = 200;
  constexpr uint32_t kDataRounds = 200;
  constexpr uint32_t kTriples = 8;  // per data round
  std::atomic<uint32_t> data_running{2};
  std::array<std::string, 3> errors;
  std::array<uint64_t, 2> ok_reads{};

  auto fan_out = [&] {
    SocketInitiator client(scfg);
    if (!client.Connect("127.0.0.1", server_->port()).ok()) {
      errors[0] = "connect failed";
      return;
    }
    OsdCommand list;
    list.op = OsdOp::kList;
    list.id = ObjectId{kFirstUserId, 0};
    for (uint32_t r = 0; r < kFanOutRounds; ++r) {
      // FORMAT answers an empty list; LIST of the first partition always
      // names the reserved objects FORMAT recreated on every shard.
      for (int k = 0; k < 4; ++k) {
        if (!client.Send(FormatCmd()).ok() || !client.Send(list).ok()) {
          errors[0] = "send failed";
          return;
        }
      }
      for (int k = 0; k < 4; ++k) {
        auto format = client.Receive();
        auto listed = client.Receive();
        if (!format.ok() || !listed.ok()) {
          errors[0] = "receive failed in round " + std::to_string(r);
          return;
        }
        if (!format->ok() || !format->list.empty() || !listed->ok() ||
            listed->list.empty()) {
          errors[0] = "response out of order in round " + std::to_string(r);
          return;
        }
      }
    }
  };

  auto data = [&](uint32_t c) {
    SocketInitiator client(scfg);
    if (!client.Connect("127.0.0.1", server_->port()).ok()) {
      errors[1 + c] = "connect failed";
      data_running.fetch_sub(1);
      return;
    }
    for (uint32_t r = 0; r < kDataRounds && errors[1 + c].empty(); ++r) {
      // A FORMAT may land anywhere in the burst, so any response may fail;
      // a successful READ must carry its own triple's bytes, and no other
      // response carries data.
      std::vector<std::vector<uint8_t>> sent;
      for (uint32_t i = 0; i < kTriples; ++i) {
        uint32_t rank = c * 1000 + i;
        ObjectId id = IdOnShard(i % kShards, 500 + rank);
        sent.push_back(VersionedPayload(rank, r, 512 + i * 64));
        OsdCommand create;
        create.op = OsdOp::kCreate;
        create.id = id;
        create.logical_size = sent.back().size();
        if (!client.Send(create).ok() ||
            !client.Send(WriteCmd(id, sent.back())).ok() ||
            !client.Send(ReadCmd(id)).ok()) {
          errors[1 + c] = "send failed";
          break;
        }
      }
      for (uint32_t i = 0; i < kTriples && errors[1 + c].empty(); ++i) {
        auto create = client.Receive();
        auto write = client.Receive();
        auto read = client.Receive();
        if (!create.ok() || !write.ok() || !read.ok()) {
          errors[1 + c] = "receive failed in round " + std::to_string(r);
        } else if (!create->data.empty() || !write->data.empty() ||
                   (read->ok() && read->data != sent[i])) {
          errors[1 + c] = "response out of order in round " + std::to_string(r);
        } else if (read->ok()) {
          ++ok_reads[c];
        }
      }
    }
    data_running.fetch_sub(1);
  };

  std::vector<std::thread> threads;
  threads.emplace_back(fan_out);
  threads.emplace_back(data, 0u);
  threads.emplace_back(data, 1u);

  // Poll STATS while the data connections run. A failed poll stops the
  // polling (the threads must still be joined before any assertion).
  uint64_t polls = 0;
  uint64_t mismatched = 0;
  double max_forwarded = 0;
  std::string poll_error;
  SocketInitiator poller(scfg);
  if (!poller.Connect("127.0.0.1", server_->port()).ok()) {
    poll_error = "connect failed";
  }
  while (poll_error.empty() && data_running.load() > 0) {
    auto stats = poller.AdminRoundtrip(AdminOp::kStats);
    auto doc = stats.ok() && stats->status == 0 ? JsonDoc::Parse(stats->json)
                                                : std::nullopt;
    if (!doc.has_value()) {
      poll_error = "STATS poll " + std::to_string(polls) + " failed";
      break;
    }
    auto counter = [&](const char* name) {
      int node = doc->Find({"counters", name});
      return doc->is(node, JsonDoc::Type::kNumber) ? doc->number(node) : 0.0;
    };
    double forwarded = counter("server.forwarded");
    if (forwarded != counter("server.forward_executed")) ++mismatched;
    max_forwarded = std::max(max_forwarded, forwarded);
    ++polls;
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(poll_error, "");

  for (size_t k = 0; k < errors.size(); ++k) {
    EXPECT_EQ(errors[k], "") << "connection " << k;
  }
  EXPECT_GT(ok_reads[0] + ok_reads[1], 0u);
  EXPECT_GT(polls, 0u);
  EXPECT_GT(max_forwarded, 0.0);  // the polls did see cross-shard traffic
  EXPECT_EQ(mismatched, 0u) << "of " << polls << " STATS polls";

  DrainAndJoin();
  ShardedServerStats stats = server_->stats();
  EXPECT_EQ(stats.forwarded, stats.forward_executed);
  EXPECT_EQ(stats.crc_errors + stats.frame_errors + stats.decode_errors, 0u);
}

// The socket-free core: the stacks of
// RealStacksServeConcurrentCrossShardClients behind a server that never
// listens. Four threads call Execute() as homes 0-3 over disjoint objects
// covering every (shard, class 0-3), so most of their commands run on
// another shard's stack, and LIST fans out to every shard; a fifth polls
// MergedStats(). A read must return the newest acked bytes (class 3 may
// miss), and every poll must see forwarded == forward_executed: both
// count under the executing shard's lock, and the merge holds every lock.
TEST_F(ShardedServerTest, SocketFreeExecuteAgreesWithMergedStats) {
  NodeStackConfig config;
  config.policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2};
  config.capacity_bytes = 64ull << 20;
  config.admission.dram_bytes = 2ull << 20;  // 512 KiB of DRAM per shard
  config.faults.seed = 11;
  config.faults.rules.push_back(FaultRule{
      .site = FaultSite::kFlashLatent, .probability = 0.05, .device = 0});
  std::vector<ServedShard> shards;
  ASSERT_NO_FATAL_FAILURE(BuildNodeStacks(config, &shards));
  server_ = std::make_unique<ShardedServer>(shards);
  OsdCommand format = FormatCmd();
  format.capacity_bytes = config.capacity_bytes;
  ASSERT_TRUE(server_->Execute(0, format).ok());

  constexpr uint32_t kHomes = 4;
  constexpr uint32_t kObjects = 16;  // per home: every (shard, class)
  constexpr uint32_t kRounds = 20;
  struct Object {
    ObjectId id;
    uint32_t rank = 0;
    uint8_t cls = 0;
    size_t size = 0;
    uint32_t acked = 0;  ///< newest acknowledged version
  };
  struct Tally {
    std::string error;
    uint64_t ok_reads = 0;
    uint64_t wrong = 0;  ///< failed writes or LISTs, reads of wrong bytes
    std::array<uint64_t, 4> misses{};  ///< failed reads, per class
  };
  std::vector<std::vector<Object>> objects(kHomes);
  for (uint32_t h = 0; h < kHomes; ++h) {
    for (uint32_t i = 0; i < kObjects; ++i) {
      Object o;
      o.rank = h * kObjects + i;
      o.id = IdOnShard(i % kShards, 2000 + o.rank);
      o.cls = static_cast<uint8_t>((i / kShards + h) % 4);
      o.size = 4096 + (o.rank % 5) * 24 * 1024;  // up to two 64 KiB chunks
      objects[h].push_back(o);
    }
  }
  OsdCommand list;
  list.op = OsdOp::kList;
  list.id = ObjectId{kFirstUserId, 0};

  std::vector<Tally> tallies(kHomes);
  std::atomic<uint32_t> running{kHomes};
  auto drive = [&](uint32_t home) {
    Tally& t = tallies[home];
    for (const Object& o : objects[home]) {
      OsdCommand create;
      create.op = OsdOp::kCreate;
      create.id = o.id;
      create.logical_size = o.size;
      OsdCommand setid;
      setid.op = OsdOp::kWrite;
      setid.id = kControlObject;
      setid.data = EncodeControlMessage(
          SetIdCommand{.target = o.id, .class_id = o.cls});
      setid.logical_size = setid.data.size();
      if (!server_->Execute(home, create).ok() ||
          !server_->Execute(home, setid).ok() ||
          !server_->Execute(home, WriteCmd(o.id, VersionedPayload(
                                                     o.rank, 0, o.size)))
               .ok()) {
        t.error = "populate failed for rank " + std::to_string(o.rank);
        break;
      }
    }
    for (uint32_t v = 1; v <= kRounds && t.error.empty(); ++v) {
      for (Object& o : objects[home]) {
        if (server_->Execute(home, WriteCmd(o.id, VersionedPayload(
                                                      o.rank, v, o.size)))
                .ok()) {
          o.acked = v;
        } else {
          ++t.wrong;
        }
        // The stack answers whole chunks: the object is their prefix.
        std::vector<uint8_t> want = VersionedPayload(o.rank, o.acked, o.size);
        OsdResponse rd = server_->Execute(home, ReadCmd(o.id));
        if (!rd.ok()) {
          ++t.misses[o.cls];
        } else if (rd.data.size() >= want.size() &&
                   std::equal(want.begin(), want.end(), rd.data.begin())) {
          ++t.ok_reads;
        } else {
          ++t.wrong;
        }
        if (o.rank % 4 == 3) {
          // LIST of the first partition names the reserved objects on
          // every shard, so the merged answer is never empty.
          OsdResponse listed = server_->Execute(home, list);
          if (!listed.ok() || listed.list.empty()) ++t.wrong;
        }
      }
    }
    running.fetch_sub(1);
  };

  uint64_t polls = 0;
  uint64_t mismatched = 0;
  std::vector<std::thread> threads;
  for (uint32_t h = 0; h < kHomes; ++h) threads.emplace_back(drive, h);
  threads.emplace_back([&] {
    while (running.load() > 0) {
      MetricSnapshot snap = server_->MergedStats();
      const auto* forwarded = snap.Find("server.forwarded");
      const auto* executed = snap.Find("server.forward_executed");
      if (forwarded == nullptr || executed == nullptr ||
          forwarded->value != executed->value) {
        ++mismatched;
      }
      ++polls;
      // Each poll holds every shard lock; leave the homes room to run.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& th : threads) th.join();

  uint64_t ok_reads = 0;
  for (uint32_t h = 0; h < kHomes; ++h) {
    const Tally& t = tallies[h];
    EXPECT_EQ(t.error, "") << "home " << h;
    EXPECT_EQ(t.wrong, 0u) << "home " << h;
    for (int cls = 0; cls < 3; ++cls) {
      EXPECT_EQ(t.misses[cls], 0u) << "home " << h << " class " << cls;
    }
    ok_reads += t.ok_reads;
  }
  EXPECT_GT(ok_reads, kHomes * kObjects * kRounds / 2);
  EXPECT_GT(polls, 0u);
  EXPECT_EQ(mismatched, 0u) << "of " << polls << " MergedStats polls";

  EXPECT_GT(MergedCounter("server.forwarded"), 0.0);
  EXPECT_EQ(MergedCounter("server.forwarded"),
            MergedCounter("server.forward_executed"));
  EXPECT_EQ(MergedCounter("fault.crc_unrepaired"), 0.0);
}

}  // namespace
}  // namespace reo
