// Loopback integration tests for the network serving layer: a real
// one-shard ShardedServer on an ephemeral port, a SocketInitiator doing
// OSD round trips over TCP, graceful drain with pipelined in-flight
// requests, wire-corruption accounting, and the listener's back-off when
// the process runs out of file descriptors. Plus unit coverage for the
// frame codec and the timer wheel, which the sockets above exercise only
// indirectly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "map_data_plane.h"
#include "osd/control_protocol.h"
#include "osd/osd_initiator.h"
#include "osd/osd_target.h"
#include "osd/transport.h"
#include "server/admin_protocol.h"
#include "server/event_loop.h"
#include "server/frame.h"
#include "server/frame_queue.h"
#include "server/socket_initiator.h"
#include "shard/sharded_server.h"
#include "telemetry/json_scan.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {
namespace {

constexpr ObjectId kTestObject{kFirstUserId, kFirstUserId + 0x2000};

OsdCommand FormatCmd() {
  OsdCommand c;
  c.op = OsdOp::kFormat;
  c.capacity_bytes = 1 << 20;
  return c;
}

/// One-shard server + loop thread + client, torn down in order.
class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ShardedServerConfig cfg = {}) {
    ServedShard shards[] = {{.target = &target_, .registry = &telemetry_}};
    server_ = std::make_unique<ShardedServer>(shards, cfg);
    server_->AttachEvents(events_);
    ASSERT_TRUE(server_->Listen().ok());
    ASSERT_GT(server_->port(), 0);
    loop_thread_ = std::thread([this] { server_->Run(); });
  }

  /// Full observability wiring: metrics + admin plane + every-request
  /// tracing into the per-stage histograms (sample_every = 1, so the
  /// attribution-equality assertions are exact, not statistical).
  void StartAdminServer() {
    tracer_.AttachStageMetrics(telemetry_);
    target_.AttachTracing(tracer_);
    ServedShard shards[] = {
        {.target = &target_, .registry = &telemetry_, .tracer = &tracer_}};
    server_ = std::make_unique<ShardedServer>(shards);
    server_->AttachEvents(events_);
    TrackServingDefaults(telemetry_, series_, /*num_devices=*/0);
    server_->AttachSeries(series_);
    ASSERT_TRUE(server_->Listen().ok());
    ASSERT_GT(server_->port(), 0);
    loop_thread_ = std::thread([this] { server_->Run(); });
  }

  void DrainAndJoin() {
    if (!server_ || !loop_thread_.joinable()) return;
    server_->RequestDrain();
    loop_thread_.join();
  }

  void TearDown() override { DrainAndJoin(); }

  MapDataPlane plane_;
  OsdTarget target_{plane_};
  MetricRegistry telemetry_;
  EventLog events_;
  Tracer tracer_{TracerConfig{.sample_every = 1}};
  TimeSeriesRing series_{
      TimeSeriesConfig{.window_ns = 50'000'000, .capacity = 64}};
  std::unique_ptr<ShardedServer> server_;
  std::thread loop_thread_;
};

TEST_F(ServerTest, CreateWriteReadRemoveRoundTrip) {
  StartServer();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());

  OsdCommand create;
  create.op = OsdOp::kCreate;
  create.id = kTestObject;
  create.logical_size = 4096;
  ASSERT_TRUE(client.Roundtrip(create).ok());

  std::vector<uint8_t> payload(4096);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131);
  }
  OsdCommand write;
  write.op = OsdOp::kWrite;
  write.id = kTestObject;
  write.logical_size = payload.size();
  write.data = payload;
  ASSERT_TRUE(client.Roundtrip(write).ok());

  OsdCommand read;
  read.op = OsdOp::kRead;
  read.id = kTestObject;
  OsdResponse got = client.Roundtrip(read);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.data, payload);

  OsdCommand remove;
  remove.op = OsdOp::kRemove;
  remove.id = kTestObject;
  ASSERT_TRUE(client.Roundtrip(remove).ok());
  EXPECT_FALSE(client.Roundtrip(read).ok());  // gone

  // The wire stayed clean in both directions.
  EXPECT_EQ(client.stats().crc_errors, 0u);
  EXPECT_EQ(client.stats().frame_errors, 0u);
  EXPECT_EQ(client.stats().decode_errors, 0u);
  client.Close();
  DrainAndJoin();
  EXPECT_EQ(server_->stats().crc_errors, 0u);
  EXPECT_EQ(server_->stats().frame_errors, 0u);
  EXPECT_EQ(server_->stats().decode_errors, 0u);
  EXPECT_EQ(server_->stats().requests, 6u);
  EXPECT_EQ(telemetry_.Snapshot().Find("server.requests")->value, 6.0);
}

// OsdInitiator's typed API, control protocol included, runs over a socket
// session exactly as over the in-process target.
TEST_F(ServerTest, TypedInitiatorRunsOverSocketSession) {
  StartServer();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  OsdInitiator initiator(client);

  ASSERT_TRUE(initiator.FormatOsd(1 << 20).ok());
  ASSERT_TRUE(initiator.CreateObject(kTestObject, 4096, 0).ok());
  EXPECT_EQ(initiator.SetClassId(kTestObject, 1, 0), SenseCode::kOk);
  std::vector<uint8_t> payload(4096);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131);
  }
  ASSERT_TRUE(
      initiator.WriteObject(kTestObject, payload, payload.size(), 0).ok());
  OsdResponse got = initiator.ReadObject(kTestObject, 0);
  ASSERT_TRUE(got.ok());
  ASSERT_GE(got.data.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), got.data.begin()));

  OsdResponse cls = initiator.GetAttr(kTestObject, kAttrClassId, 0);
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ(cls.attr_value, (std::vector<uint8_t>{1, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(initiator.Query(kTestObject, /*is_write=*/false, 0, 4096, 0),
            SenseCode::kOk);
  EXPECT_EQ(initiator.QueryRecoveryState(0), SenseCode::kOk);
  EXPECT_EQ(initiator.stats().errors, 0u);
  EXPECT_EQ(initiator.stats().control_writes, 3u);
  EXPECT_EQ(client.stats().crc_errors + client.stats().frame_errors +
                client.stats().decode_errors,
            0u);
}

TEST_F(ServerTest, LargeUnalignedWriteIsGatheredIntactOverSocket) {
  // 300 KiB + 7: more than one socket buffer, so the gathered send of
  // header, head, data, tail and trailer resumes mid-part, and no size a
  // chunk or page divides.
  StartServer();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  OsdInitiator initiator(client);
  ASSERT_TRUE(initiator.FormatOsd(1 << 20).ok());
  std::vector<uint8_t> payload((300 << 10) + 7);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + (i >> 9));
  }
  ASSERT_TRUE(initiator.CreateObject(kTestObject, payload.size(), 0).ok());
  ASSERT_TRUE(
      initiator.WriteObject(kTestObject, payload, payload.size(), 0).ok());
  OsdResponse got = initiator.ReadObject(kTestObject, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.data == payload);
  DrainAndJoin();
  EXPECT_EQ(server_->stats().crc_errors, 0u);
  EXPECT_EQ(client.stats().crc_errors + client.stats().frame_errors +
                client.stats().decode_errors,
            0u);
}

TEST_F(ServerTest, PipelinedRequestsAllAnswerInOrder) {
  StartServer();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());

  // Queue N creates without reading a single response.
  constexpr int kN = 32;
  for (int i = 0; i < kN; ++i) {
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = ObjectId{kFirstUserId, kTestObject.oid + 1 + i};
    create.logical_size = 100;
    ASSERT_TRUE(client.Send(create).ok());
  }
  for (int i = 0; i < kN; ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << "response " << i;
    EXPECT_TRUE(resp->ok()) << "response " << i;
  }
}

TEST_F(ServerTest, GracefulDrainCompletesInflightRequests) {
  StartServer();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());

  // Pipeline a batch; on loopback send() lands the bytes in the server's
  // receive buffer synchronously, so all of these are in-flight when the
  // drain request arrives.
  constexpr int kN = 16;
  for (int i = 0; i < kN; ++i) {
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = ObjectId{kFirstUserId, kTestObject.oid + 100 + i};
    create.logical_size = 64;
    ASSERT_TRUE(client.Send(create).ok());
  }
  server_->RequestDrain();

  // Every in-flight request still gets a response...
  for (int i = 0; i < kN; ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << "in-flight response " << i << ": "
                           << resp.status().to_string();
    EXPECT_TRUE(resp->ok());
  }
  // ...then the server closes the connection.
  auto after = client.Receive();
  EXPECT_FALSE(after.ok());

  loop_thread_.join();
  EXPECT_EQ(server_->stats().requests, 1u + kN);
  EXPECT_EQ(server_->stats().crc_errors, 0u);
  // The drain milestones made it into the event log.
  bool saw_drain = false, saw_drained = false;
  for (const auto& ev : events_.events()) {
    if (ev.category == "server.drain") saw_drain = true;
    if (ev.category == "server.drained") saw_drained = true;
  }
  EXPECT_TRUE(saw_drain);
  EXPECT_TRUE(saw_drained);
}

TEST_F(ServerTest, CrcCorruptionIsCountedLoggedAndDropsConnection) {
  StartServer();

  // Raw socket: SocketInitiator would never send a bad CRC.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::vector<uint8_t> frame = EncodeFrame(EncodeCommand(FormatCmd()));
  frame[kFrameHeaderBytes] ^= 0xFF;  // corrupt the first payload byte
  ASSERT_EQ(send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  // The server must close the connection (recv sees EOF, not a response).
  uint8_t buf[64];
  ASSERT_EQ(recv(fd, buf, sizeof(buf), 0), 0);
  close(fd);

  DrainAndJoin();
  EXPECT_EQ(server_->stats().crc_errors, 1u);
  EXPECT_EQ(server_->stats().requests, 0u);
  EXPECT_EQ(telemetry_.Snapshot().Find("server.crc_errors")->value, 1.0);
  bool saw_corruption = false;
  for (const auto& ev : events_.events()) {
    if (ev.category == "server.wire_corruption") {
      saw_corruption = true;
      EXPECT_EQ(ev.Field("kind"), "crc_mismatch");
    }
  }
  EXPECT_TRUE(saw_corruption);
}

TEST_F(ServerTest, GarbagePayloadGetsErrorResponseAndConnectionSurvives) {
  StartServer();
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // A perfectly framed payload that is not an OSD command.
  std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};
  std::vector<uint8_t> frame = EncodeFrame(junk);
  ASSERT_EQ(send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  // The server answers with a sense-kFail response instead of dropping us.
  FrameDecoder decoder;
  std::vector<uint8_t> payload;
  for (;;) {
    FrameStatus st = decoder.Next(&payload);
    if (st == FrameStatus::kFrame) break;
    ASSERT_EQ(st, FrameStatus::kNeedMore);
    uint8_t buf[512];
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    decoder.Feed({buf, static_cast<size_t>(n)});
  }
  auto resp = DecodeResponse(payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->ok());
  close(fd);

  DrainAndJoin();
  EXPECT_EQ(server_->stats().decode_errors, 1u);
  EXPECT_EQ(server_->stats().crc_errors, 0u);
}

// --- In-band admin plane -----------------------------------------------------

TEST_F(ServerTest, AdminCommandsAnswerDuringLiveTraffic) {
  StartAdminServer();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());

  // Live data traffic interleaved with admin polls on the same socket.
  constexpr int kOps = 4;
  for (int i = 0; i < kOps; ++i) {
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = ObjectId{kFirstUserId, kTestObject.oid + i};
    create.logical_size = 4;
    ASSERT_TRUE(client.Roundtrip(create).ok());
    OsdCommand write;
    write.op = OsdOp::kWrite;
    write.id = create.id;
    write.data = {1, 2, 3, 4};
    write.logical_size = 4;
    ASSERT_TRUE(client.Roundtrip(write).ok());
    OsdCommand read;
    read.op = OsdOp::kRead;
    read.id = write.id;
    ASSERT_TRUE(client.Roundtrip(read).ok());
  }
  // format + creates + writes + reads
  constexpr uint64_t kDataRequests = 1 + 3 * kOps;

  auto health = client.AdminRoundtrip(AdminOp::kHealth);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 0);
  auto hdoc = JsonDoc::Parse(health->json);
  ASSERT_TRUE(hdoc.has_value());
  EXPECT_EQ(hdoc->str(hdoc->member(hdoc->root(), "schema")), "reo.health.v1");
  EXPECT_EQ(hdoc->str(hdoc->member(hdoc->root(), "status")), "ok");
  EXPECT_EQ(hdoc->number(hdoc->member(hdoc->root(), "requests")),
            static_cast<double>(kDataRequests));

  auto stats = client.AdminRoundtrip(AdminOp::kStats);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 0);
  auto sdoc = JsonDoc::Parse(stats->json);
  ASSERT_TRUE(sdoc.has_value());
  // Admin polls must not count as data requests (no skewed ratios).
  EXPECT_EQ(sdoc->number(sdoc->Find({"counters", "server.requests"})),
            static_cast<double>(kDataRequests));
  EXPECT_GT(sdoc->number(
                sdoc->Find({"histograms", "server.latency.read_us", "count"})),
            0.0);

  // Let at least one 50 ms series window close under the loop's roll
  // timer, then ask for the newest windows.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  auto series = client.AdminRoundtrip(AdminOp::kSeries, 8);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->status, 0);
  auto rdoc = JsonDoc::Parse(series->json);
  ASSERT_TRUE(rdoc.has_value());
  EXPECT_EQ(rdoc->str(rdoc->member(rdoc->root(), "schema")), "reo.series.v1");
  EXPECT_GE(rdoc->number(rdoc->member(rdoc->root(), "windows")), 1.0);
  int col = rdoc->Find({"series", "server.requests"});
  ASSERT_TRUE(rdoc->is(col, JsonDoc::Type::kArray));
  // All the data requests happened before the first poll, so the windows
  // seen here sum to at most the total (catch-up puts them in window 0,
  // which may already have rotated out of the newest 8).
  double sum = 0;
  for (double v : rdoc->NumberArray(col)) sum += v;
  EXPECT_LE(sum, static_cast<double>(kDataRequests));

  auto ev = client.AdminRoundtrip(AdminOp::kEvents, 10);
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev->status, 0);
  auto edoc = JsonDoc::Parse(ev->json);
  ASSERT_TRUE(edoc.has_value());
  EXPECT_EQ(edoc->str(edoc->member(edoc->root(), "schema")), "reo.events.v1");

  client.Close();
  DrainAndJoin();
  EXPECT_EQ(server_->stats().admin_requests, 4u);
  EXPECT_EQ(server_->stats().admin_errors, 0u);
  EXPECT_EQ(server_->stats().requests, kDataRequests);
  EXPECT_EQ(client.stats().admin_commands, 4u);
}

TEST_F(ServerTest, MalformedAdminFrameAnswersErrorAndConnectionSurvives) {
  StartAdminServer();
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  auto read_admin_response = [&](int sock) -> Result<AdminResponse> {
    FrameDecoder decoder;
    std::vector<uint8_t> payload;
    for (;;) {
      FrameStatus st = decoder.Next(&payload);
      if (st == FrameStatus::kFrame) break;
      if (st != FrameStatus::kNeedMore) {
        return Status{ErrorCode::kCorrupted, "framing lost"};
      }
      uint8_t buf[4096];
      ssize_t n = recv(sock, buf, sizeof(buf), 0);
      if (n <= 0) return Status{ErrorCode::kUnavailable, "closed"};
      decoder.Feed({buf, static_cast<size_t>(n)});
    }
    return DecodeAdminResponse(payload);
  };

  // Admin magic with a nonzero reserved byte: the strict decoder rejects
  // it, and the server must answer in-band instead of dropping us.
  std::vector<uint8_t> bad =
      EncodeAdminCommand(AdminCommand{AdminOp::kHealth, 0});
  bad.back() = 0xEE;
  std::vector<uint8_t> frame = EncodeFrame(bad);
  ASSERT_EQ(send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  auto err = read_admin_response(fd);
  ASSERT_TRUE(err.ok());
  EXPECT_NE(err->status, 0);
  EXPECT_NE(err->json.find("error"), std::string::npos);

  // The connection survived: a valid HEALTH on the same socket answers.
  frame = EncodeFrame(EncodeAdminCommand(AdminCommand{AdminOp::kHealth, 0}));
  ASSERT_EQ(send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  auto ok = read_admin_response(fd);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, 0);
  close(fd);

  DrainAndJoin();
  EXPECT_EQ(server_->stats().admin_requests, 2u);
  EXPECT_EQ(server_->stats().admin_errors, 1u);
  EXPECT_EQ(server_->stats().requests, 0u);  // admin never counts as data
  bool saw_admin_error = false;
  for (const auto& e : events_.events()) {
    if (e.category == "server.admin_error") saw_admin_error = true;
  }
  EXPECT_TRUE(saw_admin_error);
}

// The attribution invariant the telemetry plane promises: with
// sample_every = 1 the transport-stage span histogram observes the same
// two clock stamps as the end-to-end service-latency histograms, so the
// sums and counts match exactly — not statistically.
TEST_F(ServerTest, StageLatencyAttributionMatchesEndToEnd) {
  StartAdminServer();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());
  constexpr int kOps = 50;
  for (int i = 0; i < kOps; ++i) {
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = ObjectId{kFirstUserId, kTestObject.oid + 500 + i};
    create.logical_size = 256;
    ASSERT_TRUE(client.Roundtrip(create).ok());
    OsdCommand write;
    write.op = OsdOp::kWrite;
    write.id = create.id;
    write.data = std::vector<uint8_t>(256, static_cast<uint8_t>(i));
    write.logical_size = 256;
    ASSERT_TRUE(client.Roundtrip(write).ok());
    OsdCommand read;
    read.op = OsdOp::kRead;
    read.id = write.id;
    ASSERT_TRUE(client.Roundtrip(read).ok());
  }
  client.Close();
  DrainAndJoin();

  MetricSnapshot snap = telemetry_.Snapshot();
  const MetricSnapshot::Entry* transport =
      snap.Find("stage.transport.span_us");
  const MetricSnapshot::Entry* lat_read = snap.Find("server.latency.read_us");
  const MetricSnapshot::Entry* lat_write =
      snap.Find("server.latency.write_us");
  const MetricSnapshot::Entry* lat_other =
      snap.Find("server.latency.other_us");
  ASSERT_NE(transport, nullptr);
  ASSERT_NE(lat_read, nullptr);
  ASSERT_NE(lat_write, nullptr);
  ASSERT_NE(lat_other, nullptr);

  uint64_t end_to_end_count =
      lat_read->count + lat_write->count + lat_other->count;
  EXPECT_EQ(end_to_end_count, 1u + 3u * kOps);
  EXPECT_EQ(transport->count, end_to_end_count);
  double end_to_end_sum = lat_read->sum + lat_write->sum + lat_other->sum;
  EXPECT_NEAR(transport->sum, end_to_end_sum,
              1e-9 * std::max(1.0, end_to_end_sum));

  // The nested stage (osd_target spans under the transport root) was
  // attributed too, once per data request.
  const MetricSnapshot::Entry* target_stage =
      snap.Find("stage.osd_target.span_us");
  ASSERT_NE(target_stage, nullptr);
  EXPECT_EQ(target_stage->count, end_to_end_count);
}

// One shard never forwards: namespace commands (FORMAT, LIST) and control
// writes, which fan out or route by their embedded target at N > 1, all
// execute inline on the one loop, and the admin plane answers for shard 0.
TEST_F(ServerTest, OneShardRunsEveryCommandInline) {
  StartAdminServer();
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());

  OsdCommand create;
  create.op = OsdOp::kCreate;
  create.id = kTestObject;
  create.logical_size = 64;
  ASSERT_TRUE(client.Roundtrip(create).ok());
  OsdCommand setid;
  setid.op = OsdOp::kWrite;
  setid.id = kControlObject;
  setid.data = EncodeControlMessage(
      SetIdCommand{.target = kTestObject, .class_id = 2});
  setid.logical_size = setid.data.size();
  ASSERT_TRUE(client.Roundtrip(setid).ok());
  OsdCommand list;
  list.op = OsdOp::kList;
  list.id = ObjectId{kTestObject.pid, 0};
  OsdResponse listed = client.Roundtrip(list);
  ASSERT_TRUE(listed.ok());
  EXPECT_NE(std::find(listed.list.begin(), listed.list.end(), kTestObject.oid),
            listed.list.end());
  constexpr double kDataRequests = 4;

  auto health = client.AdminRoundtrip(AdminOp::kHealth);
  ASSERT_TRUE(health.ok());
  auto hdoc = JsonDoc::Parse(health->json);
  ASSERT_TRUE(hdoc.has_value());
  EXPECT_EQ(hdoc->number(hdoc->member(hdoc->root(), "shards")), 1.0);
  EXPECT_EQ(hdoc->number(hdoc->member(hdoc->root(), "shard")), 0.0);
  EXPECT_EQ(hdoc->number(hdoc->member(hdoc->root(), "forwarded")), 0.0);
  EXPECT_EQ(hdoc->number(hdoc->member(hdoc->root(), "forward_executed")), 0.0);
  EXPECT_EQ(hdoc->number(hdoc->member(hdoc->root(), "requests")),
            kDataRequests);

  // STATS arg 1 is shard 0 alone, which at one shard is the whole process.
  auto requests_in = [&](uint32_t arg) {
    auto stats = client.AdminRoundtrip(AdminOp::kStats, arg);
    EXPECT_TRUE(stats.ok());
    EXPECT_EQ(stats->status, 0) << "arg " << arg;
    auto doc = JsonDoc::Parse(stats->json);
    EXPECT_TRUE(doc.has_value());
    return doc->number(doc->Find({"counters", "server.requests"}));
  };
  EXPECT_EQ(requests_in(0), kDataRequests);
  EXPECT_EQ(requests_in(1), kDataRequests);
  auto out_of_range = client.AdminRoundtrip(AdminOp::kStats, 2);
  ASSERT_TRUE(out_of_range.ok());
  EXPECT_NE(out_of_range->status, 0);

  client.Close();
  DrainAndJoin();
  ShardedServerStats stats = server_->stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.forwarded, 0u);
  EXPECT_EQ(stats.forward_executed, 0u);
  EXPECT_EQ(stats.admin_errors, 1u);
}

TEST_F(ServerTest, IdleConnectionsAreReaped) {
  ShardedServerConfig cfg;
  cfg.idle_timeout_ms = 50;
  StartServer(cfg);
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());
  // Stop talking; the server should close us from its side.
  auto resp = client.Receive();
  EXPECT_FALSE(resp.ok());
  DrainAndJoin();
  EXPECT_EQ(server_->stats().closed, 1u);
}

// The idle timer measures time since the last complete frame: a frame
// every 20 ms keeps a 50 ms connection open for four timeouts' worth of
// wall time, and the silence after it still gets the connection reaped.
TEST_F(ServerTest, SteadyTrafficKeepsConnectionOpen) {
  ShardedServerConfig cfg;
  cfg.idle_timeout_ms = 50;
  StartServer(cfg);
  SocketInitiator client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Roundtrip(FormatCmd()).ok());
  OsdCommand create;
  create.op = OsdOp::kCreate;
  create.id = kTestObject;
  create.logical_size = 4;
  ASSERT_TRUE(client.Roundtrip(create).ok());

  // Writes, so a closed connection fails the round trip instead of being
  // retried on a new one.
  OsdCommand write;
  write.op = OsdOp::kWrite;
  write.id = kTestObject;
  write.data = {1, 2, 3, 4};
  write.logical_size = write.data.size();
  auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  int frames = 0;
  while (std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(client.Roundtrip(write).ok()) << "after " << frames << " frames";
    ++frames;
  }

  auto resp = client.Receive();  // silence: the server closes us
  EXPECT_FALSE(resp.ok());
  DrainAndJoin();
  ShardedServerStats stats = server_->stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.closed, 1u);
}

// --- Descriptor exhaustion ---------------------------------------------------

// A server that runs out of file descriptors cannot accept the queued
// connection, so its listener stays readable. The acceptor must stop
// watching it for a while instead of spinning on accept4, and must pick
// the queue up again once descriptors free up. The server runs in a forked
// child so its descriptor limit and CPU time are its own.
TEST(ServerFdExhaustionTest, AcceptPausesInsteadOfSpinning) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    rlimit lim{32, 32};
    if (setrlimit(RLIMIT_NOFILE, &lim) != 0) _exit(2);
    MapDataPlane plane;
    OsdTarget target(plane);
    MetricRegistry registry;
    ServedShard shards[] = {{.target = &target, .registry = &registry}};
    ShardedServer server(shards);
    if (!server.Listen().ok()) _exit(3);
    uint16_t port = server.port();
    if (write(fds[1], &port, sizeof(port)) != sizeof(port)) _exit(4);
    close(fds[1]);
    server.Run();
    _exit(0);
  }
  /// Kills and reaps the child once; returns the CPU seconds it used.
  struct Child {
    pid_t pid;
    double Reap() {
      auto cpu = [] {
        rusage r{};
        getrusage(RUSAGE_CHILDREN, &r);
        return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
               static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) /
                   1e6;
      };
      double before = cpu();
      if (pid > 0) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
        pid = -1;
      }
      return cpu() - before;
    }
    ~Child() { Reap(); }
  } child{pid};
  close(fds[1]);
  uint16_t port = 0;
  ASSERT_EQ(read(fds[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  close(fds[0]);

  // Serve and close one connection while descriptors are free, so the
  // child's first connection close runs with descriptors to spare. Under
  // UBSan that first close is the vptr check's first look at the
  // connection type, and with no descriptor left the check reports an
  // invalid vptr and aborts the child.
  {
    SocketInitiator warm;
    ASSERT_TRUE(warm.Connect("127.0.0.1", port).ok());
    ASSERT_TRUE(warm.Roundtrip(FormatCmd()).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Twice as many clients as the child has descriptors: the rest wait in
  // the listen backlog while the child sits idle for a second.
  std::vector<SocketInitiator> clients(60);
  for (SocketInitiator& c : clients) {
    ASSERT_TRUE(c.Connect("127.0.0.1", port).ok());
  }
  std::this_thread::sleep_for(std::chrono::seconds(1));

  // Once the extra clients go away, a new connection is served.
  clients.clear();
  SocketInitiatorConfig cfg;
  cfg.receive_timeout_ms = 5000;
  SocketInitiator client(cfg);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  EXPECT_TRUE(client.Roundtrip(FormatCmd()).ok());
  // A spinning acceptor would have burnt that whole second.
  EXPECT_LT(child.Reap(), 0.2) << "idle server spun on accept";
}

// --- Partial-failure tolerance (connect/receive timeouts, reconnect) ---------

/// A listener that accepts connections but never answers: the shape of a
/// hung (fail-slow) server from the client's point of view.
class SilentListener {
 public:
  SilentListener() {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        listen(fd_, 4) == 0) {
      socklen_t len = sizeof(addr);
      getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
      port_ = ntohs(addr.sin_port);
    }
  }
  ~SilentListener() {
    if (fd_ >= 0) close(fd_);
  }
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

TEST(InitiatorFaultTest, ReceiveTimeoutFailsFastOnSilentServer) {
  SilentListener server;
  ASSERT_GT(server.port(), 0);

  SocketInitiatorConfig cfg;
  cfg.receive_timeout_ms = 100;
  SocketInitiator client(cfg);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  OsdCommand read;
  read.op = OsdOp::kRead;
  read.id = kTestObject;
  OsdResponse resp = client.Roundtrip(read);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.sense, SenseCode::kFail);
  EXPECT_GE(client.stats().timeouts, 1u);
  // The deadline expiry drops the session (its state is unknown).
  EXPECT_FALSE(client.connected());
}

TEST(InitiatorFaultTest, IdempotentReadReconnectsAfterMidFlightKill) {
  // A server that dies between request and response: connection 1 is cut
  // after the request arrives; connection 2 answers. Only the initiator's
  // reconnect-retry path makes this invisible to the caller.
  int lfd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 4), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  uint16_t port = ntohs(addr.sin_port);

  std::thread fake_server([lfd] {
    // Connection 1: read a little of the request, then kill it.
    int c1 = accept(lfd, nullptr, nullptr);
    uint8_t buf[256];
    (void)recv(c1, buf, sizeof(buf), 0);
    close(c1);
    // Connection 2: answer the resent read with a valid response frame.
    int c2 = accept(lfd, nullptr, nullptr);
    (void)recv(c2, buf, sizeof(buf), 0);
    OsdResponse ok_resp;
    ok_resp.sense = SenseCode::kOk;
    ok_resp.data = {1, 2, 3, 4};
    std::vector<uint8_t> frame = EncodeFrame(EncodeResponse(ok_resp));
    (void)send(c2, frame.data(), frame.size(), MSG_NOSIGNAL);
    close(c2);
  });

  SocketInitiatorConfig cfg;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 1;
  SocketInitiator client(cfg);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  OsdCommand read;
  read.op = OsdOp::kRead;
  read.id = kTestObject;
  OsdResponse resp = client.Roundtrip(read);
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.data, (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(client.stats().reconnects, 1u);

  fake_server.join();
  close(lfd);
}

TEST(InitiatorFaultTest, ReconnectBackoffGrowsWithJitterAndCap) {
  // Mirrors fault/retry.h's bound test: exponential growth, jitter in
  // [0.5x, 1.5x), and — the reconnect-storm guard — a hard cap that
  // holds even at exponents that would overflow every integer width.
  SocketInitiatorConfig cfg;
  cfg.retry_backoff_ms = 20;
  cfg.retry_backoff_max_ms = 2000;
  Pcg32 rng(11, 4);
  for (int trial = 0; trial < 100; ++trial) {
    uint32_t b0 = ReconnectBackoffMs(cfg, 0, rng);
    EXPECT_GE(b0, 10u);   // 20 * 0.5
    EXPECT_LT(b0, 30u);   // 20 * 1.5
    uint32_t b3 = ReconnectBackoffMs(cfg, 3, rng);
    EXPECT_GE(b3, 80u);   // 20 * 2^3 * 0.5
    EXPECT_LT(b3, 240u);  // 20 * 2^3 * 1.5
    // Deep retries saturate at the cap instead of wrapping around to
    // tiny sleeps (2^retry overflows long before max_retries runs out).
    for (uint32_t retry : {8u, 31u, 64u, 1000u}) {
      EXPECT_EQ(ReconnectBackoffMs(cfg, retry, rng), 2000u);
    }
  }
  // Cap disabled (0): still no overflow, the exponent is clamped.
  cfg.retry_backoff_max_ms = 0;
  uint32_t huge = ReconnectBackoffMs(cfg, 1000, rng);
  EXPECT_GT(huge, 0u);
  // A zero base never sleeps, whatever the retry count.
  cfg.retry_backoff_ms = 0;
  EXPECT_EQ(ReconnectBackoffMs(cfg, 5, rng), 0u);
}

TEST(InitiatorFaultTest, WritesAreNeverBlindlyResent) {
  // The same mid-flight kill, but for a WRITE: the command may have been
  // applied before the cut, so Roundtrip must fail instead of replaying.
  int lfd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 4), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  uint16_t port = ntohs(addr.sin_port);

  std::thread fake_server([lfd] {
    int c1 = accept(lfd, nullptr, nullptr);
    uint8_t buf[256];
    (void)recv(c1, buf, sizeof(buf), 0);
    close(c1);
  });

  SocketInitiatorConfig cfg;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 1;
  SocketInitiator client(cfg);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  OsdCommand write;
  write.op = OsdOp::kWrite;
  write.id = kTestObject;
  write.data = {9, 9, 9};
  write.logical_size = 3;
  OsdResponse resp = client.Roundtrip(write);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(client.stats().reconnects, 0u);

  fake_server.join();
  close(lfd);
}

TEST(InitiatorFaultTest, ConnectTimeoutOnSaturatedBacklog) {
  // A listener with a full accept backlog drops further SYNs (Linux
  // default): from the client's side the connect just hangs, which is
  // exactly what the bounded connect must turn into a fast failure.
  int lfd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 0), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  uint16_t port = ntohs(addr.sin_port);

  // Saturate the backlog with connections nobody accepts.
  std::vector<int> fillers;
  for (int i = 0; i < 8; ++i) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    (void)connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(fd);
  }
  usleep(50 * 1000);  // let the queue fill before the probe

  SocketInitiatorConfig cfg;
  cfg.connect_timeout_ms = 150;
  SocketInitiator client(cfg);
  Status st = client.Connect("127.0.0.1", port);
  if (!st.ok()) {
    // The expected path: poll deadline expired (or the kernel refused).
    EXPECT_FALSE(client.connected());
    if (st.code() == ErrorCode::kIoError) {
      EXPECT_GE(client.stats().timeouts, 1u);
    }
  }
  // Kernels with syncookies may still complete the handshake; the test
  // then only proves the bounded path doesn't break a good connect.
  for (int fd : fillers) close(fd);
  close(lfd);
}

// --- Frame codec unit tests --------------------------------------------------

TEST(FrameCodecTest, ByteAtATimeReassembly) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
  std::vector<uint8_t> wire = EncodeFrame(payload);
  FrameDecoder decoder;
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Feed({&wire[i], 1});
    EXPECT_EQ(decoder.Next(&out), FrameStatus::kNeedMore);
  }
  decoder.Feed({&wire.back(), 1});
  ASSERT_EQ(decoder.Next(&out), FrameStatus::kFrame);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(decoder.Next(&out), FrameStatus::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodecTest, ManyFramesInOneFeed) {
  std::vector<uint8_t> wire;
  for (uint8_t i = 0; i < 10; ++i) {
    std::vector<uint8_t> payload(i + 1, i);
    AppendFrame(wire, payload);
  }
  FrameDecoder decoder;
  decoder.Feed(wire);
  std::vector<uint8_t> out;
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_EQ(decoder.Next(&out), FrameStatus::kFrame);
    EXPECT_EQ(out, std::vector<uint8_t>(i + 1, i));
  }
  EXPECT_EQ(decoder.Next(&out), FrameStatus::kNeedMore);
}

TEST(FrameCodecTest, EmptyPayloadRoundTrips) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame({}));
  std::vector<uint8_t> out{9};
  ASSERT_EQ(decoder.Next(&out), FrameStatus::kFrame);
  EXPECT_TRUE(out.empty());
}

TEST(FrameCodecTest, BadMagicPoisonsTheStream) {
  std::vector<uint8_t> wire = EncodeFrame(std::vector<uint8_t>{1, 2, 3});
  wire[0] ^= 0x01;
  FrameDecoder decoder;
  decoder.Feed(wire);
  std::vector<uint8_t> out;
  EXPECT_EQ(decoder.Next(&out), FrameStatus::kBadMagic);
  EXPECT_TRUE(decoder.poisoned());
  // Sticky: feeding a valid frame afterwards cannot resynchronize.
  decoder.Feed(EncodeFrame(std::vector<uint8_t>{4, 5}));
  EXPECT_EQ(decoder.Next(&out), FrameStatus::kBadMagic);
}

TEST(FrameCodecTest, OversizedLengthIsRejectedNotAllocated) {
  FrameDecoder decoder(/*max_payload=*/1024);
  std::vector<uint8_t> header = {0x52, 0x45, 0x4F, 0x46,  // "REOF"
                                 0xFF, 0xFF, 0xFF, 0x7F};
  decoder.Feed(header);
  std::vector<uint8_t> out;
  EXPECT_EQ(decoder.Next(&out), FrameStatus::kOversized);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameCodecTest, CrcMismatchIsPerFrameNotSticky) {
  std::vector<uint8_t> good = {10, 20, 30};
  std::vector<uint8_t> wire = EncodeFrame(good);
  wire[kFrameHeaderBytes + 1] ^= 0x40;
  FrameDecoder decoder;
  decoder.Feed(wire);
  AppendFrame(wire, good);  // second, intact frame
  decoder.Feed({wire.data() + FramedSize(good.size()),
                FramedSize(good.size())});
  std::vector<uint8_t> out;
  EXPECT_EQ(decoder.Next(&out), FrameStatus::kCrcMismatch);
  ASSERT_EQ(decoder.Next(&out), FrameStatus::kFrame);
  EXPECT_EQ(out, good);
}

// Regression for the per-call exact reserve() in AppendFrame: it capped
// capacity at exactly the bytes needed, so every append in a batch
// reallocated and copied the whole buffer (quadratic). With geometric
// growth, N appends may only change capacity O(log N) times.
TEST(FrameCodecTest, BatchAppendReallocatesLogarithmically) {
  constexpr int kFrames = 1000;
  std::vector<uint8_t> payload(100, 0xCD);
  std::vector<uint8_t> wire;
  int capacity_changes = 0;
  size_t cap = wire.capacity();
  for (int i = 0; i < kFrames; ++i) {
    AppendFrame(wire, payload);
    if (wire.capacity() != cap) {
      cap = wire.capacity();
      ++capacity_changes;
    }
  }
  // log2(1000 * 112B) ≈ 17; leave slack for implementation growth factors.
  EXPECT_LE(capacity_changes, 40) << "quadratic append is back";
  // And the bytes are still a valid frame stream.
  FrameDecoder decoder;
  decoder.Feed(wire);
  std::vector<uint8_t> out;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(decoder.Next(&out), FrameStatus::kFrame);
    ASSERT_EQ(out, payload);
  }
}

// --- FrameQueue --------------------------------------------------------------

namespace {

// Flattens whatever Gather currently exposes, honoring a byte budget, the
// way DoWrite's sendmsg would consume it.
std::vector<uint8_t> DrainQueue(FrameQueue& q, size_t chunk) {
  std::vector<uint8_t> all;
  while (!q.empty()) {
    struct iovec iov[4];
    size_t n_iov = q.Gather(iov, 4);
    if (n_iov == 0) break;
    size_t took = 0;
    for (size_t i = 0; i < n_iov && took < chunk; ++i) {
      size_t n = std::min(chunk - took, iov[i].iov_len);
      const uint8_t* p = static_cast<const uint8_t*>(iov[i].iov_base);
      all.insert(all.end(), p, p + n);
      took += n;
    }
    q.Consume(took);
  }
  return all;
}

}  // namespace

TEST(FrameQueueTest, GatheredBytesMatchEncodeFrame) {
  FrameMetaPool pool;
  FrameQueue q(pool);
  std::vector<uint8_t> expect;
  for (uint8_t i = 0; i < 7; ++i) {
    std::vector<uint8_t> payload(i * 13 + 1, i);
    AppendFrame(expect, payload);
    q.Push(FramePayload{.head = std::move(payload)});
  }
  EXPECT_EQ(q.pending_bytes(), expect.size());
  // Drain in awkward 5-byte slices so Consume repeatedly stops mid-header,
  // mid-payload, and mid-trailer.
  std::vector<uint8_t> got = DrainQueue(q, 5);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(q.pending_bytes(), 0u);
}

TEST(FrameQueueTest, MultiPartPushMatchesFlatFrame) {
  // A head/body/tail push must put the exact bytes of
  // EncodeFrame(head‖body‖tail) on the wire — including the CRC trailer,
  // which is built by seeded continuation across the parts.
  FrameMetaPool pool;
  FrameQueue q(pool);
  std::vector<uint8_t> expect;
  struct Case {
    size_t head, body, tail;
  };
  // Cover empty parts in every position (the 5-span gather skips them).
  const Case cases[] = {{21, 1000, 11}, {0, 64, 0}, {8, 0, 8},
                        {0, 0, 5},      {3, 0, 0},  {0, 17, 9}};
  uint8_t fill = 1;
  for (const Case& c : cases) {
    FramePayload p;
    p.head.assign(c.head, fill++);
    p.body.assign(c.body, fill++);
    p.tail.assign(c.tail, fill++);
    std::vector<uint8_t> flat = p.head;
    flat.insert(flat.end(), p.body.begin(), p.body.end());
    flat.insert(flat.end(), p.tail.begin(), p.tail.end());
    AppendFrame(expect, flat);
    EXPECT_EQ(p.size(), flat.size());
    q.Push(std::move(p));
  }
  EXPECT_EQ(q.pending_bytes(), expect.size());
  // Awkward 7-byte slices stop mid-part and across part boundaries.
  EXPECT_EQ(DrainQueue(q, 7), expect);
  EXPECT_EQ(q.pending_bytes(), 0u);
}

TEST(FrameQueueTest, MetaBlocksAreRecycled) {
  FrameMetaPool pool;
  FrameQueue q(pool);
  for (int round = 0; round < 10; ++round) {
    q.Push(FramePayload{.head = std::vector<uint8_t>(64, 0xAB)});
    DrainQueue(q, 1 << 20);
  }
  // One live frame at a time: the pool should have allocated once and
  // served every later Push from the free list.
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.reused(), 9u);
}

// --- Timer wheel unit tests --------------------------------------------------

TEST(TimerWheelTest, FiresInDeadlineOrderAcrossSlots) {
  TimerWheel wheel(/*tick_ms=*/10, /*slots=*/8);
  std::vector<int> fired;
  wheel.Schedule(0, 35, [&] { fired.push_back(3); });
  wheel.Schedule(0, 5, [&] { fired.push_back(1); });
  wheel.Schedule(0, 100, [&] { fired.push_back(4); });  // > one revolution
  wheel.Schedule(0, 20, [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.pending(), 4u);

  wheel.Advance(10);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  wheel.Advance(40);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  wheel.Advance(99);
  EXPECT_EQ(fired.size(), 3u);
  wheel.Advance(101);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(wheel.NextTimeoutMs(101), -1);
}

TEST(TimerWheelTest, CancelPreventsFiring) {
  TimerWheel wheel(10, 8);
  bool fired = false;
  TimerId id = wheel.Schedule(0, 30, [&] { fired = true; });
  wheel.Cancel(id);
  wheel.Advance(1000);
  EXPECT_FALSE(fired);
  wheel.Cancel(id);  // double-cancel is a no-op
}

TEST(TimerWheelTest, CallbackMayScheduleMoreTimers) {
  TimerWheel wheel(10, 8);
  int fired = 0;
  wheel.Schedule(0, 10, [&] {
    ++fired;
    wheel.Schedule(10, 10, [&] { ++fired; });
  });
  wheel.Advance(20);
  wheel.Advance(40);
  EXPECT_EQ(fired, 2);
}

// Regression: a firing callback cancelling other timers that are due in
// the SAME slot (the drain path does exactly this — the drain-timeout
// callback destroys Connections, whose destructors cancel their idle
// timers) must not leave Advance() holding a freed list node.
TEST(TimerWheelTest, CallbackMayCancelOtherDueTimers) {
  TimerWheel wheel(10, 8);
  std::vector<TimerId> victims;
  int cancelled_fired = 0;
  int canceller_fired = 0;
  // All four land in the same slot and are all due at once; the canceller
  // is scheduled last so push_front puts it ahead of its victims.
  for (int i = 0; i < 3; ++i) {
    victims.push_back(
        wheel.Schedule(0, 20, [&] { ++cancelled_fired; }));
  }
  wheel.Schedule(0, 20, [&] {
    ++canceller_fired;
    for (TimerId id : victims) wheel.Cancel(id);
  });
  wheel.Advance(25);
  EXPECT_EQ(canceller_fired, 1);
  EXPECT_EQ(cancelled_fired, 0);
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(wheel.NextTimeoutMs(25), -1);
}

TEST(TimerWheelTest, NextTimeoutTracksEarliestDeadline) {
  TimerWheel wheel(10, 16);
  EXPECT_EQ(wheel.NextTimeoutMs(0), -1);
  wheel.Schedule(0, 70, [] {});
  wheel.Schedule(0, 25, [] {});
  EXPECT_EQ(wheel.NextTimeoutMs(0), 25);
  EXPECT_EQ(wheel.NextTimeoutMs(20), 5);
  EXPECT_EQ(wheel.NextTimeoutMs(30), 0);  // overdue clamps to poll-now
}

}  // namespace
}  // namespace reo
