// Cluster-mode tests: the consistent-hash ring's distribution and remap
// guarantees, node-health state transitions, the owner-hint control
// messages, the server-side cluster directory, and — the headline — a
// three-node drill that SIGKILLs one node mid-burst and byte-verifies
// every acked class-0/1 object after the cross-node differentiated
// recovery.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/cluster_initiator.h"
#include "cluster/hash_ring.h"
#include "cluster/node_health.h"
#include "cluster/recovery_driver.h"
#include "common/rng.h"
#include "map_data_plane.h"
#include "osd/cluster_directory.h"
#include "osd/control_protocol.h"
#include "osd/osd_target.h"
#include "shard/sharded_server.h"
#include "trace/event_log.h"

namespace reo {
namespace {

ObjectId KeyOf(uint32_t i) {
  return ObjectId{kFirstUserId, kFirstUserId + 0x1000 + i};
}

// --- Hash ring --------------------------------------------------------------

TEST(HashRingTest, SkewWithinBoundsUnderThousandVirtualNodes) {
  constexpr uint32_t kNodes = 5;
  constexpr uint32_t kKeys = 50000;
  HashRing ring(HashRingConfig{.virtual_nodes = 1000});
  for (uint32_t n = 0; n < kNodes; ++n) ring.AddNode(n);
  std::vector<uint32_t> counts(kNodes, 0);
  for (uint32_t i = 0; i < kKeys; ++i) ++counts[*ring.OwnerOf(KeyOf(i))];
  // 1000 vnodes/node keeps every share within 25% of the fair 1/N —
  // and in particular nowhere near zero (the failure mode where two
  // nodes' ring points collide and one shadows the other entirely).
  const double fair = static_cast<double>(kKeys) / kNodes;
  for (uint32_t n = 0; n < kNodes; ++n) {
    EXPECT_GT(counts[n], fair * 0.75) << "node " << n << " starved";
    EXPECT_LT(counts[n], fair * 1.25) << "node " << n << " overloaded";
  }
}

TEST(HashRingTest, EveryNodeOwnsKeysAtDefaultVnodeCount) {
  // Regression for the vnode point formula: OR-ing the node id into a
  // constant with overlapping bits gave nodes 0 and 1 identical points,
  // so node 1 owned nothing and a "kill node 1" drill tested nothing.
  for (uint32_t members : {2u, 3u, 5u, 8u}) {
    HashRing ring;
    for (uint32_t n = 0; n < members; ++n) ring.AddNode(n);
    std::vector<uint32_t> counts(members, 0);
    for (uint32_t i = 0; i < 3000; ++i) ++counts[*ring.OwnerOf(KeyOf(i))];
    for (uint32_t n = 0; n < members; ++n) {
      EXPECT_GT(counts[n], 0u)
          << "node " << n << " of " << members << " owns no keys";
    }
  }
}

TEST(HashRingTest, MembershipChangeRemapsAboutOneNthOfKeys) {
  constexpr uint32_t kNodes = 8;
  constexpr uint32_t kKeys = 20000;
  HashRing ring;
  for (uint32_t n = 0; n < kNodes; ++n) ring.AddNode(n);
  std::vector<uint32_t> before(kKeys);
  for (uint32_t i = 0; i < kKeys; ++i) before[i] = *ring.OwnerOf(KeyOf(i));

  ring.RemoveNode(3);
  uint32_t remapped = 0;
  for (uint32_t i = 0; i < kKeys; ++i) {
    uint32_t now = *ring.OwnerOf(KeyOf(i));
    if (now != before[i]) ++remapped;
    // Consistency: only the removed node's keys may move.
    if (before[i] != 3) {
      EXPECT_EQ(now, before[i]) << "key " << i;
    }
  }
  // Regression-pin the remap fraction near 1/N = 0.125 (the whole point
  // of consistent hashing; mod-N hashing would remap ~7/8 here).
  double fraction = static_cast<double>(remapped) / kKeys;
  EXPECT_GT(fraction, 0.06);
  EXPECT_LT(fraction, 0.20);

  // Re-adding restores the exact original assignment.
  ring.AddNode(3);
  for (uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(*ring.OwnerOf(KeyOf(i)), before[i]) << "key " << i;
  }
}

TEST(HashRingTest, RemovedNodesKeysLandOnTheirRingSuccessor) {
  // The invariant the owner-hint design rests on: the node a hint is
  // placed on (the ring successor) is exactly where the key remaps when
  // its owner leaves the ring.
  constexpr uint32_t kNodes = 5;
  HashRing ring;
  for (uint32_t n = 0; n < kNodes; ++n) ring.AddNode(n);
  std::vector<std::pair<ObjectId, uint32_t>> expect;
  for (uint32_t i = 0; i < 4000; ++i) {
    if (*ring.OwnerOf(KeyOf(i)) == 2) {
      expect.emplace_back(KeyOf(i), *ring.SuccessorOf(KeyOf(i)));
    }
  }
  ASSERT_FALSE(expect.empty());
  ring.RemoveNode(2);
  for (const auto& [id, successor] : expect) {
    EXPECT_EQ(*ring.OwnerOf(id), successor);
  }
}

TEST(HashRingTest, ReplicasAreDistinctAndOwnerFirst) {
  HashRing ring;
  for (uint32_t n = 0; n < 4; ++n) ring.AddNode(n);
  for (uint32_t i = 0; i < 200; ++i) {
    auto replicas = ring.ReplicasOf(KeyOf(i), 4);
    ASSERT_EQ(replicas.size(), 4u);
    EXPECT_EQ(replicas[0], *ring.OwnerOf(KeyOf(i)));
    EXPECT_EQ(replicas[1], *ring.SuccessorOf(KeyOf(i)));
    std::set<uint32_t> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), 4u);
  }
}

// --- Node health ------------------------------------------------------------

TEST(NodeHealthTest, ConsecutiveFailuresEscalateSuspectThenDead) {
  NodeHealthTracker health(3, NodeHealthConfig{});
  EXPECT_EQ(health.state(1), NodeState::kAlive);
  health.RecordFailure(1);
  EXPECT_EQ(health.state(1), NodeState::kAlive);
  health.RecordFailure(1);
  EXPECT_EQ(health.state(1), NodeState::kSuspect);
  EXPECT_TRUE(health.Usable(1));  // suspect still serves
  health.RecordFailure(1);
  health.RecordFailure(1);
  EXPECT_EQ(health.state(1), NodeState::kDead);
  EXPECT_FALSE(health.Usable(1));
  // One success revives fully.
  health.RecordSuccess(1, 100.0);
  EXPECT_EQ(health.state(1), NodeState::kAlive);
  EXPECT_EQ(health.stats().revived, 1u);
}

TEST(NodeHealthTest, ProbeTimerGatesDeadNodeRetries) {
  NodeHealthConfig cfg;
  cfg.probe_interval_ms = 100;
  NodeHealthTracker health(2, cfg);
  health.MarkDead(0);
  EXPECT_TRUE(health.ProbeDue(0, 1000));   // first probe goes out
  EXPECT_EQ(health.state(0), NodeState::kProbing);
  health.RecordFailure(0);                 // probe failed
  EXPECT_EQ(health.state(0), NodeState::kDead);
  EXPECT_FALSE(health.ProbeDue(0, 1050));  // interval not elapsed
  EXPECT_TRUE(health.ProbeDue(0, 1100));   // due again
  health.RecordSuccess(0, 50.0);           // probe connected
  EXPECT_EQ(health.state(0), NodeState::kAlive);
}

TEST(NodeHealthTest, FailSlowEwmaMarksLaggardSuspect) {
  NodeHealthConfig cfg;
  cfg.fail_slow_min_samples = 4;
  cfg.fail_slow_factor = 8.0;
  NodeHealthTracker health(3, cfg);
  for (int i = 0; i < 8; ++i) {
    health.RecordSuccess(0, 100.0);
    health.RecordSuccess(1, 100.0);
    health.RecordSuccess(2, 100.0);
  }
  EXPECT_EQ(health.state(2), NodeState::kAlive);
  // Node 2 never fails a connection — it just gets 100x slower.
  for (int i = 0; i < 32; ++i) health.RecordSuccess(2, 10000.0);
  EXPECT_EQ(health.state(2), NodeState::kSuspect);
  EXPECT_EQ(health.state(0), NodeState::kAlive);
}

// --- Control messages + endpoint parsing ------------------------------------

TEST(ClusterControlTest, OwnerHintAndNodeDownRoundTrip) {
  OwnerHintCommand hint{.target = KeyOf(7),
                        .class_id = 1,
                        .hotness = 42,
                        .owner = 2};
  auto decoded = DecodeControlMessage(EncodeControlMessage(hint));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(std::holds_alternative<OwnerHintCommand>(*decoded));
  EXPECT_EQ(std::get<OwnerHintCommand>(*decoded), hint);

  NodeDownCommand down{.node = 3};
  auto decoded2 = DecodeControlMessage(EncodeControlMessage(down));
  ASSERT_TRUE(decoded2.ok());
  ASSERT_TRUE(std::holds_alternative<NodeDownCommand>(*decoded2));
  EXPECT_EQ(std::get<NodeDownCommand>(*decoded2), down);
}

TEST(ClusterControlTest, ParseClusterEndpoints) {
  auto list = ParseClusterEndpoints("127.0.0.1:9551,10.0.0.2:80,host:65535");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].host, "127.0.0.1");
  EXPECT_EQ(list[0].port, 9551);
  EXPECT_EQ(list[2].host, "host");
  EXPECT_EQ(list[2].port, 65535);
  EXPECT_TRUE(ParseClusterEndpoints("").empty());
  EXPECT_TRUE(ParseClusterEndpoints("noport").empty());
  EXPECT_TRUE(ParseClusterEndpoints("h:0").empty());
  EXPECT_TRUE(ParseClusterEndpoints("h:70000").empty());
  EXPECT_TRUE(ParseClusterEndpoints("h:12,").empty());
  EXPECT_TRUE(ParseClusterEndpoints("h:12x").empty());
}

// The one port parser every flag, port file and endpoint list uses.
TEST(ClusterControlTest, ParsePortTakesDigitsOnlyUpTo65535) {
  EXPECT_EQ(ParsePort("0"), 0);
  EXPECT_EQ(ParsePort("9551"), 9551);
  EXPECT_EQ(ParsePort("65535"), 65535);
  EXPECT_EQ(ParsePort("4464\n"), 4464);  // a port file's line
  EXPECT_EQ(ParsePort("00080"), 80);
  for (const char* bad : {"", "\n", "65536", "70000", "99999999999", "abc",
                          "12x", "-1", "+80", " 80", "80 ", "80\n\n", "8\n0",
                          "0x50"}) {
    EXPECT_EQ(ParsePort(bad), std::nullopt) << "'" << bad << "'";
  }
}

// --- Cluster directory ------------------------------------------------------

TEST(ClusterDirectoryTest, NodeDownThenRefetchEmitsClassAccounting) {
  ClusterDirectory dir(/*local_node=*/0);
  EventLog events;
  dir.AttachEvents(events);
  // Four hints owned by node 1, one per class.
  for (uint8_t cls = 0; cls < 4; ++cls) {
    dir.RecordHint(OwnerHintCommand{.target = KeyOf(cls),
                                    .class_id = cls,
                                    .hotness = 10u - cls,
                                    .owner = 1},
                   /*now=*/1000);
  }
  EXPECT_EQ(dir.size(), 4u);
  EXPECT_EQ(dir.stats().hints, 4u);

  dir.OnNodeDown(NodeDownCommand{.node = 1}, /*now=*/2000);
  EXPECT_EQ(dir.stats().node_downs, 1u);
  EXPECT_EQ(dir.stats().degraded_misses, 2u);  // classes 2 and 3

  // A local write of a down-owned object is a refetch arriving: it is
  // re-owned here and emits cluster.refetch.
  dir.OnLocalWrite(KeyOf(0), /*now=*/3000);
  EXPECT_EQ(dir.stats().refetches, 1u);
  // Writing an object never hinted (or not down) is not a refetch.
  dir.OnLocalWrite(KeyOf(99), /*now=*/3100);
  EXPECT_EQ(dir.stats().refetches, 1u);

  const auto& log = events.events();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].category, "cluster.node_down");
  EXPECT_EQ(log[1].category, "cluster.refetch");
}

TEST(ClusterDirectoryTest, MergedJsonOrdersClassThenHotness) {
  ClusterDirectory a(0), b(0);
  a.RecordHint(
      OwnerHintCommand{.target = KeyOf(1), .class_id = 1, .hotness = 5,
                       .owner = 2},
      1);
  b.RecordHint(
      OwnerHintCommand{.target = KeyOf(2), .class_id = 0, .hotness = 1,
                       .owner = 2},
      1);
  b.RecordHint(
      OwnerHintCommand{.target = KeyOf(3), .class_id = 1, .hotness = 9,
                       .owner = 2},
      1);
  std::string json = ClusterDirectory::MergedJson({&a, &b});
  // Refetch order: class 0 first, then class 1 hot-before-cold.
  size_t p0 = json.find("\"oid\":\"0x11002\"");  // class 0
  size_t p1 = json.find("\"oid\":\"0x11003\"");  // class 1, hotness 9
  size_t p2 = json.find("\"oid\":\"0x11001\"");  // class 1, hotness 5
  ASSERT_NE(p0, std::string::npos);
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  EXPECT_LT(p0, p1);
  EXPECT_LT(p1, p2);
}

// --- Three-node kill drill --------------------------------------------------

constexpr uint32_t kDrillObjects = 120;
constexpr uint64_t kDrillBytes = 4096;

std::vector<uint8_t> DrillPayload(uint32_t rank) {
  std::vector<uint8_t> data(kDrillBytes);
  Pcg32 rng(rank + 1, 0x9e3779b9);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

/// Child-process body: one full cluster node (data plane + target +
/// directory + server) on an ephemeral port reported over `port_fd`,
/// serving until SIGKILLed — a real process death, torn connections and
/// all, unlike an in-process drain.
[[noreturn]] void RunNodeChild(uint32_t node_id, int port_fd) {
  MapDataPlane plane;
  OsdTarget target(plane);
  ClusterDirectory directory(node_id);
  target.AttachCluster(directory);
  ServedShard shards[] = {{.target = &target, .cluster = &directory}};
  ShardedServer server(shards);
  if (!server.Listen().ok()) _exit(2);
  uint16_t port = static_cast<uint16_t>(server.port());
  if (write(port_fd, &port, sizeof(port)) != sizeof(port)) _exit(3);
  close(port_fd);
  server.Run();
  _exit(0);
}

/// SIGKILLs and reaps every still-running drill node on scope exit, so
/// a failing ASSERT cannot leak children.
struct NodeReaper {
  std::vector<pid_t> pids;
  ~NodeReaper() {
    for (pid_t pid : pids) {
      if (pid > 0) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
      }
    }
  }
};

TEST(ClusterIntegrationTest, ThreeNodeKillDrillPreservesAckedClass01) {
  constexpr uint32_t kNodes = 3;
  constexpr uint32_t kDeadNode = 1;
  NodeReaper reaper;
  std::vector<ClusterEndpoint> endpoints;
  for (uint32_t n = 0; n < kNodes; ++n) {
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      close(fds[0]);
      RunNodeChild(n, fds[1]);
    }
    close(fds[1]);
    reaper.pids.push_back(pid);
    uint16_t port = 0;
    ASSERT_EQ(read(fds[0], &port, sizeof(port)),
              static_cast<ssize_t>(sizeof(port)));
    close(fds[0]);
    ASSERT_GT(port, 0);
    endpoints.push_back({"127.0.0.1", port});
  }

  ClusterInitiatorConfig ccfg;
  ccfg.session.receive_timeout_ms = 5000;
  ClusterInitiator cluster(endpoints, ccfg);
  ASSERT_TRUE(cluster.ConnectAll().ok());

  OsdCommand format;
  format.op = OsdOp::kFormat;
  format.capacity_bytes = 64ull << 20;
  ASSERT_TRUE(cluster.Roundtrip(format).ok());

  // Populate: every object created, classified rank%4 (placing its
  // owner hint on the ring successor), and written on its ring owner.
  std::set<uint32_t> acked;
  for (uint32_t rank = 0; rank < kDrillObjects; ++rank) {
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = KeyOf(rank);
    create.logical_size = kDrillBytes;
    ASSERT_TRUE(cluster.Roundtrip(create).ok()) << "rank " << rank;
    ASSERT_TRUE(
        cluster.Classify(KeyOf(rank), static_cast<uint8_t>(rank % 4)).ok());
    OsdCommand write;
    write.op = OsdOp::kWrite;
    write.id = KeyOf(rank);
    write.data = DrillPayload(rank);
    write.logical_size = write.data.size();
    ASSERT_TRUE(cluster.Roundtrip(write).ok()) << "rank " << rank;
    acked.insert(rank);
  }

  // Mixed burst with the SIGKILL landing in the middle of it. Post-kill
  // failures are the drill: reads fail over, writes surface unacked.
  Pcg32 rng(7, 3);
  for (uint32_t i = 0; i < 400; ++i) {
    if (i == 200) {
      kill(reaper.pids[kDeadNode], SIGKILL);
      waitpid(reaper.pids[kDeadNode], nullptr, 0);
      reaper.pids[kDeadNode] = -1;
    }
    uint32_t rank = rng.Next() % kDrillObjects;
    OsdCommand cmd;
    if (rng.Next() % 2 == 0) {
      cmd.op = OsdOp::kWrite;
      cmd.id = KeyOf(rank);
      cmd.data = DrillPayload(rank);  // content-stable: replays are safe
      cmd.logical_size = cmd.data.size();
    } else {
      cmd.op = OsdOp::kRead;
      cmd.id = KeyOf(rank);
    }
    (void)cluster.Roundtrip(cmd);
  }
  EXPECT_GT(cluster.stats().transport_failures, 0u);
  EXPECT_EQ(cluster.health().state(kDeadNode), NodeState::kDead);

  // Cross-node differentiated recovery, with the deterministic payload
  // generator standing in for the backend.
  ClusterRecoveryDriver driver(
      cluster, [](ObjectId id) -> Result<std::vector<uint8_t>> {
        const uint64_t base = kFirstUserId + 0x1000;
        if (id.pid != kFirstUserId || id.oid < base ||
            id.oid >= base + kDrillObjects) {
          return Status{ErrorCode::kNotFound, "no origin object"};
        }
        return DrillPayload(static_cast<uint32_t>(id.oid - base));
      });

  // The plan must be strictly class-ordered (0 before 1) and
  // hot-before-cold within a class — pinned before execution.
  ClusterRecoveryReport plan_report;
  auto plan = driver.Plan(kDeadNode, plan_report);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->empty()) << "dead node owned no class-0/1 objects";
  for (size_t i = 1; i < plan->size(); ++i) {
    const RefetchItem& prev = (*plan)[i - 1];
    const RefetchItem& item = (*plan)[i];
    ASSERT_LE(prev.class_id, item.class_id);
    if (prev.class_id == item.class_id) {
      ASSERT_GE(prev.hotness, item.hotness);
    }
  }

  auto report = driver.Recover(kDeadNode);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->survivors_queried, kNodes - 1);
  EXPECT_GT(report->refetched(), 0u);
  EXPECT_EQ(report->refetch_failures, 0u);

  // The acceptance gate: every acked class-0/1 object byte-verifies
  // through the survivors; class 2/3 may degrade to clean misses, but
  // anything served must still be byte-exact.
  uint32_t degraded = 0;
  for (uint32_t rank : acked) {
    OsdCommand read;
    read.op = OsdOp::kRead;
    read.id = KeyOf(rank);
    OsdResponse resp = cluster.Roundtrip(read);
    if (!resp.ok()) {
      ASSERT_GE(rank % 4, 2u) << "acked class-" << rank % 4
                              << " object lost: rank " << rank;
      ++degraded;
      continue;
    }
    std::vector<uint8_t> want = DrillPayload(rank);
    ASSERT_GE(resp.data.size(), want.size());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), resp.data.begin()))
        << "rank " << rank << " corrupt";
  }
  // The dead node owned ~1/3 of the space; its class-2/3 share must have
  // degraded rather than been refetched.
  EXPECT_GT(degraded, 0u);
}

}  // namespace
}  // namespace reo
