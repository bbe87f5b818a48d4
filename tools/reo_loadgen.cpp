// reo_loadgen: closed-loop load generator for reo_server.
//
// Opens N connections, each driven by its own thread in a closed loop
// (one outstanding request per connection — the paper's replay style,
// §VI.A), issuing a configurable read/write mix over a Zipf-popular
// object set (common/zipf). Latencies land in common/histogram
// instances, are merged into a MetricRegistry, and the summary
// (throughput, p50/p99/p999) plus the JSON snapshot are reported from
// that registry. Exits non-zero if the wire saw any frame/CRC/decode
// error, so CI can assert a clean run. Examples:
//
//   reo_loadgen --port 9555 --connections 8 --requests 5000
//   reo_loadgen --port $(cat port.txt) --write-ratio 0.3 --zipf 0.9
//       --stats-out loadgen_stats.json
//
// Crash testing (used by the crash-recovery smoke scenario):
//
//   # classify everything dirty, SIGKILL the server after 200 acked burst
//   # writes, and record which writes were acknowledged:
//   reo_loadgen --port N --write-class 1 --write-ratio 1.0
//       --kill-after 200 --kill-pid-file server.pid --ack-manifest acks.txt
//   # after restart: verify every acknowledged object is readable with
//   # the correct contents (exit 3 on a corrupt payload, 4 on any loss):
//   reo_loadgen --port N --verify-manifest acks.txt
//
// Every phase (populate, the workers, a read-back) speaks OSD through one
// session: a SocketInitiator for --port, a ClusterInitiator for --cluster.
//
// Cluster mode (used by the cluster smoke scenario): workers route through
// a consistent-hash ClusterInitiator over the listed nodes; --kill-node
// SIGKILLs one node mid-burst, after which the loadgen runs the
// cross-node differentiated recovery (survivor OWNERS -> backend refetch
// of class 0/1) and drain-verifies every acked object per class:
//
//   reo_loadgen --cluster 127.0.0.1:9551,127.0.0.1:9552,127.0.0.1:9553
//       --class-cycle --kill-node 1 --kill-after 200
//       --kill-pid-file node1.pid
#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "cluster/cluster_initiator.h"
#include "cluster/recovery_driver.h"
#include "common/file_util.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/units.h"
#include "common/zipf.h"
#include "fault/fault_spec.h"
#include "loadgen_exit.h"
#include "osd/osd_initiator.h"
#include "server/socket_initiator.h"
#include "shard/shard_router.h"
#include "telemetry/bench_json.h"
#include "telemetry/metric_registry.h"

using namespace reo;

namespace {

/// user+system CPU seconds consumed by this process so far.
double ProcessCpuSeconds() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Most closed-loop connections one run opens: each is a thread.
constexpr size_t kMaxConnections = 256;

/// The command line; main() declares what each flag means.
struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 4;
  uint64_t requests = 2000;  ///< per connection
  double write_ratio = 0.3;
  uint32_t objects = 1000;
  double zipf_skew = 0.9;
  uint64_t object_bytes = 64 * 1024;
  uint64_t seed = 42;
  size_t shards = 1;  ///< only labels the report: the wire is shard-blind
  bool verify = true;
  std::string stats_out;
  std::string bench_out;

  int write_class = -1;  ///< -1: objects keep the server's default class
  uint64_t kill_after = 0;
  std::string kill_pid_file;
  std::string ack_manifest;
  std::string verify_manifest;

  /// Chaos mode: client-side partial-failure tolerance (receive
  /// deadlines, reconnect-retry, bounded op retries) and a final
  /// drain-verify of every acknowledged write.
  bool chaos = false;

  std::vector<ClusterEndpoint> cluster;  ///< routes via a ClusterInitiator
  bool class_cycle = false;
  int kill_node = -1;  ///< -1: no node is killed
};

/// The redundancy class `rank` was assigned at populate, -1 = never
/// classified (server default). The drill's per-class verdict hangs off
/// this: 0/1 must survive a node kill, 2/3 may degrade to clean misses.
int ClassOfRank(const Options& opt, uint32_t rank) {
  if (opt.class_cycle) return static_cast<int>(rank % 4);
  return opt.write_class;
}

/// Acknowledged-write bookkeeping shared by the worker threads.
std::atomic<uint64_t> g_acked_writes{0};
std::atomic<bool> g_killed{false};

/// SIGKILLs the process named in `opt.kill_pid_file` (crash testing).
void KillServer(const Options& opt) {
  auto pid_text = ReadFileToString(opt.kill_pid_file);
  if (!pid_text.ok()) {
    std::fprintf(stderr, "kill: cannot read %s: %s\n",
                 opt.kill_pid_file.c_str(),
                 pid_text.status().to_string().c_str());
    return;
  }
  std::string_view text = *pid_text;
  if (text.ends_with('\n')) text.remove_suffix(1);
  std::optional<uint64_t> pid = ParseUint(text, 2, INT32_MAX);
  if (!pid) {
    std::fprintf(stderr, "kill: %s holds no plausible pid\n",
                 opt.kill_pid_file.c_str());
    return;
  }
  ::kill(static_cast<pid_t>(*pid), SIGKILL);
  g_killed.store(true);
  std::printf("SIGKILL sent to server pid %llu after %llu acked writes\n",
              static_cast<unsigned long long>(*pid),
              static_cast<unsigned long long>(g_acked_writes.load()));
  std::fflush(stdout);
}

/// Everything one worker thread produces; merged on the main thread
/// after join (MetricRegistry itself is single-threaded by design).
struct WorkerResult {
  Histogram read_us;
  Histogram write_us;
  Histogram all_us;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t sense_errors = 0;
  uint64_t verify_errors = 0;
  std::vector<uint32_t> acked_ranks;  ///< writes the server acknowledged
  SocketInitiatorStats wire;
  ClusterInitiatorStats cluster;  ///< cluster mode only (failovers etc.)
  Status fatal = Status::Ok();
};

ObjectId IdForRank(uint32_t rank) {
  // Skip past the exofs reserved metadata oids (Table I: 0x10000-0x10004).
  return ObjectId{kFirstUserId, kFirstUserId + 0x1000 + rank};
}

/// Deterministic per-object payload so any reader can verify contents.
std::vector<uint8_t> PayloadFor(uint32_t rank, uint64_t bytes) {
  std::vector<uint8_t> data(bytes);
  Pcg32 rng(/*seed=*/rank + 1, /*stream=*/0x9e3779b9);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

/// Whether a read answer holds `want`. The server may return chunk-padded
/// payloads; the logical-size prefix must match exactly.
bool HoldsPayload(std::span<const uint8_t> got, std::span<const uint8_t> want) {
  return got.size() >= want.size() &&
         std::equal(want.begin(), want.end(), got.begin());
}

/// Per-rank payload cache for the timed run. PayloadFor is deterministic
/// but costs a PCG call per byte — regenerating 64 KiB per read-verify
/// (and per write) burned more client CPU than the whole wire round trip,
/// so the harness was largely measuring itself. Built once before the
/// clock starts; shared read-only across workers.
class PayloadCache {
 public:
  PayloadCache(uint32_t objects, uint64_t bytes) {
    payloads_.reserve(objects);
    for (uint32_t rank = 0; rank < objects; ++rank) {
      payloads_.push_back(PayloadFor(rank, bytes));
    }
  }
  std::span<const uint8_t> Of(uint32_t rank) const { return payloads_[rank]; }

 private:
  std::vector<std::vector<uint8_t>> payloads_;
};

/// One phase's path to the system under test: a SocketInitiator for
/// --port, or a ClusterInitiator over the --cluster ring. Every phase
/// speaks OSD through it, so each phase exists once for both.
///
/// On one node under --chaos-spec, a command that gets a non-OK answer is
/// sent up to `attempts` times in all, reconnecting a dropped connection
/// first: loadgen payloads are content-stable per rank, so any resend is
/// safe. The ring re-routes around a dead node on its own.
class Client final : public OsdSession {
 public:
  /// `salt` keeps each client's reconnect-jitter streams distinct.
  Client(const Options& opt, uint64_t salt, int attempts = 1)
      : opt_(opt), attempts_(opt.chaos ? attempts : 1) {
    SocketInitiatorConfig cfg;
    cfg.seed = opt.seed + salt;
    // A receive deadline, so a killed or faulty node fails fast instead of
    // hanging a phase.
    if (opt.chaos || !opt.cluster.empty()) cfg.receive_timeout_ms = 15000;
    if (!opt.cluster.empty()) {
      ring_.emplace(opt.cluster, cfg);
      // Every client knows the classes populate assigns, so power-of-two
      // read counts re-hint hotness to the survivors (hot-before-cold
      // refetch).
      for (uint32_t rank = 0; rank < opt.objects; ++rank) {
        int cls = ClassOfRank(opt, rank);
        if (cls >= 0) {
          ring_->NoteObject(IdForRank(rank), static_cast<uint8_t>(cls));
        }
      }
      return;
    }
    if (opt.chaos) {  // reconnect-retry of idempotent reads
      cfg.max_retries = 4;
      cfg.retry_backoff_ms = 20;
    }
    node_.emplace(cfg);
  }

  Status Connect() {
    return node_ ? node_->Connect(opt_.host, opt_.port) : ring_->ConnectAll();
  }

  OsdResponse Roundtrip(const OsdCommand& command) override {
    if (ring_) return ring_->Roundtrip(command);
    OsdResponse resp = node_->Roundtrip(command);
    for (int r = 1; !resp.ok() && r < attempts_; ++r) {
      if (lost() && !Reconnect().ok()) break;
      resp = node_->Roundtrip(command);
    }
    return resp;
  }

  /// A one-node connection that dropped; never true on the ring.
  bool lost() const { return node_ && !node_->connected(); }
  Status Reconnect() { return node_->Connect(opt_.host, opt_.port); }

  ClusterInitiator* ring() { return ring_ ? &*ring_ : nullptr; }
  SocketInitiatorStats wire() const {
    return node_ ? node_->stats() : ring_->WireStats();
  }
  ClusterInitiatorStats cluster() const {
    return ring_ ? ring_->stats() : ClusterInitiatorStats{};
  }
  uint64_t wire_errors() const {
    SocketInitiatorStats w = wire();
    return w.crc_errors + w.frame_errors + w.decode_errors;
  }

 private:
  const Options& opt_;
  int attempts_;
  std::optional<SocketInitiator> node_;
  std::optional<ClusterInitiator> ring_;
};

/// One closed-loop connection. On the ring, mid-run failures are the point
/// of the node-kill drill: a failed op counts as a sense error (or,
/// post-kill, as expected fallout) and the loop keeps going while the
/// ring re-routes around the dead node.
void Worker(const Options& opt, const ZipfSampler& zipf,
            const PayloadCache& payloads, size_t index, WorkerResult* out) {
  Client client(opt, 0x100 + index);
  Status st = client.Connect();
  if (!st.ok()) {
    out->fatal = st;
    return;
  }
  OsdInitiator initiator(client);
  Pcg32 rng(opt.seed + 0x1000 + index, /*stream=*/index);
  for (uint64_t i = 0; i < opt.requests; ++i) {
    uint32_t rank = zipf.Sample(rng);
    bool is_write = rng.NextDouble() < opt.write_ratio;
    ObjectId id = IdForRank(rank);
    auto start = std::chrono::steady_clock::now();
    OsdResponse resp =
        is_write ? initiator.WriteObject(id, payloads.Of(rank),
                                         opt.object_bytes, 0)
                 : initiator.ReadObject(id, 0);
    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (client.lost()) {
      // In chaos mode a dropped session is a tolerable fault: re-establish
      // and keep going (the failed op already counted as a sense error).
      if (opt.chaos && client.Reconnect().ok()) {
        ++out->sense_errors;
        continue;
      }
      // In kill mode the server vanishing is the point, not a failure.
      if (!g_killed.load()) {
        out->fatal = Status{ErrorCode::kUnavailable, "connection lost mid-run"};
      }
      break;
    }
    (is_write ? out->write_us : out->read_us).Add(us);
    out->all_us.Add(us);
    ++(is_write ? out->writes : out->reads);
    if (is_write && resp.ok()) {
      // This response means the server committed (and, for replicated
      // classes, fsynced) the write before answering: from here on a crash
      // must not lose it. Record it, and pull the trigger at the threshold.
      // A write the ring could not place is not acked, and never blindly
      // resent to another node.
      out->acked_ranks.push_back(rank);
      uint64_t acked = g_acked_writes.fetch_add(1) + 1;
      if (opt.kill_after > 0 && acked == opt.kill_after) KillServer(opt);
    }
    if (!resp.ok()) {
      if (!g_killed.load()) ++out->sense_errors;
    } else if (!is_write && opt.verify &&
               !HoldsPayload(resp.data, payloads.Of(rank))) {
      // Compared against the cache: no allocation or regeneration on the
      // timed path.
      ++out->verify_errors;
    }
  }
  out->wire = client.wire();
  out->cluster = client.cluster();
}

/// Writes every object once so the measured phase reads warm data: FORMAT
/// (on every ring member), then each rank created, classified (the same
/// #SETID# path the cache manager's classifier uses; on the ring it also
/// hints the owner to the ring successor) and written. Populate writes
/// count as acknowledged too: the server committed them.
Status Populate(const Options& opt, std::vector<uint32_t>& acked_ranks) {
  Client client(opt, 0x90b, /*attempts=*/4);
  REO_RETURN_IF_ERROR(client.Connect());
  OsdInitiator initiator(client);
  // FORMAT also creates the first user partition (exofs convention).
  if (!initiator.FormatOsd(4 * opt.objects * opt.object_bytes).ok()) {
    return Status{ErrorCode::kInternal, "FORMAT failed"};
  }
  for (uint32_t rank = 0; rank < opt.objects; ++rank) {
    ObjectId id = IdForRank(rank);
    if (!initiator.CreateObject(id, opt.object_bytes, 0).ok()) {
      return Status{ErrorCode::kInternal,
                    "CREATE failed for rank " + std::to_string(rank)};
    }
    int cls = ClassOfRank(opt, rank);
    if (cls >= 0 && initiator.SetClassId(id, static_cast<uint8_t>(cls), 0) !=
                        SenseCode::kOk) {
      return Status{ErrorCode::kInternal,
                    "SETID failed for rank " + std::to_string(rank)};
    }
    OsdResponse wr = initiator.WriteObject(
        id, PayloadFor(rank, opt.object_bytes), opt.object_bytes, 0);
    if (!wr.ok()) {
      return Status{ErrorCode::kInternal,
                    "populate WRITE failed for rank " + std::to_string(rank) +
                        " (sense " + std::string(to_string(wr.sense)) + ")"};
    }
    acked_ranks.push_back(rank);
  }
  if (client.wire_errors() > 0) {
    return Status{ErrorCode::kCorrupted, "wire errors during populate"};
  }
  return Status::Ok();
}

/// The "backend" of the node-kill drill: the deterministic payload
/// generator, keyed back from ObjectId to rank — exactly what a real
/// origin store would serve for a cache refetch.
Result<std::vector<uint8_t>> OriginFetch(const Options& opt, ObjectId id) {
  const uint64_t base = kFirstUserId + 0x1000;
  if (id.pid != kFirstUserId || id.oid < base ||
      id.oid >= base + opt.objects) {
    return Status{ErrorCode::kNotFound,
                  "no such origin object " + id.ToString()};
  }
  return PayloadFor(static_cast<uint32_t>(id.oid - base), opt.object_bytes);
}

/// The node-kill drill after the kill: announce the death to the
/// survivors and run the cross-node differentiated recovery (class 0/1
/// refetched from the origin, class 0 before 1, hot before cold; class
/// 2/3 degrade to clean misses).
bool RecoverDeadNode(const Options& opt, ClusterInitiator& ring) {
  ClusterRecoveryDriver driver(
      ring, [&opt](ObjectId id) { return OriginFetch(opt, id); });
  auto report = driver.Recover(static_cast<uint32_t>(opt.kill_node));
  if (!report.ok()) {
    std::fprintf(stderr, "cluster recovery failed: %s\n",
                 report.status().to_string().c_str());
    return false;
  }
  std::printf("cluster recovery: %llu survivors answered OWNERS, %llu"
              " dead-node objects; refetched %llu class-0 + %llu class-1"
              " (hot first), degraded %llu class-2 + %llu class-3 to clean"
              " misses, %llu refetch failures\n",
              static_cast<unsigned long long>(report->survivors_queried),
              static_cast<unsigned long long>(report->dead_entries),
              static_cast<unsigned long long>(report->refetched_class0),
              static_cast<unsigned long long>(report->refetched_class1),
              static_cast<unsigned long long>(report->clean_miss_class2),
              static_cast<unsigned long long>(report->clean_miss_class3),
              static_cast<unsigned long long>(report->refetch_failures));
  return true;
}

/// Reads every rank in `ranks` back and judges each with ReadBackVerdict
/// (loadgen_exit.h), after the cross-node recovery of --kill-node when
/// `recover` is set. Exit 1 when the client cannot connect or a one-node
/// connection drops outside chaos mode, else 2 on wire corruption, 3 on a
/// corrupt payload, 4 on a lost acked object, 0 when all is well.
int ReadBack(const Options& opt, uint64_t salt, const std::set<uint32_t>& ranks,
             const char* label, bool recover = false) {
  Client client(opt, salt, /*attempts=*/6);
  Status st = client.Connect();
  if (!st.ok()) {
    std::fprintf(stderr, "%s: connect failed: %s\n", label,
                 st.to_string().c_str());
    return 1;
  }
  if (recover && !RecoverDeadNode(opt, *client.ring())) return 1;
  OsdInitiator initiator(client);
  uint64_t lost = 0, corrupt = 0, clean_misses = 0;
  for (uint32_t rank : ranks) {
    OsdResponse resp = initiator.ReadObject(IdForRank(rank), 0);
    if (client.lost() && !opt.chaos) {
      std::fprintf(stderr, "%s: connection lost\n", label);
      return 1;
    }
    int cls = ClassOfRank(opt, rank);
    bool match = resp.ok() &&
                 HoldsPayload(resp.data, PayloadFor(rank, opt.object_bytes));
    switch (loadgen::ReadBackVerdict(client.ring() != nullptr, cls, resp.ok(),
                                     match)) {
      case loadgen::ReadBack::kIntact:
        break;
      case loadgen::ReadBack::kCleanMiss:
        ++clean_misses;  // the cache refills it from the backend
        break;
      case loadgen::ReadBack::kLost:
        ++lost;
        std::fprintf(stderr, "rank %u (class %d): acked object lost in %s"
                     " (sense %s)\n", rank, cls, label,
                     std::string(to_string(resp.sense)).c_str());
        break;
      case loadgen::ReadBack::kCorrupt:
        ++corrupt;
        std::fprintf(stderr, "rank %u (class %d): payload corrupt in %s\n",
                     rank, cls, label);
        break;
    }
  }
  std::printf("%s: %zu acked objects, %llu lost, %llu corrupt, %llu clean"
              " misses\n", label, ranks.size(),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(corrupt),
              static_cast<unsigned long long>(clean_misses));
  if (client.wire_errors() > 0) return 2;
  if (corrupt > 0) return 3;
  if (lost > 0) return 4;
  return 0;
}

/// Verify-only mode: reads back every rank the manifest lists. Any
/// acknowledged object that is missing or wrong after a restart is
/// durability loss.
int VerifyManifest(const Options& opt) {
  auto text = ReadFileToString(opt.verify_manifest);
  if (!text.ok()) {
    std::fprintf(stderr, "cannot read manifest %s: %s\n",
                 opt.verify_manifest.c_str(),
                 text.status().to_string().c_str());
    return 1;
  }
  std::set<uint32_t> ranks;
  std::istringstream lines(*text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::optional<uint64_t> rank = ParseUint(line, 0, UINT32_MAX);
    if (!rank) {
      std::fprintf(stderr, "manifest %s: bad rank line '%s'\n",
                   opt.verify_manifest.c_str(), line.c_str());
      return 1;
    }
    ranks.insert(static_cast<uint32_t>(*rank));
  }
  return ReadBack(opt, 0x3e1f, ranks, "manifest verify");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  FlagSet flags;
  flags.String("--host", "ADDR", "server address (default 127.0.0.1)",
               &opt.host);
  flags.Uint("--port", "N", "server port (required without --cluster)",
             &opt.port);
  flags.Uint("--connections", "N",
             "closed-loop connections, a thread each (default 4)",
             &opt.connections, {.max = kMaxConnections});
  flags.Uint("--requests", "N", "requests per connection (default 2000)",
             &opt.requests);
  flags.Real("--write-ratio", "F", "fraction of writes (default 0.3)",
             &opt.write_ratio, 0.0, 1.0);
  flags.Uint("--objects", "N", "distinct objects (default 1000)",
             &opt.objects, {.min = 1});
  flags.Real("--zipf", "S", "Zipf popularity skew (default 0.9)",
             &opt.zipf_skew, 0.0, std::numeric_limits<double>::max());
  flags.Uint("--object-kb", "N", "object size in KiB (default 64)",
             &opt.object_bytes, {.unit = kKiB});
  flags.Uint("--seed", "N", "RNG seed (default 42)", &opt.seed);
  flags.Uint("--shards", "N",
             "shard count of the server under test; labels\n"
             "the bench report for scaling curves (default 1)",
             &opt.shards, {.min = 1, .max = kMaxShards});
  flags.Switch("--no-verify", "skip read-payload content verification",
               &opt.verify, /*set_to=*/false);
  flags.String("--stats-out", "PATH", "write the telemetry snapshot JSON",
               &opt.stats_out);
  flags.String("--bench-out", "PATH", "write the BENCH_serve.json bench report",
               &opt.bench_out);
  flags.Uint("--write-class", "C",
             "crash testing: #SETID# every object to class C",
             &opt.write_class, {.max = 3});
  flags.Uint("--kill-after", "N",
             "crash testing: SIGKILL the server after N acked writes",
             &opt.kill_after);
  flags.String("--kill-pid-file", "PATH",
               "file holding the server pid (for --kill-after)",
               &opt.kill_pid_file);
  flags.String("--ack-manifest", "PATH",
               "record acknowledged write ranks, one per line",
               &opt.ack_manifest);
  flags.String("--verify-manifest", "PATH",
               "verify-only mode: read each listed rank back and\n"
               "compare contents (exit 3 on corruption, 4 on loss)",
               &opt.verify_manifest);
  // Loaded with the server's parser, so a typo fails here rather than
  // silently running a chaos test with no chaos.
  FaultSpec chaos_spec;
  flags.Value("--chaos-spec", "PATH",
              "the server's --fault-spec: turns on client tolerance\n"
              "(timeouts, reconnect-retry) and a drain-verify of every\n"
              "acked write (exit 3 on corruption, 4 on loss)",
              FaultSpecFlag(&chaos_spec));
  flags.Value("--cluster", "LIST",
              "route through a consistent-hash ring over these\n"
              "host:port,... members instead of --host/--port",
              [&opt](std::string_view v) {
                opt.cluster = ParseClusterEndpoints(std::string(v));
                return opt.cluster.empty()
                           ? FlagSet::Wants("host:port,...", v)
                           : std::string();
              });
  flags.Switch("--class-cycle",
               "classify rank r into class r%4 at populate,\n"
               "so the node-kill drill covers every class",
               &opt.class_cycle);
  flags.Uint("--kill-node", "K",
             "ring index of the member --kill-after kills (pid from\n"
             "--kill-pid-file); then runs the cross-node recovery\n"
             "(class 0/1 refetched hot-first, 2/3 clean misses) and\n"
             "drain-verifies per class (exit 3/4)",
             &opt.kill_node);
  flags.ParseOrExit(argc, argv);
  opt.chaos = flags.Given("--chaos-spec");
  if (opt.chaos && chaos_spec.empty()) {
    std::fprintf(stderr, "chaos spec has no rules\n");
    return 2;
  }
  if (opt.port == 0 && opt.cluster.empty()) {
    std::fprintf(stderr, "--port (or --cluster) is required\n");
    return 2;
  }
  if (opt.kill_node >= 0 &&
      (opt.cluster.empty() ||
       opt.kill_node >= static_cast<int>(opt.cluster.size()))) {
    std::fprintf(stderr, "--kill-node needs --cluster with that member\n");
    return 2;
  }
  if (!opt.verify_manifest.empty()) return VerifyManifest(opt);
  if (opt.kill_after > 0 && opt.kill_pid_file.empty()) {
    std::fprintf(stderr, "--kill-after requires --kill-pid-file\n");
    return 2;
  }

  std::vector<uint32_t> populate_acks;
  Status setup = Populate(opt, populate_acks);
  if (!setup.ok()) {
    std::fprintf(stderr, "populate failed: %s\n", setup.to_string().c_str());
    return 1;
  }
  std::printf("populated %u objects x %llu KiB; starting %zu connections"
              " x %llu requests (%.0f%% writes, zipf %.2f)\n",
              opt.objects, static_cast<unsigned long long>(opt.object_bytes >> 10),
              opt.connections, static_cast<unsigned long long>(opt.requests),
              opt.write_ratio * 100, opt.zipf_skew);
  std::fflush(stdout);

  ZipfSampler zipf(opt.objects, opt.zipf_skew);
  PayloadCache payloads(opt.objects, opt.object_bytes);
  std::vector<WorkerResult> results(opt.connections);
  uint64_t allocs_before = loadgen::AllocationCount();
  double cpu_before = ProcessCpuSeconds();
  auto bench_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(opt.connections);
    for (size_t i = 0; i < opt.connections; ++i) {
      threads.emplace_back(Worker, std::cref(opt), std::cref(zipf),
                           std::cref(payloads), i, &results[i]);
    }
    for (auto& t : threads) t.join();
  }
  double elapsed_sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - bench_start)
                           .count();
  double cpu_sec = ProcessCpuSeconds() - cpu_before;
  uint64_t allocs =
      loadgen::AllocationCount() - allocs_before;

  // Merge the per-thread results into one registry; everything reported
  // below is read back out of its snapshot.
  MetricRegistry registry;
  ShardedHistogram& read_us = registry.GetHistogram("loadgen.latency.read_us");
  ShardedHistogram& write_us =
      registry.GetHistogram("loadgen.latency.write_us");
  ShardedHistogram& all_us = registry.GetHistogram("loadgen.latency.all_us");
  Counter& reads = registry.GetCounter("loadgen.reads");
  Counter& writes = registry.GetCounter("loadgen.writes");
  Counter& sense_errors = registry.GetCounter("loadgen.sense_errors");
  Counter& verify_errors = registry.GetCounter("loadgen.verify_errors");
  Counter& bytes_sent = registry.GetCounter("loadgen.bytes_sent");
  Counter& bytes_received = registry.GetCounter("loadgen.bytes_received");
  Counter& crc_errors = registry.GetCounter("loadgen.wire.crc_errors");
  Counter& frame_errors = registry.GetCounter("loadgen.wire.frame_errors");
  Counter& decode_errors = registry.GetCounter("loadgen.wire.decode_errors");
  Counter& read_failovers =
      registry.GetCounter("loadgen.cluster.read_failovers");
  Counter& transport_failures =
      registry.GetCounter("loadgen.cluster.transport_failures");
  Counter& failed_writes = registry.GetCounter("loadgen.cluster.failed_writes");
  Counter& hints_sent = registry.GetCounter("loadgen.cluster.hints_sent");
  int fatal = 0;
  for (const WorkerResult& r : results) {
    read_us.Merge(r.read_us);
    write_us.Merge(r.write_us);
    all_us.Merge(r.all_us);
    reads.Inc(r.reads);
    writes.Inc(r.writes);
    sense_errors.Inc(r.sense_errors);
    verify_errors.Inc(r.verify_errors);
    bytes_sent.Inc(r.wire.bytes_sent);
    bytes_received.Inc(r.wire.bytes_received);
    crc_errors.Inc(r.wire.crc_errors);
    frame_errors.Inc(r.wire.frame_errors);
    decode_errors.Inc(r.wire.decode_errors);
    read_failovers.Inc(r.cluster.read_failovers);
    transport_failures.Inc(r.cluster.transport_failures);
    failed_writes.Inc(r.cluster.failed_writes);
    hints_sent.Inc(r.cluster.hints_sent);
    if (!r.fatal.ok()) {
      std::fprintf(stderr, "worker failed: %s\n", r.fatal.to_string().c_str());
      fatal = 1;
    }
  }
  uint64_t total_ops = reads.value() + writes.value();
  registry.GetGauge("loadgen.elapsed_sec").Set(elapsed_sec);
  registry.GetGauge("loadgen.throughput.ops_per_sec")
      .Set(elapsed_sec > 0 ? static_cast<double>(total_ops) / elapsed_sec : 0);
  registry.GetGauge("loadgen.throughput.mbps")
      .Set(elapsed_sec > 0
               ? static_cast<double>(bytes_sent.value() + bytes_received.value()) /
                     1e6 / elapsed_sec
               : 0);

  MetricSnapshot snap = registry.Snapshot();
  const MetricSnapshot::Entry* lat = snap.Find("loadgen.latency.all_us");
  const MetricSnapshot::Entry* ops_s = snap.Find("loadgen.throughput.ops_per_sec");
  const MetricSnapshot::Entry* mbps = snap.Find("loadgen.throughput.mbps");
  std::printf("%llu ops in %.2f s: %.0f ops/s, %.1f MB/s on the wire\n",
              static_cast<unsigned long long>(total_ops), elapsed_sec,
              ops_s ? ops_s->value : 0.0, mbps ? mbps->value : 0.0);
  if (lat != nullptr && lat->count > 0) {
    std::printf("latency: p50 %.0f us, p99 %.0f us, p999 %.0f us"
                " (mean %.0f, max %.0f)\n",
                lat->p50, lat->p99, lat->p999, lat->mean, lat->max);
  }
  if (!opt.cluster.empty()) {
    std::printf("cluster: %llu read failovers, %llu transport failures,"
                " %llu unacked writes, %llu hints placed\n",
                static_cast<unsigned long long>(read_failovers.value()),
                static_cast<unsigned long long>(transport_failures.value()),
                static_cast<unsigned long long>(failed_writes.value()),
                static_cast<unsigned long long>(hints_sent.value()));
  }
  std::printf("cost: %.2f s CPU, %.1f allocations/op\n", cpu_sec,
              total_ops > 0
                  ? static_cast<double>(allocs) / static_cast<double>(total_ops)
                  : 0.0);
  if (!opt.bench_out.empty()) {
    BenchServeReport report;
    report.bench = "reo_loadgen";
    char wl[160];
    std::snprintf(wl, sizeof(wl),
                  "%zuconn x %llureq, %u obj x %lluKiB, %.0f%% writes, "
                  "zipf %.2f, %zu shard%s",
                  opt.connections,
                  static_cast<unsigned long long>(opt.requests), opt.objects,
                  static_cast<unsigned long long>(opt.object_bytes >> 10),
                  opt.write_ratio * 100, opt.zipf_skew, opt.shards,
                  opt.shards == 1 ? "" : "s");
    report.workload = wl;
    if (!opt.cluster.empty()) {
      report.workload +=
          ", " + std::to_string(opt.cluster.size()) + "-node cluster";
    }
    report.ops = total_ops;
    report.wall_seconds = elapsed_sec;
    report.cpu_seconds = cpu_sec;
    report.throughput_ops_per_sec = ops_s ? ops_s->value : 0.0;
    if (lat != nullptr) {
      report.p50_us = lat->p50;
      report.p99_us = lat->p99;
      report.p999_us = lat->p999;
    }
    uint64_t wire_bytes = bytes_sent.value() + bytes_received.value();
    report.bytes_per_op =
        total_ops > 0
            ? static_cast<double>(wire_bytes) / static_cast<double>(total_ops)
            : 0.0;
    report.allocs_per_op =
        total_ops > 0
            ? static_cast<double>(allocs) / static_cast<double>(total_ops)
            : 0.0;
    Status wf = WriteBenchServeJson(opt.bench_out, report);
    if (!wf.ok()) {
      std::fprintf(stderr, "bench report write failed: %s\n",
                   wf.to_string().c_str());
      return 1;
    }
    std::printf("bench report -> %s\n", opt.bench_out.c_str());
  }
  std::printf("errors: %llu sense, %llu verify, wire %llu crc / %llu frame"
              " / %llu decode\n",
              static_cast<unsigned long long>(sense_errors.value()),
              static_cast<unsigned long long>(verify_errors.value()),
              static_cast<unsigned long long>(crc_errors.value()),
              static_cast<unsigned long long>(frame_errors.value()),
              static_cast<unsigned long long>(decode_errors.value()));
  if (!opt.stats_out.empty()) {
    Status wf = WriteFileAtomic(opt.stats_out, snap.ToJson());
    if (!wf.ok()) {
      std::fprintf(stderr, "stats write failed: %s\n", wf.to_string().c_str());
      return 1;
    }
    std::printf("telemetry snapshot -> %s\n", opt.stats_out.c_str());
  }
  // Every rank any connection saw acknowledged, deduped: the exact set a
  // read-back must find intact.
  std::set<uint32_t> acked(populate_acks.begin(), populate_acks.end());
  for (const WorkerResult& r : results) {
    acked.insert(r.acked_ranks.begin(), r.acked_ranks.end());
  }
  if (!opt.ack_manifest.empty()) {
    std::ostringstream manifest;
    for (uint32_t rank : acked) manifest << rank << "\n";
    Status wf = WriteFileAtomic(opt.ack_manifest, manifest.str());
    if (!wf.ok()) {
      std::fprintf(stderr, "manifest write failed: %s\n",
                   wf.to_string().c_str());
      return 1;
    }
    std::printf("ack manifest (%zu ranks) -> %s\n", acked.size(),
                opt.ack_manifest.c_str());
  }
  // Verdict precedence lives in loadgen_exit.h so it is unit-tested; in
  // particular a fatal worker fails the run even in kill mode (previously
  // kill-mode success was checked first and masked dead workers).
  loadgen::RunOutcome outcome;
  outcome.worker_fatal = fatal != 0;
  outcome.kill_mode = opt.kill_after > 0;
  outcome.killed = g_killed.load();
  outcome.wire_errors =
      crc_errors.value() + frame_errors.value() + decode_errors.value();
  outcome.verify_errors = verify_errors.value();
  int code = loadgen::ExitCode(outcome);
  if (outcome.kill_mode && !outcome.killed) {
    std::fprintf(stderr, "kill mode: server was never killed"
                 " (fewer than %llu writes acked?)\n",
                 static_cast<unsigned long long>(opt.kill_after));
  }
  if (code != 0) return code;
  // What is left is a read-back of every acked rank: after a node kill,
  // once the survivors have recovered the dead node's objects; after a
  // chaos run, to show the faults lost nothing. A killed single server is
  // gone, with nothing left to read.
  bool recover = outcome.kill_mode && opt.kill_node >= 0;
  if (!recover && (outcome.kill_mode || !opt.chaos)) return 0;
  return ReadBack(opt, 0xd7a1, acked, "drain-verify", recover);
}
