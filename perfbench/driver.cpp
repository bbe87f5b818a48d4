// perfbench_driver: the serving benchmark's load driver for reo_server.
//
//   perfbench_driver populate --port P <workload flags>
//   perfbench_driver load --port P <workload flags> --connections C
//       --limit-us L --phase RATE:SECONDS [--phase RATE:SECONDS ...]
//       [--server-pid PID] [--shards N] [--manifest-out PATH]
//   perfbench_driver verify --port P <workload flags> --manifest PATH
//   perfbench_driver keep-awake
//   perfbench_driver pin CPU[,CPU...] PROGRAM [ARGS...]
//
// Workload flags are listed in workload.h. `load` runs an open loop: every
// request has a due time drawn from a Poisson schedule, and each connection's
// thread sends what is due whether or not earlier replies came back, then
// reads whatever replies have arrived. Latency is measured from the due time,
// so a stall also charges the requests queued behind it. The first phase is
// the nominal-rate phase; later phases are the rate ladder, which stops at
// the first step that misses the limit.
//
// Ranks are bound to connection rank % C, so the writes and reads of one
// object stay ordered on one pipelined stream. Each write carries a fresh
// version (workload.h); a read must return a version between the newest one
// acknowledged and the newest one sent when the read went out, with every
// other byte intact.
//
// populate, load and verify print one JSON object on stdout;
// `--corrupt-expect` flips a byte of every expected payload, so any read
// must fail verification (the self-test of the correctness gate). keep-awake
// and pin are the benchmark's process helpers.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "osd/control_protocol.h"
#include "osd/transport.h"
#include "server/frame.h"
#include "server/socket_initiator.h"
#include "workload.h"

using namespace reo;
using perfbench::Op;
using perfbench::Payloads;
using perfbench::WorkloadSpec;

namespace {

constexpr double kFailedLatencyUs = 1e9;  ///< a failed request misses any limit

uint64_t MonoNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double SelfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// utime + stime of `pid` from /proc/<pid>/stat, in seconds (-1: unreadable).
double ProcessCpuSeconds(long pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  // Fields after "(comm)": state is field 3; utime/stime are fields 14/15.
  double utime = 0, stime = 0;
  for (int idx = 3; idx <= 15 && rest >> field; ++idx) {
    if (idx == 14) utime = std::atof(field.c_str());
    if (idx == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))) - 1;
  idx = std::min(idx, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

/// A latency sample's due time (s into its phase) and value (us).
using Timed = std::pair<double, double>;

/// Sporadic multi-millisecond stalls of a shared host land in a few short
/// windows; the median over windows keeps them from setting the result.
/// The phase is cut into as many equal windows as leave each about
/// kWindowSamples samples (so a p99 has ten beyond it), at most 32; the
/// statistic is the median of the per-window percentiles.
constexpr size_t kWindowSamples = 1000;

double WindowedPercentile(const std::vector<Timed>& v, double seconds, double q) {
  if (v.empty()) return 0.0;
  size_t windows = std::clamp<size_t>(v.size() / kWindowSamples, 1, 32);
  std::vector<std::vector<double>> buckets(windows);
  for (const Timed& t : v) {
    size_t w = static_cast<size_t>(t.first / seconds * static_cast<double>(windows));
    buckets[std::min(w, windows - 1)].push_back(t.second);
  }
  std::vector<double> per_window;
  for (auto& b : buckets) {
    if (!b.empty()) per_window.push_back(Percentile(b, q));
  }
  return Percentile(per_window, 0.5);
}

struct Options {
  std::string mode;
  uint16_t port = 0;
  WorkloadSpec w;
  size_t connections = 1;
  double limit_us = 1000;
  std::vector<std::pair<double, double>> phases;  ///< (ops/s, seconds)
  long server_pid = 0;
  size_t shards = 1;
  std::string manifest_out;
  std::string manifest;
  bool corrupt_expect = false;
};

// --- Populate and verify: sequential clients over SocketInitiator ----------

OsdCommand MakeWrite(const Payloads& payloads, uint32_t rank, uint64_t version) {
  OsdCommand c;
  c.op = OsdOp::kWrite;
  c.id = perfbench::IdForRank(rank);
  c.logical_size = payloads.bytes();
  payloads.Fill(rank, version, c.data);
  return c;
}

bool WireClean(const SocketInitiatorStats& s) {
  return s.crc_errors + s.frame_errors + s.decode_errors == 0;
}

int Populate(const Options& opt) {
  Payloads payloads(opt.w);
  SocketInitiator client;
  Status st = client.Connect("127.0.0.1", opt.port);
  if (!st.ok()) {
    std::fprintf(stderr, "connect: %s\n", st.to_string().c_str());
    return 1;
  }
  OsdCommand format;
  format.op = OsdOp::kFormat;
  format.capacity_bytes = 4ull * opt.w.objects * opt.w.object_bytes;
  if (!client.Roundtrip(format).ok()) {
    std::fprintf(stderr, "FORMAT failed\n");
    return 1;
  }
  for (uint32_t rank = 0; rank < opt.w.objects; ++rank) {
    // CREATE, SETID and the first WRITE go out back to back; the replies
    // come back in order.
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = perfbench::IdForRank(rank);
    create.logical_size = opt.w.object_bytes;
    int sent = 0;
    bool ok = client.Send(create).ok();
    sent += ok;
    int cls = perfbench::ClassOfRank(opt.w, rank);
    if (ok && cls >= 0) {
      OsdCommand ctl;
      ctl.op = OsdOp::kWrite;
      ctl.id = kControlObject;
      ctl.data = EncodeControlMessage(SetIdCommand{
          .target = perfbench::IdForRank(rank), .class_id = static_cast<uint8_t>(cls)});
      ctl.logical_size = ctl.data.size();
      ok = client.Send(ctl).ok();
      sent += ok;
    }
    if (ok) {
      ok = client.Send(MakeWrite(payloads, rank, 0)).ok();
      sent += ok;
    }
    for (int i = 0; i < sent; ++i) {
      auto resp = client.Receive();
      ok = ok && resp.ok() && resp->ok();
    }
    if (!ok) {
      std::fprintf(stderr, "populate failed at rank %u\n", rank);
      return 1;
    }
  }
  if (!WireClean(client.stats())) {
    std::fprintf(stderr, "wire errors during populate\n");
    return 1;
  }
  std::printf("{\"objects\":%u,\"bytes\":%llu}\n", opt.w.objects,
              static_cast<unsigned long long>(opt.w.objects * opt.w.object_bytes));
  return 0;
}

/// Manifest: one "rank lo hi" line per rank; a read must return a version
/// in [lo, hi] (lo = newest acknowledged, hi = newest sent).
int Verify(const Options& opt) {
  Payloads payloads(opt.w);
  if (opt.corrupt_expect) payloads.CorruptExpectations();
  std::ifstream in(opt.manifest);
  if (!in) {
    std::fprintf(stderr, "cannot read manifest %s\n", opt.manifest.c_str());
    return 1;
  }
  SocketInitiator client;
  Status st = client.Connect("127.0.0.1", opt.port);
  if (!st.ok()) {
    std::fprintf(stderr, "connect: %s\n", st.to_string().c_str());
    return 1;
  }
  uint64_t checked = 0, missing = 0, corrupt = 0;
  uint32_t rank = 0;
  uint64_t lo = 0, hi = 0;
  while (in >> rank >> lo >> hi) {
    ++checked;
    OsdCommand read;
    read.op = OsdOp::kRead;
    read.id = perfbench::IdForRank(rank);
    OsdResponse resp = client.Roundtrip(read);
    if (!client.connected()) {
      std::fprintf(stderr, "connection lost during verify\n");
      return 1;
    }
    if (!resp.ok()) {
      ++missing;
      continue;
    }
    uint64_t version = 0;
    if (rank >= opt.w.objects || !payloads.Check(rank, resp.data, &version) ||
        version < lo || version > hi) {
      ++corrupt;
    }
  }
  bool wire_clean = WireClean(client.stats());
  std::printf("{\"checked\":%llu,\"missing\":%llu,\"corrupt\":%llu,"
              "\"wire_clean\":%s}\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(missing),
              static_cast<unsigned long long>(corrupt),
              wire_clean ? "true" : "false");
  return 0;
}

// --- Load: the pipelined open loop ------------------------------------------

/// One request between its send and its reply.
struct InFlight {
  uint64_t due_ns;
  uint32_t rank;
  bool write;
  uint64_t version;  ///< write: the version sent
  uint64_t lo, hi;   ///< read: acceptable version range
};

struct Sample {
  double latency_us;  ///< from due time to reply; kFailedLatencyUs on failure
  double due_s;       ///< due time within the phase
  bool write;
};

/// Per-rank versions: the newest acknowledged and the newest sent. A rank
/// belongs to one connection, and only that connection's thread touches it.
struct Versions {
  explicit Versions(size_t n) : acked(n, 0), sent(n, 0) {}
  std::vector<uint64_t> acked;
  std::vector<uint64_t> sent;
};

/// One pipelined connection, driven by one thread: it appends each request
/// to the send buffer when it falls due, writes whatever the socket takes,
/// reads whatever replies arrived, and otherwise sleeps in ppoll until the
/// next due time or socket event.
class Connection {
 public:
  /// Requests stop being queued while this much is still unsent: the
  /// server is not reading, and the lateness that follows is the server's.
  static constexpr size_t kSendBufferCap = 8u << 20;

  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  /// Runs one phase of `ops` (due times relative to `start_ns`); on return
  /// every op has a sample, failed ones at kFailedLatencyUs.
  void RunPhase(const Payloads& payloads, Versions& versions,
                const std::vector<Op>& ops, uint64_t start_ns) {
    start_ns_ = start_ns;
    samples_.clear();
    lateness_us_.clear();
    samples_.reserve(ops.size());
    lateness_us_.reserve(ops.size());
    last_reply_ns_ = 0;
    size_t next = 0;
    OsdCommand cmd;
    while (!broken_ && samples_.size() < ops.size()) {
      uint64_t now = MonoNs();
      while (next < ops.size() && start_ns + ops[next].at_ns <= now &&
             out_.size() - out_off_ < kSendBufferCap) {
        Enqueue(payloads, versions, ops[next], start_ns + ops[next].at_ns, now, cmd);
        ++next;
      }
      bool idle = false;
      if (!Flush() || !Drain(payloads, versions, &idle)) break;
      if (samples_.size() == ops.size()) break;
      if (!idle) continue;
      // Sleep until the next due time, a reply, or room to send.
      pollfd pfd{fd_, POLLIN, 0};
      if (out_off_ < out_.size()) pfd.events |= POLLOUT;
      timespec timeout{};
      timespec* tp = nullptr;
      if (next < ops.size() && out_.size() - out_off_ < kSendBufferCap) {
        uint64_t due = start_ns + ops[next].at_ns;
        uint64_t wait = due > now ? due - now : 0;
        timeout = {static_cast<time_t>(wait / 1'000'000'000ull),
                   static_cast<long>(wait % 1'000'000'000ull)};
        tp = &timeout;
      }
      if (ppoll(&pfd, 1, tp, nullptr) < 0 && errno != EINTR) broken_ = true;
    }
    // Whatever never got a reply counts as failed.
    for (size_t i = samples_.size(); i < ops.size(); ++i) {
      samples_.push_back({kFailedLatencyUs, ops[i].at_ns / 1e9, ops[i].write});
    }
    in_flight_.clear();
  }

  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<double>& lateness_us() const { return lateness_us_; }
  uint64_t last_reply_ns() const { return last_reply_ns_; }
  uint64_t verify_errors = 0;
  uint64_t sense_errors = 0;
  std::map<int, uint64_t> sense_codes;  ///< failed replies by sense code
  uint64_t wire_errors = 0;
  uint64_t acked_write_bytes = 0;

 private:
  void Enqueue(const Payloads& payloads, Versions& versions, const Op& op,
               uint64_t due, uint64_t now, OsdCommand& cmd) {
    lateness_us_.push_back(static_cast<double>(now - due) / 1e3);
    InFlight f{due, op.rank, op.write, 0, 0, 0};
    cmd.id = perfbench::IdForRank(op.rank);
    if (op.write) {
      f.version = ++versions.sent[op.rank];
      cmd.op = OsdOp::kWrite;
      cmd.logical_size = payloads.bytes();
      payloads.Fill(op.rank, f.version, cmd.data);
    } else {
      f.lo = versions.acked[op.rank];
      f.hi = versions.sent[op.rank];
      cmd.op = OsdOp::kRead;
      cmd.logical_size = 0;
      cmd.data.clear();
    }
    in_flight_.push_back(f);
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    AppendFrame(out_, EncodeCommand(cmd));
  }

  double DueS(const InFlight& f) const {
    return static_cast<double>(f.due_ns - start_ns_) / 1e9;
  }

  /// Writes what the socket accepts without blocking.
  bool Flush() {
    while (out_off_ < out_.size()) {
      ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                         MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        broken_ = true;
        return false;
      }
    }
    return true;
  }

  /// Reads once from the socket and checks every complete reply. Returns
  /// to the caller after one read, so due requests are never starved by a
  /// steady stream of replies. `*idle` is set when nothing was waiting.
  bool Drain(const Payloads& payloads, Versions& versions, bool* idle) {
    *idle = false;
    ssize_t n = ::recv(fd_, buf_.data(), buf_.size(), MSG_DONTWAIT);
    if (n > 0) {
      decoder_.Feed({buf_.data(), static_cast<size_t>(n)});
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      *idle = true;
      return true;
    } else {
      broken_ = true;  // closed or failed
      return false;
    }
    for (;;) {
      std::span<const uint8_t> payload;
      FrameStatus fs = decoder_.NextView(&payload);
      if (fs == FrameStatus::kNeedMore) return true;
      if (fs != FrameStatus::kFrame || in_flight_.empty()) {
        ++wire_errors;  // lost framing, bad CRC, or a reply nobody asked for
        broken_ = true;
        return false;
      }
      uint64_t now = MonoNs();
      InFlight f = in_flight_.front();
      in_flight_.pop_front();
      last_reply_ns_ = now;
      auto resp = DecodeResponse(payload);
      if (!resp.ok()) {
        ++wire_errors;
        broken_ = true;
        samples_.push_back({kFailedLatencyUs, DueS(f), f.write});
        return false;
      }
      if (!resp->ok()) {
        ++sense_errors;
        ++sense_codes[static_cast<int>(resp->sense)];
        samples_.push_back({kFailedLatencyUs, DueS(f), f.write});
        continue;
      }
      if (f.write) {
        versions.acked[f.rank] = f.version;
        acked_write_bytes += payloads.bytes();
      } else {
        uint64_t version = 0;
        if (!payloads.Check(f.rank, resp->data, &version) || version < f.lo ||
            version > f.hi) {
          ++verify_errors;
        }
      }
      samples_.push_back({static_cast<double>(now - f.due_ns) / 1e3, DueS(f), f.write});
    }
  }

  int fd_ = -1;
  bool broken_ = false;
  FrameDecoder decoder_;
  std::vector<uint8_t> buf_ = std::vector<uint8_t>(512 * 1024);
  std::vector<uint8_t> out_;
  size_t out_off_ = 0;
  std::deque<InFlight> in_flight_;
  std::vector<Sample> samples_;
  std::vector<double> lateness_us_;
  uint64_t last_reply_ns_ = 0;
  uint64_t start_ns_ = 0;
};

struct PhaseResult {
  double rate = 0, seconds = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<Timed> read_us, write_us, all_us;
  std::vector<double> lateness_us;
  double drain_us = 0;  ///< last reply after the phase's scheduled end
  bool pass = false;
};

std::string AdminJson(SocketInitiator& admin, AdminOp op, uint32_t arg) {
  auto r = admin.AdminRoundtrip(op, arg);
  if (!r.ok() || r->status != 0) return "null";
  return r->json;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

int Load(const Options& opt) {
  // Fine-grained sleeps: the default 50 us timer slack would read as
  // generator lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // Keep per-request buffers (up to an object each way) on the heap: mmap
  // and munmap per request would add page faults and cross-CPU TLB
  // shootdowns to the driver's own timing.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  Payloads payloads(opt.w);
  if (opt.corrupt_expect) payloads.CorruptExpectations();
  ZipfSampler zipf(opt.w.objects, opt.w.zipf);
  Versions versions(opt.w.objects);

  SocketInitiator admin;
  if (!admin.Connect("127.0.0.1", opt.port).ok()) {
    std::fprintf(stderr, "admin connect failed\n");
    return 1;
  }
  auto shard_stats = [&]() {
    std::string out = "[";
    for (size_t k = 1; opt.shards > 1 && k <= opt.shards; ++k) {
      if (k > 1) out += ",";
      out += AdminJson(admin, AdminOp::kStats, static_cast<uint32_t>(k));
    }
    return out + "]";
  };
  std::string stats_before = AdminJson(admin, AdminOp::kStats, 0);
  std::string shards_before = shard_stats();

  std::vector<std::unique_ptr<Connection>> conns;
  for (size_t c = 0; c < opt.connections; ++c) {
    conns.push_back(std::make_unique<Connection>());
    if (!conns.back()->Open(opt.port)) {
      std::fprintf(stderr, "connect failed\n");
      return 1;
    }
  }

  std::vector<PhaseResult> results;
  double client_cpu_s = 0, server_cpu_s = 0;
  uint64_t acked_bytes = 0;
  for (size_t p = 0; p < opt.phases.size(); ++p) {
    PhaseResult r;
    r.rate = opt.phases[p].first;
    r.seconds = opt.phases[p].second;
    uint64_t duration_ns = static_cast<uint64_t>(r.seconds * 1e9);
    std::vector<Op> all = perfbench::MakeOps(opt.w, zipf, r.rate, duration_ns, p + 1);
    std::vector<std::vector<Op>> per_conn(opt.connections);
    for (const Op& op : all) per_conn[op.rank % opt.connections].push_back(op);

    double cpu0 = SelfCpuSeconds();
    double scpu0 = opt.server_pid > 0 ? ProcessCpuSeconds(opt.server_pid) : 0;
    uint64_t start = MonoNs() + 2'000'000;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < opt.connections; ++c) {
      threads.emplace_back(
          [&, c] { conns[c]->RunPhase(payloads, versions, per_conn[c], start); });
    }
    for (auto& t : threads) t.join();
    if (p == 0) {
      client_cpu_s = SelfCpuSeconds() - cpu0;
      if (opt.server_pid > 0) server_cpu_s = ProcessCpuSeconds(opt.server_pid) - scpu0;
    }

    uint64_t last_reply = 0;
    for (auto& conn : conns) {
      for (const Sample& s : conn->samples()) {
        ++r.attempted;
        if (s.latency_us >= kFailedLatencyUs) ++r.failed;
        (s.write ? r.write_us : r.read_us).emplace_back(s.due_s, s.latency_us);
        r.all_us.emplace_back(s.due_s, s.latency_us);
      }
      r.lateness_us.insert(r.lateness_us.end(), conn->lateness_us().begin(),
                           conn->lateness_us().end());
      last_reply = std::max(last_reply, conn->last_reply_ns());
    }
    uint64_t end = start + duration_ns;
    r.drain_us = last_reply > end ? static_cast<double>(last_reply - end) / 1e3 : 0.0;
    // A failed request already sits in all_us as over any limit.
    r.pass = WindowedPercentile(r.all_us, r.seconds, 0.99) <= opt.limit_us &&
             r.drain_us <= opt.limit_us;
    results.push_back(std::move(r));
    bool broken = false;
    for (auto& conn : conns) broken = broken || conn->wire_errors > 0;
    if (broken || (p > 0 && !results.back().pass)) break;
  }
  uint64_t verify_errors = 0, sense_errors = 0, wire_errors = 0;
  std::map<int, uint64_t> sense_codes;
  for (auto& conn : conns) {
    for (auto [code, n] : conn->sense_codes) sense_codes[code] += n;
    verify_errors += conn->verify_errors;
    sense_errors += conn->sense_errors;
    wire_errors += conn->wire_errors;
    acked_bytes += conn->acked_write_bytes;
  }
  conns.clear();  // close the data connections before the final snapshot

  std::string stats_after = AdminJson(admin, AdminOp::kStats, 0);
  std::string shards_after = shard_stats();
  std::string health = AdminJson(admin, AdminOp::kHealth, 0);

  if (!opt.manifest_out.empty()) {
    std::ofstream m(opt.manifest_out);
    for (uint32_t rank = 0; rank < opt.w.objects; ++rank) {
      m << rank << " " << versions.acked[rank] << " " << versions.sent[rank] << "\n";
    }
  }

  std::string out = "{\"phases\":[";
  for (size_t p = 0; p < results.size(); ++p) {
    PhaseResult& r = results[p];
    if (p > 0) out += ",";
    out += "{\"rate\":" + Num(r.rate) + ",\"seconds\":" + Num(r.seconds) +
           ",\"attempted\":" + std::to_string(r.attempted) +
           ",\"failed\":" + std::to_string(r.failed) +
           ",\"reads\":" + std::to_string(r.read_us.size()) +
           ",\"writes\":" + std::to_string(r.write_us.size()) +
           ",\"read_p50_us\":" + Num(WindowedPercentile(r.read_us, r.seconds, 0.50)) +
           ",\"read_p99_us\":" + Num(WindowedPercentile(r.read_us, r.seconds, 0.99)) +
           ",\"write_p50_us\":" + Num(WindowedPercentile(r.write_us, r.seconds, 0.50)) +
           ",\"write_p99_us\":" + Num(WindowedPercentile(r.write_us, r.seconds, 0.99)) +
           ",\"read_p90_us\":" + Num(WindowedPercentile(r.read_us, r.seconds, 0.90)) +
           ",\"write_p90_us\":" + Num(WindowedPercentile(r.write_us, r.seconds, 0.90)) +
           ",\"p99_us\":" + Num(WindowedPercentile(r.all_us, r.seconds, 0.99)) +
           ",\"lateness_p99_us\":" + Num(Percentile(r.lateness_us, 0.99)) +
           ",\"drain_us\":" + Num(r.drain_us) +
           ",\"pass\":" + (r.pass ? "true" : "false") + "}";
  }
  uint64_t nominal_ops = results.empty() ? 0 : results[0].attempted;
  out += "],\"nominal_ops\":" + std::to_string(nominal_ops) +
         ",\"client_cpu_s\":" + Num(client_cpu_s) +
         ",\"server_cpu_s\":" + Num(server_cpu_s) +
         ",\"acked_write_bytes\":" + std::to_string(acked_bytes) +
         ",\"verify_errors\":" + std::to_string(verify_errors) +
         ",\"sense_errors\":" + std::to_string(sense_errors) + ",\"sense_codes\":{" +
         [&] {
           std::string codes;
           for (auto [code, n] : sense_codes) {
             codes += (codes.empty() ? "\"" : ",\"") + std::to_string(code) +
                      "\":" + std::to_string(n);
           }
           return codes;
         }() + "}" +
         ",\"wire_errors\":" + std::to_string(wire_errors) +
         ",\"stats_before\":" + stats_before + ",\"stats_after\":" + stats_after +
         ",\"shard_stats_before\":" + shards_before +
         ",\"shard_stats_after\":" + shards_after + ",\"health\":" + health + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

/// `pin CPU[,CPU...] PROGRAM ARGS...`: runs PROGRAM restricted to the CPUs.
/// PROGRAM is killed if the process that started it dies, so an aborted
/// benchmark leaves no server behind.
int Pin(int argc, char** argv) {
  if (argc < 4) return 2;
  prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
  cpu_set_t set;
  CPU_ZERO(&set);
  std::stringstream list(argv[2]);
  std::string cpu;
  while (std::getline(list, cpu, ',')) CPU_SET(std::stoi(cpu), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::perror("sched_setaffinity");
    return 1;
  }
  execv(argv[3], argv + 3);
  std::perror("execv");
  return 1;
}

/// Keeps this CPU from halting while idle: an idle-class loop that yields
/// to every normal task at once. Ends with its parent.
int KeepAwake() {
  prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
  sched_param param{};
  if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return 1;
  for (;;) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver populate|load|verify --port P [options]\n"
               "  workload: --objects N --object-kb N --write-ratio F --zipf S\n"
               "            --class none|0|1|2|3|cycle --seed N\n"
               "  load:     --connections C --limit-us L --phase RATE:SECONDS ...\n"
               "            [--server-pid PID] [--shards N] [--manifest-out PATH]\n"
               "  verify:   --manifest PATH\n"
               "  any:      --corrupt-expect\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  Options opt;
  opt.mode = argv[1];
  if (opt.mode == "keep-awake") return KeepAwake();
  if (opt.mode == "pin") return Pin(argc, argv);
  for (int i = 2; i < argc; ++i) {
    if (perfbench::ParseWorkloadFlag(argc, argv, &i, &opt.w)) continue;
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--port") {
      opt.port = static_cast<uint16_t>(std::stoul(value()));
    } else if (flag == "--connections") {
      opt.connections = std::max<size_t>(1, std::stoul(value()));
    } else if (flag == "--limit-us") {
      opt.limit_us = std::stod(value());
    } else if (flag == "--phase") {
      std::string v = value();
      size_t colon = v.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--phase wants RATE:SECONDS\n");
        return 2;
      }
      opt.phases.emplace_back(std::stod(v.substr(0, colon)),
                              std::stod(v.substr(colon + 1)));
    } else if (flag == "--server-pid") {
      opt.server_pid = std::stol(value());
    } else if (flag == "--shards") {
      opt.shards = std::max<size_t>(1, std::stoul(value()));
    } else if (flag == "--manifest-out") {
      opt.manifest_out = value();
    } else if (flag == "--manifest") {
      opt.manifest = value();
    } else if (flag == "--corrupt-expect") {
      opt.corrupt_expect = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      Usage();
      return 2;
    }
  }
  if (opt.port == 0) {
    Usage();
    return 2;
  }
  if (opt.mode == "populate") return Populate(opt);
  if (opt.mode == "verify") return Verify(opt);
  if (opt.mode == "load" && !opt.phases.empty()) return Load(opt);
  Usage();
  return 2;
}
