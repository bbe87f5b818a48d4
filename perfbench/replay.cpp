// perfbench_replay: the serving benchmark's traced run.
//
// Replays a workload's generated op stream in-process, through a stack
// wired from the same public constructors reo_server uses, and times the
// calls into each layer from outside:
//
//   pass 0  untraced: the server path (frame reassembly, DecodeCommand,
//           OsdTarget::Execute, EncodeResponseParts + FrameQueue), timed
//           per op as one interval; also counts heap allocations per op.
//   pass 1  traced: the same path on a fresh stack, with a span around
//           each call above and, through a timing decorator over the
//           virtual DataPlane interface, around every data-plane call.
//   pass 2  direct replays of the calls the decorator cannot reach:
//           StripeManager::PutObject / GetObject / RebuildObject, RsCode
//           encode and reconstruct per stripe of the workload's geometry,
//           and (with --scratch-dir) PersistenceManager::CommitWrite,
//           Checkpoint, and Open + RestoreToTarget.
//
// Each span records its name, start, end, parent and request id; spans stay
// in memory and are written to --spans-out at exit. A layer's self time is
// its span minus the time its child spans cover. The program prints one
// JSON object with the per-layer wall times on stdout.
//
//   perfbench_replay <workload flags> --ops N --rate R --seconds S
//       [--shards N] [--capacity-mb M] [--fault-p P] [--fault-device D]
//       [--scratch-dir DIR] [--durable] [--spans-out PATH]
//
// --durable attaches persistence to the serving stacks (reo_server
// --data-dir) under the scratch directory.
//
// --rate/--seconds name the driver's nominal phase: the replay takes the
// first N ops of exactly that schedule.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/data_plane.h"
#include "core/policy.h"
#include "ec/rs_code.h"
#include "fault/failslow.h"
#include "fault/fault_injector.h"
#include "fault/fault_spec.h"
#include "flash/flash_array.h"
#include "osd/control_protocol.h"
#include "osd/osd_target.h"
#include "osd/transport.h"
#include "persist/persistence.h"
#include "persist/restore.h"
#include "server/frame.h"
#include "server/frame_queue.h"
#include "shard/shard_router.h"
#include "telemetry/metric_registry.h"
#include "workload.h"

// --- Allocation counting: every operator new in this process. ---------------

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& nt) noexcept {
  return ::operator new(size, nt);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

using namespace reo;
using perfbench::Op;
using perfbench::Payloads;
using perfbench::WorkloadSpec;

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// --- Spans -------------------------------------------------------------------

enum SpanName : uint8_t {
  kRequest,       ///< root: the server-side handling of one frame
  kFrame,         ///< FrameDecoder::Feed + NextView
  kDecode,        ///< DecodeCommand
  kExecute,       ///< OsdTarget::Execute
  kPlaneWrite,    ///< DataPlane::WriteObject
  kPlaneRead,     ///< DataPlane::ReadObject
  kPlaneOther,    ///< the remaining DataPlane calls
  kEncode,        ///< EncodeResponseParts + FrameQueue push and drain
  kSpanNames,
};
constexpr const char* kSpanLabel[kSpanNames] = {
    "request", "server.frame", "server.decode", "osd.execute",
    "core.write", "core.read", "core.other", "server.encode"};

constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint64_t start_ns, end_ns, request_id;
  uint32_t parent;
  SpanName name;
};

/// In-memory span log. Disabled, it records nothing and costs one branch.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, SpanName name) : log_(log) {
      if (!log_.enabled_) return;
      index_ = static_cast<uint32_t>(log_.spans_.size());
      log_.spans_.push_back(Span{NowNs(), 0, log_.request_, log_.current_, name});
      saved_ = log_.current_;
      log_.current_ = index_;
    }
    ~Scope() {
      if (!log_.enabled_) return;
      log_.spans_[index_].end_ns = NowNs();
      log_.current_ = saved_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    uint32_t index_ = 0;
    uint32_t saved_ = kNoParent;
  };

  void Enable(size_t expected) {
    enabled_ = true;
    spans_.reserve(expected);
  }
  void set_request(uint64_t id) { request_ = id; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the union of child spans
  /// (children of one parent never overlap on this single thread).
  std::vector<double> SelfNs() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) {
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::vector<double> self(kSpanNames, 0.0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.name] += static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    }
    return self;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "name,start_ns,end_ns,parent,request_id\n";
    for (const Span& s : spans_) {
      out << kSpanLabel[s.name] << "," << s.start_ns << "," << s.end_ns << ","
          << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent)) << ","
          << s.request_id << "\n";
    }
  }

 private:
  bool enabled_ = false;
  uint64_t request_ = 0;
  uint32_t current_ = kNoParent;
  std::vector<Span> spans_;
};

/// Times every call into the data plane from outside, via its virtual
/// interface; OsdTarget sees no difference.
class TimedPlane final : public DataPlane {
 public:
  TimedPlane(DataPlane& inner, SpanLog& log) : inner_(inner), log_(log) {}

  Result<DataPlaneIo> WriteObject(ObjectId id, std::span<const uint8_t> payload,
                                  uint64_t logical_bytes, uint8_t class_id,
                                  SimTime now) override {
    SpanLog::Scope s(log_, kPlaneWrite);
    return inner_.WriteObject(id, payload, logical_bytes, class_id, now);
  }
  Result<DataPlaneIo> ReadObject(ObjectId id, SimTime now) override {
    SpanLog::Scope s(log_, kPlaneRead);
    return inner_.ReadObject(id, now);
  }
  Status RemoveObject(ObjectId id) override {
    SpanLog::Scope s(log_, kPlaneOther);
    return inner_.RemoveObject(id);
  }
  Status SetObjectClass(ObjectId id, uint8_t class_id, SimTime now) override {
    SpanLog::Scope s(log_, kPlaneOther);
    return inner_.SetObjectClass(id, class_id, now);
  }
  ObjectHealth Health(ObjectId id) const override { return inner_.Health(id); }
  bool recovery_active() const override { return inner_.recovery_active(); }
  bool HasSpaceFor(uint64_t logical_bytes, uint8_t class_id) const override {
    SpanLog::Scope s(log_, kPlaneOther);
    return inner_.HasSpaceFor(logical_bytes, class_id);
  }
  void OnFormat(uint64_t capacity_bytes, SimTime now) override {
    SpanLog::Scope s(log_, kPlaneOther);
    inner_.OnFormat(capacity_bytes, now);
  }

 private:
  DataPlane& inner_;
  SpanLog& log_;
};

// --- The stack -------------------------------------------------------------

struct Config {
  WorkloadSpec w;
  size_t ops = 1000;
  double rate = 1000;
  double seconds = 1;
  size_t shards = 1;
  size_t devices = 5;
  uint64_t capacity_bytes = 256ull << 20;
  uint64_t chunk_bytes = 64 * 1024;
  double fault_p = 0;
  int32_t fault_device = -1;  ///< latent faults on this device only; -1 = any
  std::string scratch_dir;  ///< pass-2 persistence (and --durable stacks) live here
  bool durable = false;     ///< serving stacks journal to disk, as with --data-dir
  std::string spans_out;
};

FaultSpec LatentSpec(const Config& cfg, size_t shard) {
  FaultSpec spec;
  // reo_server reseeds each shard's injector with seed + shard.
  spec.seed = cfg.w.seed + shard;
  if (cfg.fault_p > 0) {
    FaultRule rule;
    rule.site = FaultSite::kFlashLatent;
    rule.probability = cfg.fault_p;
    rule.device = cfg.fault_device;
    spec.rules.push_back(rule);
  }
  return spec;
}

FlashDeviceConfig DeviceConfig(const Config& cfg) {
  FlashDeviceConfig dev;
  uint64_t shard_capacity = cfg.capacity_bytes / cfg.shards;
  dev.capacity_bytes = std::max<uint64_t>(shard_capacity, 4 * cfg.chunk_bytes);
  return dev;
}

StripeManagerConfig StripeConfig(const Config& cfg) {
  StripeManagerConfig smc;
  smc.chunk_logical_bytes = cfg.chunk_bytes;
  smc.capacity_limit_bytes = cfg.capacity_bytes / cfg.shards;
  return smc;
}

/// One shard's serving stack, wired as reo_server wires it (no DRAM tier,
/// no cluster directory, no modeled-time tracer).
struct Shard {
  Shard(const Config& cfg, size_t index, SpanLog* log, const std::string& dir) {
    array = std::make_unique<FlashArray>(cfg.devices, DeviceConfig(cfg));
    stripes = std::make_unique<StripeManager>(*array, StripeConfig(cfg));
    plane = std::make_unique<ReoDataPlane>(
        *stripes, RedundancyPolicy(PolicyConfig{.mode = ProtectionMode::kReo,
                                                .reo_reserve_fraction = 0.2}));
    if (log != nullptr) timed = std::make_unique<TimedPlane>(*plane, *log);
    target = std::make_unique<OsdTarget>(timed ? static_cast<DataPlane&>(*timed)
                                               : static_cast<DataPlane&>(*plane));
    array->AttachTelemetry(telemetry);
    plane->AttachTelemetry(telemetry);
    target->AttachTelemetry(telemetry);
    FaultSpec spec = LatentSpec(cfg, index);
    if (!spec.empty()) {
      injector = std::make_unique<FaultInjector>(spec);
      failslow = std::make_unique<FailSlowDetector>(cfg.devices, FailSlowConfig{});
      array->AttachFaults(injector.get(), failslow.get());
      injector->AttachTelemetry(telemetry);
      failslow->AttachTelemetry(telemetry);
      plane->ConfigureRetry(plane->retry_policy(), spec.seed);
    }
    if (!dir.empty()) {
      std::filesystem::remove_all(dir);
      PersistenceConfig pc;
      pc.data_dir = dir;
      auto opened = PersistenceManager::Open(pc);
      if (!opened.ok()) {
        std::fprintf(stderr, "persistence open failed: %s\n",
                     opened.status().to_string().c_str());
        std::exit(1);
      }
      persist = std::move(*opened);
      persist->AttachTelemetry(telemetry);
      plane->AttachPersistence(persist.get());
    }
  }

  MetricRegistry telemetry;
  std::unique_ptr<FlashArray> array;
  std::unique_ptr<StripeManager> stripes;
  std::unique_ptr<ReoDataPlane> plane;
  std::unique_ptr<TimedPlane> timed;
  std::unique_ptr<OsdTarget> target;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<FailSlowDetector> failslow;
  std::unique_ptr<PersistenceManager> persist;
};

/// The server side of one connection: reassembly, decode, execute on the
/// owning shard, encode into a frame queue that is then drained.
class Replayer {
 public:
  Replayer(const Config& cfg, SpanLog* log, const std::string& dir)
      : router_(cfg.shards), log_(log ? log : &off_) {
    for (size_t k = 0; k < cfg.shards; ++k) {
      std::string shard_dir =
          dir.empty() ? dir : dir + (cfg.shards > 1 ? "/shard" + std::to_string(k) : "");
      shards_.push_back(std::make_unique<Shard>(cfg, k, log, shard_dir));
    }
  }

  /// What handling one request cost the server side.
  struct Handled {
    OsdResponse response;  ///< decoded back from the encoded frame
    uint64_t ns = 0;       ///< wall time from frame arrival to gathered reply
    uint64_t allocations = 0;
  };

  /// Handles one framed request as the server does. The encoded reply is
  /// decoded again afterwards, outside the timed interval, for checking.
  Handled Handle(std::span<const uint8_t> frame) {
    Handled h;
    uint64_t a0 = g_allocations.load(std::memory_order_relaxed);
    uint64_t t0 = NowNs();
    iovec iov[16];
    size_t n_iov = 0;
    {
      SpanLog::Scope root(*log_, kRequest);
      std::span<const uint8_t> payload;
      {
        SpanLog::Scope s(*log_, kFrame);
        decoder_.Feed(frame);
        if (decoder_.NextView(&payload) != FrameStatus::kFrame) return Failed();
      }
      Result<OsdCommand> cmd = Status{ErrorCode::kInternal, "unset"};
      {
        SpanLog::Scope s(*log_, kDecode);
        cmd = DecodeCommand(payload);
      }
      if (!cmd.ok()) return Failed();
      cmd->now = NowNs();
      OsdResponse resp;
      {
        SpanLog::Scope s(*log_, kExecute);
        ShardRoute route = router_.RouteOf(*cmd);
        if (route.fan_out) {
          std::vector<OsdResponse> parts;
          for (auto& shard : shards_) parts.push_back(shard->target->Execute(*cmd));
          resp = MergeFanOutResponses(parts);
        } else {
          resp = shards_[route.shard]->target->Execute(*cmd);
        }
      }
      {
        SpanLog::Scope s(*log_, kEncode);
        EncodedResponseParts p = EncodeResponseParts(std::move(resp));
        queue_.Push(FramePayload{std::move(p.head), std::move(p.body), std::move(p.tail)});
        n_iov = queue_.Gather(iov, 16);
      }
    }
    h.ns = NowNs() - t0;
    h.allocations = g_allocations.load(std::memory_order_relaxed) - a0;
    // Untimed: read the reply back off the "wire" and release it.
    std::vector<uint8_t> wire;
    for (size_t i = 0; i < n_iov; ++i) {
      const uint8_t* b = static_cast<const uint8_t*>(iov[i].iov_base);
      wire.insert(wire.end(), b, b + iov[i].iov_len);
    }
    queue_.Consume(wire.size());
    FrameDecoder reply;
    reply.Feed(wire);
    std::span<const uint8_t> body;
    auto decoded = reply.NextView(&body) == FrameStatus::kFrame
                       ? DecodeResponse(body)
                       : Result<OsdResponse>(Status{ErrorCode::kCorrupted, "bad frame"});
    if (decoded.ok()) {
      h.response = std::move(*decoded);
    } else {
      h.response.sense = SenseCode::kFail;
    }
    return h;
  }

  std::vector<std::unique_ptr<Shard>>& shards() { return shards_; }

 private:
  static Handled Failed() {
    Handled h;
    h.response.sense = SenseCode::kFail;
    return h;
  }

  ShardRouter router_;
  SpanLog off_;
  SpanLog* log_;
  FrameDecoder decoder_;
  FrameMetaPool pool_;
  FrameQueue queue_{pool_};
  std::vector<std::unique_ptr<Shard>> shards_;
};

std::vector<uint8_t> Framed(const OsdCommand& cmd) { return EncodeFrame(EncodeCommand(cmd)); }

/// FORMAT + CREATE + SETID + first WRITE of every object, untimed.
bool Populate(const Config& cfg, const Payloads& payloads, Replayer& r) {
  OsdCommand format;
  format.op = OsdOp::kFormat;
  format.capacity_bytes = 4ull * cfg.w.objects * cfg.w.object_bytes;
  if (!r.Handle(Framed(format)).response.ok()) return false;
  for (uint32_t rank = 0; rank < cfg.w.objects; ++rank) {
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = perfbench::IdForRank(rank);
    create.logical_size = cfg.w.object_bytes;
    if (!r.Handle(Framed(create)).response.ok()) return false;
    int cls = perfbench::ClassOfRank(cfg.w, rank);
    if (cls >= 0) {
      OsdCommand ctl;
      ctl.op = OsdOp::kWrite;
      ctl.id = kControlObject;
      ctl.data = EncodeControlMessage(SetIdCommand{
          .target = perfbench::IdForRank(rank), .class_id = static_cast<uint8_t>(cls)});
      ctl.logical_size = ctl.data.size();
      if (!r.Handle(Framed(ctl)).response.ok()) return false;
    }
    OsdCommand write;
    write.op = OsdOp::kWrite;
    write.id = perfbench::IdForRank(rank);
    write.logical_size = cfg.w.object_bytes;
    payloads.Fill(rank, 0, write.data);
    if (!r.Handle(Framed(write)).response.ok()) return false;
  }
  return true;
}

struct ReplayTotals {
  double total_ns = 0;   ///< server-side time summed over the replayed ops
  uint64_t allocations = 0;
  uint64_t reads = 0, writes = 0, failed = 0, verify_errors = 0;
};

/// Replays `ops` through `r`; only the server side of each op is timed.
ReplayTotals Replay(const std::vector<Op>& ops, const Payloads& payloads,
                    Replayer& r, SpanLog* log) {
  ReplayTotals t;
  std::vector<uint64_t> sent;
  OsdCommand cmd;
  uint64_t id = 0;
  for (const Op& op : ops) {
    if (op.rank >= sent.size()) sent.resize(op.rank + 1, 0);
    cmd.id = perfbench::IdForRank(op.rank);
    if (op.write) {
      cmd.op = OsdOp::kWrite;
      cmd.logical_size = payloads.bytes();
      payloads.Fill(op.rank, ++sent[op.rank], cmd.data);
    } else {
      cmd.op = OsdOp::kRead;
      cmd.logical_size = 0;
      cmd.data.clear();
    }
    std::vector<uint8_t> frame = Framed(cmd);
    if (log != nullptr) log->set_request(++id);
    Replayer::Handled h = r.Handle(frame);
    const OsdResponse& resp = h.response;
    t.allocations += h.allocations;
    t.total_ns += static_cast<double>(h.ns);
    ++(op.write ? t.writes : t.reads);
    if (!resp.ok()) {
      ++t.failed;
    } else if (!op.write) {
      uint64_t v = 0;
      if (!payloads.Check(op.rank, resp.data, &v) || v != sent[op.rank]) ++t.verify_errors;
    }
  }
  return t;
}

// --- Pass 2: direct replays below the data plane ---------------------------

struct DirectTotals {
  double put_ns = 0, get_ns = 0, rebuild_ns = 0;
  uint64_t puts = 0, gets = 0, rebuilds = 0;
  uint64_t chunk_writes = 0, chunk_reads = 0;
  double encode_ns = 0, reconstruct_ns = 0;
  uint64_t encode_stripes = 0, reconstruct_stripes = 0;
  double commit_ns = 0;
  uint64_t commits = 0;
  double fsyncs = 0, disk_bytes = 0, user_bytes = 0;
  double checkpoint_ns = 0, restore_ns = 0;
};

RedundancyLevel LevelOfRank(const WorkloadSpec& w, uint32_t rank) {
  RedundancyPolicy policy(PolicyConfig{.mode = ProtectionMode::kReo});
  return policy.LevelFor(static_cast<DataClass>(perfbench::StoredClassOfRank(w, rank)));
}

/// The same writes and reads straight into a StripeManager over a fresh
/// array with the same fault spec; a read that found corrupt chunks is
/// repaired with RebuildObject, as the data plane does.
void DirectArray(const Config& cfg, const std::vector<Op>& ops,
                 const Payloads& payloads, size_t shard, const ShardRouter& router,
                 DirectTotals* d) {
  FlashArray array(cfg.devices, DeviceConfig(cfg));
  StripeManager stripes(array, StripeConfig(cfg));
  FaultSpec spec = LatentSpec(cfg, shard);
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<FailSlowDetector> failslow;
  if (!spec.empty()) {
    injector = std::make_unique<FaultInjector>(spec);
    failslow = std::make_unique<FailSlowDetector>(cfg.devices, FailSlowConfig{});
    array.AttachFaults(injector.get(), failslow.get());
  }
  std::vector<uint8_t> buf;
  std::vector<uint64_t> sent(cfg.w.objects, 0);
  for (uint32_t rank = 0; rank < cfg.w.objects; ++rank) {
    if (router.ShardOf(perfbench::IdForRank(rank)) != shard) continue;
    payloads.Fill(rank, 0, buf);
    (void)stripes.PutObject(perfbench::IdForRank(rank), buf, cfg.w.object_bytes,
                            LevelOfRank(cfg.w, rank), 0);
  }
  for (const Op& op : ops) {
    ObjectId id = perfbench::IdForRank(op.rank);
    if (router.ShardOf(id) != shard) continue;
    if (op.write) {
      payloads.Fill(op.rank, ++sent[op.rank], buf);
      uint64_t t0 = NowNs();
      auto io = stripes.PutObject(id, buf, cfg.w.object_bytes, LevelOfRank(cfg.w, op.rank), 0);
      d->put_ns += static_cast<double>(NowNs() - t0);
      ++d->puts;
      if (io.ok()) d->chunk_writes += io->chunk_writes;
    } else {
      uint64_t t0 = NowNs();
      auto io = stripes.GetObject(id, 0);
      d->get_ns += static_cast<double>(NowNs() - t0);
      ++d->gets;
      if (!io.ok()) continue;
      d->chunk_reads += io->chunk_reads;
      if (io->corrupt_chunks > 0) {
        uint64_t r0 = NowNs();
        (void)stripes.RebuildObject(id, io->complete);
        d->rebuild_ns += static_cast<double>(NowNs() - r0);
        ++d->rebuilds;
      }
    }
  }
}

/// RsCode encode for every parity stripe a write produces, and reconstruct
/// of one lost data chunk for every parity stripe a read covers. Geometry
/// follows StripeManager::PutObject: m = width - k data chunks per stripe,
/// the last stripe short.
void DirectEc(const Config& cfg, const std::vector<Op>& ops, const Payloads& payloads,
              DirectTotals* d) {
  std::vector<std::unique_ptr<RsCode>> codes(256);
  auto code_for = [&](size_t m, size_t k) -> const RsCode& {
    auto& c = codes[m * 4 + k];
    if (!c) c = std::make_unique<RsCode>(m, k);
    return *c;
  };
  const size_t chunk = cfg.chunk_bytes;
  const uint64_t nchunks = (cfg.w.object_bytes + chunk - 1) / chunk;
  std::vector<uint8_t> buf;
  std::vector<std::vector<uint8_t>> parity(4, std::vector<uint8_t>(chunk));
  std::vector<uint8_t> rebuilt(chunk);
  for (const Op& op : ops) {
    RedundancyLevel level = LevelOfRank(cfg.w, op.rank);
    if (level != RedundancyLevel::kParity1 && level != RedundancyLevel::kParity2) continue;
    size_t k = RedundantChunkCount(level, cfg.devices);
    size_t m_max = cfg.devices - k;
    payloads.Fill(op.rank, 0, buf);
    buf.resize(nchunks * chunk, 0);
    for (uint64_t first = 0; first < nchunks; first += m_max) {
      size_t m = static_cast<size_t>(std::min<uint64_t>(m_max, nchunks - first));
      const RsCode& code = code_for(m, k);
      std::vector<std::span<const uint8_t>> data(m);
      for (size_t i = 0; i < m; ++i) {
        data[i] = std::span<const uint8_t>(buf).subspan((first + i) * chunk, chunk);
      }
      std::vector<std::span<uint8_t>> pspans(k);
      for (size_t p = 0; p < k; ++p) pspans[p] = parity[p];
      if (op.write) {
        uint64_t t0 = NowNs();
        code.Encode(data, pspans);
        d->encode_ns += static_cast<double>(NowNs() - t0);
        ++d->encode_stripes;
      } else {
        code.Encode(data, pspans);  // parity to decode from, untimed
        std::vector<std::pair<size_t, std::span<const uint8_t>>> present;
        for (size_t i = 1; i < m; ++i) present.emplace_back(i, data[i]);
        for (size_t p = 0; p < k; ++p) present.emplace_back(m + p, parity[p]);
        size_t missing[1] = {0};
        std::span<uint8_t> out[1] = {rebuilt};
        uint64_t t0 = NowNs();
        Status st = code.Reconstruct(present, missing, out);
        d->reconstruct_ns += static_cast<double>(NowNs() - t0);
        ++d->reconstruct_stripes;
        if (!st.ok() || !std::equal(rebuilt.begin(), rebuilt.end(), data[0].begin())) {
          std::fprintf(stderr, "RsCode reconstruct mismatch\n");
          std::exit(1);
        }
      }
    }
  }
}

/// Writes the persistence pass commits after the populate; enough for a
/// steady mean without filling a shared disk's write-back queue.
constexpr size_t kPersistWrites = 1000;

/// CommitWrite for the populate and the first kPersistWrites replayed
/// writes, then three checkpoints, then a cold Open + RestoreToTarget into a
/// fresh stack.
void DirectPersist(const Config& cfg, const std::vector<Op>& ops,
                   const Payloads& payloads, DirectTotals* d) {
  std::string dir = cfg.scratch_dir + "/direct";
  std::filesystem::remove_all(dir);
  PersistenceConfig pc;
  pc.data_dir = dir;
  {
    auto opened = PersistenceManager::Open(pc);
    if (!opened.ok()) {
      std::fprintf(stderr, "persist open: %s\n", opened.status().to_string().c_str());
      std::exit(1);
    }
    PersistenceManager& pm = **opened;
    MetricRegistry counters;
    pm.AttachTelemetry(counters);
    std::vector<uint8_t> buf;
    std::vector<uint64_t> sent(cfg.w.objects, 0);
    auto commit = [&](uint32_t rank, uint64_t version) {
      payloads.Fill(rank, version, buf);
      uint64_t t0 = NowNs();
      Status st = pm.CommitWrite(perfbench::IdForRank(rank),
                                 perfbench::StoredClassOfRank(cfg.w, rank),
                                 cfg.w.object_bytes, buf, 0);
      d->commit_ns += static_cast<double>(NowNs() - t0);
      ++d->commits;
      d->user_bytes += static_cast<double>(cfg.w.object_bytes);
      if (!st.ok()) {
        std::fprintf(stderr, "CommitWrite: %s\n", st.to_string().c_str());
        std::exit(1);
      }
    };
    for (uint32_t rank = 0; rank < cfg.w.objects; ++rank) commit(rank, 0);
    size_t writes = 0;
    for (const Op& op : ops) {
      if (op.write && writes++ < kPersistWrites) commit(op.rank, ++sent[op.rank]);
    }
    std::vector<double> cps;
    for (int i = 0; i < 3; ++i) {
      uint64_t t0 = NowNs();
      Status st = pm.Checkpoint(0);
      cps.push_back(static_cast<double>(NowNs() - t0));
      if (!st.ok()) {
        std::fprintf(stderr, "Checkpoint: %s\n", st.to_string().c_str());
        std::exit(1);
      }
    }
    std::sort(cps.begin(), cps.end());
    d->checkpoint_ns = cps[1];
    MetricSnapshot snap = counters.Snapshot();
    auto value = [&](const char* name) {
      const MetricSnapshot::Entry* e = snap.Find(name);
      return e != nullptr ? e->value : 0.0;
    };
    d->fsyncs = value("persist.fsyncs");
    d->disk_bytes = value("persist.bytes_data") + value("persist.bytes_journaled");
  }
  Config one = cfg;
  one.shards = 1;
  one.fault_p = 0;
  Shard fresh(one, 0, nullptr, "");
  uint64_t t0 = NowNs();
  auto opened = PersistenceManager::Open(pc);
  if (!opened.ok()) {
    std::fprintf(stderr, "persist reopen: %s\n", opened.status().to_string().c_str());
    std::exit(1);
  }
  RestoreReport rr = RestoreToTarget(**opened, *fresh.target, cfg.capacity_bytes, 0, nullptr);
  d->restore_ns = static_cast<double>(NowNs() - t0);
  if (rr.total_restored() != cfg.w.objects || rr.payload_verify_failures > 0) {
    std::fprintf(stderr, "restore: %llu of %u objects, %llu verify failures\n",
                 static_cast<unsigned long long>(rr.total_restored()), cfg.w.objects,
                 static_cast<unsigned long long>(rr.payload_verify_failures));
    std::exit(1);
  }
  std::filesystem::remove_all(dir);
}

double Div(double a, double b) { return b > 0 ? a / b : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (perfbench::ParseWorkloadFlag(argc, argv, &i, &cfg.w)) continue;
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--ops") cfg.ops = std::stoul(value());
    else if (flag == "--rate") cfg.rate = std::stod(value());
    else if (flag == "--seconds") cfg.seconds = std::stod(value());
    else if (flag == "--shards") cfg.shards = std::max<size_t>(1, std::stoul(value()));
    else if (flag == "--capacity-mb") cfg.capacity_bytes = std::stoull(value()) << 20;
    else if (flag == "--fault-p") cfg.fault_p = std::stod(value());
    else if (flag == "--fault-device") cfg.fault_device = std::stoi(value());
    else if (flag == "--scratch-dir") cfg.scratch_dir = value();
    else if (flag == "--durable") cfg.durable = true;
    else if (flag == "--spans-out") cfg.spans_out = value();
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  Payloads payloads(cfg.w);
  ZipfSampler zipf(cfg.w.objects, cfg.w.zipf);
  std::vector<Op> ops = perfbench::MakeOps(
      cfg.w, zipf, cfg.rate, static_cast<uint64_t>(cfg.seconds * 1e9), /*salt=*/1);
  if (ops.size() > cfg.ops) ops.resize(cfg.ops);
  auto pass_dir = [&](const char* name) {
    return cfg.durable ? cfg.scratch_dir + "/" + name : std::string();
  };

  // Pass 0: untraced.
  ReplayTotals plain;
  {
    Replayer r(cfg, nullptr, pass_dir("plain"));
    if (!Populate(cfg, payloads, r)) {
      std::fprintf(stderr, "replay populate failed\n");
      return 1;
    }
    plain = Replay(ops, payloads, r, nullptr);
  }
  // Pass 1: traced.
  SpanLog log;
  ReplayTotals traced;
  std::vector<double> self;
  {
    Replayer r(cfg, &log, pass_dir("traced"));
    if (!Populate(cfg, payloads, r)) {
      std::fprintf(stderr, "replay populate failed\n");
      return 1;
    }
    // Populate runs untraced: the span log starts with the first replayed op.
    log.Enable(ops.size() * 8 + 1024);
    traced = Replay(ops, payloads, r, &log);
    self = log.SelfNs();
  }
  // Pass 2: direct replays.
  DirectTotals d;
  ShardRouter router(cfg.shards);
  for (size_t k = 0; k < cfg.shards; ++k) DirectArray(cfg, ops, payloads, k, router, &d);
  DirectEc(cfg, ops, payloads, &d);
  if (!cfg.scratch_dir.empty()) DirectPersist(cfg, ops, payloads, &d);

  if (!cfg.spans_out.empty()) log.Write(cfg.spans_out);
  if (cfg.durable) {
    std::filesystem::remove_all(pass_dir("plain"));
    std::filesystem::remove_all(pass_dir("traced"));
  }

  const double n = static_cast<double>(ops.size());
  double root_ns = 0;
  for (const Span& s : log.spans()) {
    if (s.name == kRequest) root_ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  // Per-op wall time by layer. The data-plane spans contain the array and
  // persistence calls; their pass-2 means are subtracted to leave the
  // core's own time.
  double put_us = Div(d.put_ns, d.puts) / 1e3;
  double get_us = Div(d.get_ns, d.gets) / 1e3;
  double rebuild_us = Div(d.rebuild_ns, d.rebuilds) / 1e3;
  double commit_us = Div(d.commit_ns, d.commits) / 1e3;
  double stack_commit_us = cfg.durable ? commit_us : 0.0;  // inside core.write spans
  double rebuilds_per_read = Div(static_cast<double>(d.rebuilds), static_cast<double>(d.gets));
  double plane_write_us = Div(self[kPlaneWrite], traced.writes) / 1e3;
  double plane_read_us = Div(self[kPlaneRead], traced.reads) / 1e3;
  // Clamped at zero: a pass-2 mean above the in-stack span (colder caches
  // in the fresh stack) leaves the sum check to show the mismatch.
  double core_write_self =
      std::max(0.0, plane_write_us - put_us - stack_commit_us);
  double core_read_self =
      std::max(0.0, plane_read_us - get_us - rebuilds_per_read * rebuild_us);
  double wf = traced.writes / n, rf = traced.reads / n;
  // The per-op layer budget, which must add back up to the root span.
  double layers_per_op_us =
      (self[kRequest] + self[kFrame] + self[kDecode] + self[kExecute] + self[kPlaneOther] +
       self[kEncode]) / n / 1e3 +
      wf * (core_write_self + put_us + stack_commit_us) +
      rf * (core_read_self + get_us + rebuilds_per_read * rebuild_us);
  double service_us = root_ns / n / 1e3;
  double plain_us = plain.total_ns / n / 1e3;

  std::printf(
      "{\"ops\":%zu,\"reads\":%llu,\"writes\":%llu,\"failed\":%llu,"
      "\"verify_errors\":%llu,\"spans\":%zu,"
      "\"server.decode_us\":%.6g,\"server.encode_us\":%.6g,"
      "\"server.service_us\":%.6g,\"server.allocs_per_op\":%.6g,"
      "\"osd.execute_self_us\":%.6g,"
      "\"core.write_self_us\":%.6g,\"core.read_self_us\":%.6g,"
      "\"array.put_us\":%.6g,\"array.get_us\":%.6g,\"array.rebuild_us\":%.6g,"
      "\"array.chunk_writes_per_put\":%.6g,\"array.chunk_reads_per_get\":%.6g,"
      "\"ec.encode_us\":%.6g,\"ec.reconstruct_us\":%.6g,"
      "\"persist.commit_us\":%.6g,\"persist.checkpoint_us\":%.6g,"
      "\"persist.restore_s\":%.6g,\"persist.fsyncs_per_write\":%.6g,"
      "\"persist.disk_bytes_per_user_byte\":%.6g,"
      "\"trace.untraced_service_us\":%.6g,\"trace.overhead_pct\":%.6g,"
      "\"trace.self_sum_ratio\":%.6g}\n",
      ops.size(), static_cast<unsigned long long>(traced.reads),
      static_cast<unsigned long long>(traced.writes),
      static_cast<unsigned long long>(plain.failed + traced.failed),
      static_cast<unsigned long long>(plain.verify_errors + traced.verify_errors),
      log.spans().size(), (self[kFrame] + self[kDecode]) / n / 1e3, self[kEncode] / n / 1e3,
      service_us, plain.allocations / n, self[kExecute] / n / 1e3, core_write_self,
      core_read_self, put_us, get_us, rebuild_us,
      Div(static_cast<double>(d.chunk_writes), static_cast<double>(d.puts)),
      Div(static_cast<double>(d.chunk_reads), static_cast<double>(d.gets)),
      Div(d.encode_ns, d.encode_stripes) / 1e3,
      Div(d.reconstruct_ns, d.reconstruct_stripes) / 1e3,
      commit_us, d.checkpoint_ns / 1e3, d.restore_ns / 1e9,
      Div(d.fsyncs, static_cast<double>(d.commits)), Div(d.disk_bytes, d.user_bytes),
      plain_us, (service_us - plain_us) / plain_us * 100.0,
      Div(layers_per_op_us, service_us));
  return 0;
}
