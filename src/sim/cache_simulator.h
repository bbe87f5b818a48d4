// End-to-end experiment driver.
//
// Runs the whole system under the virtual clock — the serving stack
// (NodeStack: flash array, data plane, OSD target, and what hangs off
// them) plus the backend store, the cache manager and, optionally, the
// wire transport — replays a trace closed-loop, injects device failures /
// spare insertions at scripted request indices (paper §VI.C), and reports
// the paper's metrics.
//
// With `shards` > 1 the simulator models the sharded server: the object
// space is hash-partitioned (ShardRouter) across N independent stacks —
// each with its own flash array, data plane, cache manager, and backend —
// and the replay routes every request to its object's shard. Replay stays
// single-threaded under the one virtual clock (the simulator measures
// cache behavior, not thread scaling), so runs remain deterministic.
// `shards = 1` is byte-identical to the pre-sharding simulator.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backend/backend_store.h"
#include "core/cache_manager.h"
#include "core/node_stack.h"
#include "osd/transport.h"
#include "shard/shard_router.h"
#include "sim/metrics.h"
#include "telemetry/metric_registry.h"
#include "trace/tracer.h"
#include "workload/trace.h"

namespace reo {

/// Scripted fault events, by request index within the measured run.
/// With shards > 1 a failure/spare fans out: device `device` fails in
/// EVERY shard's array (the shards model one physical array partitioned
/// logically, so a device loss touches every shard's slice).
struct FailureEvent {
  uint64_t at_request = 0;
  DeviceIndex device = 0;
};
struct SpareEvent {
  uint64_t at_request = 0;
  DeviceIndex device = 0;
};

struct SimulationConfig {
  std::string name = "run";

  // Cache geometry (paper §VI.A).
  PolicyConfig policy;
  double cache_fraction = 0.10;  ///< raw flash capacity / dataset bytes
  size_t num_devices = 5;
  uint64_t chunk_logical_bytes = 64 * 1024;
  /// Physical payload scale (DESIGN.md "Scaling"): 0 for tests, 6 for the
  /// paper-scale benches.
  uint32_t scale_shift = 6;

  /// Serving shards (DESIGN.md "Sharded serving"). Each shard is an
  /// independent stack over its hash slice of the object space; capacity
  /// and DRAM budgets split evenly. 1 = the classic single-stack run.
  size_t shards = 1;

  // Device / backend models.
  FlashDeviceConfig device;      ///< capacity_bytes is overridden
  HddConfig hdd;
  NetworkLinkConfig net;
  /// Cache-manager settings. Hit verification (a payload synthesis + CRC
  /// per hit) is off unless a run asks for it.
  CacheManagerConfig cache{.verify_hits = false};

  // Fault schedule.
  std::vector<FailureEvent> failures;
  std::vector<SpareEvent> spares;

  /// Replay the full trace once, unmeasured, before the measured pass
  /// ("we first fully warm up the cache", §VI.C).
  bool warmup_pass = false;

  /// When > 0, split each failure phase into an early probe window of this
  /// many requests ("<n>-failures-early") and the remainder
  /// ("<n>-failures"), to expose the immediate post-failure drop before
  /// the cache re-warms.
  uint64_t probe_window_requests = 0;

  /// Arrival model. 0 = closed loop (one outstanding request, the paper's
  /// replay style). > 0 = open loop: request i arrives at i * interval of
  /// virtual time regardless of completions; the cache server processes
  /// sequentially, so reported latency includes queueing delay. Lets the
  /// harness measure latency vs offered load.
  SimTime arrival_interval_ns = 0;

  // Tracing (DESIGN.md "Tracing & Events"). When enabled, every layer is
  // attached to the simulator's Tracer and the run produces spans + a
  // structured event log exportable via ChromeTraceJson / TraceReportText.
  bool enable_tracing = false;
  TracerConfig tracer;
  /// Route every OSD command through the serialized wire transport (the
  /// iSCSI stand-in) instead of the in-process fast path, so traces show
  /// the transport layer. Slightly slower; off by default.
  bool wire_transport = false;

  /// Durable cache state (DESIGN.md "Persistence & restart recovery").
  /// The default (empty data_dir) is the null backend: no files are
  /// touched and the run is byte-identical to the in-memory simulator.
  /// With shards > 1, shard K journals under data_dir/shardK.
  PersistenceConfig persistence;

  // Fault injection (DESIGN.md "Fault model & partial-failure handling").
  /// Probabilistic fault rules; the default (no rules) wires nothing and
  /// keeps the run byte-identical to a fault-free simulator.
  FaultSpec faults;
  /// Fail-slow detection thresholds (only used when `faults` is non-empty).
  FailSlowConfig failslow;
  /// When > 0, run a full scrub pass every N measured requests.
  uint64_t scrub_interval_requests = 0;

  /// DRAM admission tier (DESIGN.md "DRAM admission tier"). The default
  /// (dram_bytes == 0) wires nothing and keeps the run byte-identical to
  /// the pre-tier simulator.
  AdmissionConfig admission;
};

/// Everything a bench/test needs from one run. With shards > 1 every
/// counter below is the sum across shards, max_wear the max, and
/// `telemetry` the bucket-level cross-shard merge (MetricRegistry::Merged).
struct RunReport {
  std::string name;
  WindowMetrics total;
  std::vector<WindowMetrics> windows;  ///< segmented at failure events
  CacheStats cache;
  SpaceStats space;
  OsdTargetStats osd;
  double max_wear = 0.0;
  uint64_t dataset_bytes = 0;
  uint64_t raw_capacity_bytes = 0;
  /// Point-in-time telemetry snapshot taken at the end of the run (every
  /// layer is attached to the simulator's registry at construction).
  MetricSnapshot telemetry;
  /// Trace accounting (all zero unless `enable_tracing` was set).
  TraceStats trace;
};

/// Owns one fully wired system instance and replays one trace through it.
class CacheSimulator {
 public:
  /// @param trace must outlive the simulator.
  CacheSimulator(const Trace& trace, SimulationConfig config);
  ~CacheSimulator();

  CacheSimulator(const CacheSimulator&) = delete;
  CacheSimulator& operator=(const CacheSimulator&) = delete;

  /// Replays the trace (optionally after a warm-up pass) and reports.
  RunReport Run();

  /// Component access for integration tests and examples: shard `k`'s
  /// cache manager and serving stack (faults, journal and admission tier
  /// are null unless configured).
  CacheManager& cache(size_t k = 0) { return *shards_[k]->cache; }
  NodeStack& stack(size_t k = 0) { return shards_[k]->stack; }
  size_t shard_count() const { return shards_.size(); }
  /// Tracing sink (spans + event log). Inert unless `enable_tracing`;
  /// export with ChromeTraceJson / TraceReportText after Run().
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  /// One shard: the serving stack plus what only the simulator adds.
  /// Declaration order is destruction-safe (registry before the
  /// components that cache pointers into it).
  struct ShardInstance {
    MetricRegistry telemetry;
    NodeStack stack;
    std::unique_ptr<OsdTransport> transport;  ///< only when wire_transport
    std::unique_ptr<BackendStore> backend;
    std::unique_ptr<CacheManager> cache;
  };

  void BuildShard(size_t index, uint64_t raw_capacity);
  void ReplayUnmeasured();
  CacheManager& Route(ObjectId id) {
    return *shards_[router_.ShardOf(id)]->cache;
  }

  const Trace& trace_;
  SimulationConfig config_;

  Tracer tracer_;
  ShardRouter router_;
  std::vector<std::unique_ptr<ShardInstance>> shards_;
  /// Event sink for the injection script ("sim.*"); null when tracing off.
  EventLog* sim_ev_ = nullptr;
  SimClock clock_;
  SimTime server_free_ = 0;  ///< when the (sequential) cache server frees up
};

/// Formats one "Label  hit%  MB/s  ms" row (shared by the figure benches).
std::string FormatReportRow(const RunReport& report);

}  // namespace reo
