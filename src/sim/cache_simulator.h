// End-to-end experiment driver.
//
// Runs the whole system under the virtual clock — the serving stack
// (NodeStack: flash array, data plane, OSD target, and what hangs off
// them) plus the backend store, the cache manager and, optionally, the
// wire transport — replays a trace closed-loop, injects device failures /
// spare insertions at scripted request indices (paper §VI.C), and reports
// the paper's metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backend/backend_store.h"
#include "core/cache_manager.h"
#include "core/node_stack.h"
#include "osd/transport.h"
#include "sim/metrics.h"
#include "telemetry/metric_registry.h"
#include "trace/tracer.h"
#include "workload/trace.h"

namespace reo {

/// A scripted device failure or spare insertion, by request index within
/// the measured run. It names a device of the array (< num_devices).
struct DeviceEvent {
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

  // Device / backend models.
  FlashDeviceConfig device;      ///< capacity_bytes is overridden
  HddConfig hdd;
  NetworkLinkConfig net;
  /// Cache-manager settings. Hit verification (a payload synthesis + CRC
  /// per hit) is off unless a run asks for it.
  CacheManagerConfig cache{.verify_hits = false};

  // Fault schedule.
  std::vector<DeviceEvent> failures;
  std::vector<DeviceEvent> spares;

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
  PersistenceConfig persistence;

  // Fault injection (DESIGN.md "Fault model & partial-failure handling").
  /// Probabilistic fault rules; the default (no rules) wires nothing and
  /// keeps the run byte-identical to a fault-free simulator.
  FaultSpec faults;
  /// Fail-slow detection thresholds (only used when `faults` is non-empty).
  FailSlowConfig failslow;
  /// Demote a device the detector flags (NodeStackConfig::failslow_demote).
  bool failslow_demote = false;
  /// When > 0, run a full scrub pass every N measured requests.
  uint64_t scrub_interval_requests = 0;

  /// DRAM admission tier (DESIGN.md "DRAM admission tier"). The default
  /// (dram_bytes == 0) wires nothing and keeps the run byte-identical to
  /// the pre-tier simulator.
  AdmissionConfig admission;
};

/// Everything a bench/test needs from one run.
struct RunReport {
  std::string name;
  WindowMetrics total;
  std::vector<WindowMetrics> windows;  ///< segmented at failure events
  CacheStats cache;
  uint64_t rebuilds = 0;  ///< objects reconstructed (bg + on-demand)
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
  /// @param trace must outlive the simulator. Every scripted failure and
  /// spare must name a device of the array.
  CacheSimulator(const Trace& trace, SimulationConfig config);
  ~CacheSimulator();

  CacheSimulator(const CacheSimulator&) = delete;
  CacheSimulator& operator=(const CacheSimulator&) = delete;

  /// Replays the trace (optionally after a warm-up pass) and reports.
  RunReport Run();

  /// Component access for integration tests and examples: the cache
  /// manager and the serving stack (faults, journal and admission tier are
  /// null unless configured). Scripted failures, spares and scrubs run
  /// through `stack().failure`.
  CacheManager& cache() { return *cache_; }
  NodeStack& stack() { return stack_; }
  /// Tracing sink (spans + event log). Inert unless `enable_tracing`;
  /// export with ChromeTraceJson / TraceReportText after Run().
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  void ReplayUnmeasured();

  const Trace& trace_;
  SimulationConfig config_;

  // The serving stack plus what only the simulator adds. Declaration order
  // is destruction-safe (tracer and registry before the components that
  // cache pointers into them).
  Tracer tracer_;
  MetricRegistry telemetry_;
  NodeStack stack_;
  std::unique_ptr<OsdTransport> transport_;  ///< only when wire_transport
  std::unique_ptr<BackendStore> backend_;
  std::unique_ptr<CacheManager> cache_;
  /// Event sink for the injection script ("sim.*"); null when tracing off.
  EventLog* sim_ev_ = nullptr;
  SimClock clock_;
  SimTime server_free_ = 0;  ///< when the (sequential) cache server frees up
};

/// Formats one "Label  hit%  MB/s  ms" row (shared by the figure benches).
std::string FormatReportRow(const RunReport& report);

}  // namespace reo
