// The Reo cache manager — the initiator-side component of the paper's
// prototype (§V: "an object-based cache manager ... on the osd-initiator
// side", ~2,000 lines of C).
//
// Responsibilities:
//   * object-granular LRU replacement;
//   * hot/cold classification with the adaptive H_hot threshold (§IV.C.1),
//     delivered to the target through #SETID# control messages (§IV.C.2);
//   * write-back caching with a background flusher (dirty objects are
//     Class 1 until flushed, then reclassified);
//   * the owner side of the stack's FailurePlane (core/failure_plane.h):
//     it tells the plane each cached object's class and H, evicts what the
//     plane finds lost, and asks for repair-on-read on degraded hits.
//
// All traffic to the target flows through an OsdInitiator session, exactly
// as the paper's initiator-side cache manager talks to osd-target.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "backend/backend_store.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/classifier.h"
#include "core/data_plane.h"
#include "core/failure_plane.h"
#include "core/lru.h"
#include "osd/osd_initiator.h"
#include "osd/osd_target.h"
#include "telemetry/metric_registry.h"
#include "trace/tracer.h"

namespace reo {

struct CacheManagerConfig {
  /// Requests between adaptive H_hot refreshes (§IV.C.1 "updated
  /// periodically"). 0 disables refresh.
  uint64_t hhot_refresh_interval = 2000;
  /// CRC-verify hit payloads against the expected generated content.
  bool verify_hits = true;
  /// Admit new (clean) objects while the array is degraded (a failed
  /// device with no spare). On by default: the surviving devices still
  /// form a working object store, so the cache re-warms (an unusable
  /// uniform RAID volume is handled separately — see
  /// FailurePlane::array_unusable()).
  /// Set false to freeze the cache contents during failures, which makes
  /// post-failure hit ratios reflect exactly the data each policy
  /// protected (used by the failure benches' probe analysis). Writes
  /// (dirty data) are always absorbed — write-back safety never pauses.
  bool admit_while_degraded = true;
};

/// Outcome of one client request against the cache.
struct RequestResult {
  bool hit = false;
  bool is_write = false;
  bool degraded = false;       ///< served via parity reconstruction
  SimTime latency = 0;
  uint64_t bytes = 0;          ///< logical bytes served
  SenseCode sense = SenseCode::kOk;
};

/// Cumulative cache-manager counters.
struct CacheStats {
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t writes = 0;
  uint64_t evictions = 0;
  uint64_t lost_evictions = 0;   ///< evicted because a failure destroyed them
  uint64_t dirty_lost = 0;       ///< permanent data loss events
  uint64_t degraded_reads = 0;
  uint64_t flushes = 0;
  uint64_t reclassifications = 0;
  uint64_t verify_failures = 0;
  uint64_t uncacheable = 0;      ///< served but not admitted

  double HitRatio() const {
    return gets ? static_cast<double>(hits) / static_cast<double>(gets) : 0.0;
  }
};

class CacheManager {
 public:
  /// `session` is the manager's path to the target (in-process or over
  /// the modeled wire); `failure` is the same stack's failure plane, whose
  /// owner the manager becomes. All references must outlive the manager.
  CacheManager(OsdSession& session, ReoDataPlane& plane, FailurePlane& failure,
               BackendStore& backend, CacheManagerConfig config);
  /// Uninstalls the owner hooks, which point at this manager.
  ~CacheManager();

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  /// Formats the OSD and installs the Table I metadata objects (Class 0,
  /// replicated). Call once before serving.
  void Initialize(SimTime now);

  /// Client read of a whole object. Serves from cache (possibly degraded)
  /// or fetches from the backend and admits.
  RequestResult Get(ObjectId id, uint64_t logical_size, SimTime now);

  /// Client whole-object update: write-back — the new version is stored in
  /// cache as dirty (Class 1) and flushed to the backend asynchronously.
  RequestResult Put(ObjectId id, uint64_t logical_size, SimTime now);

  /// Progress background work: fail-slow polling, the flusher, paced
  /// reconstruction and reclassification, in that order. Called
  /// automatically after each request; exposed for tests and idle periods.
  void AdvanceBackground(SimTime now);

  // --- Introspection ---------------------------------------------------------

  const CacheStats& stats() const { return stats_; }
  size_t resident_objects() const { return entries_.size(); }
  uint64_t resident_bytes() const { return resident_bytes_; }
  double h_hot() const { return classifier_.h_hot(); }

  /// Sends a #QUERY# control message for an object and returns the sense
  /// code (exercises the paper's query path; used by examples/tests).
  SenseCode QueryObject(ObjectId id, bool is_write, uint64_t size, SimTime now);

  /// Registers cache metrics ("cache.*": per-class hit/miss/eviction
  /// counts, hit/miss/degraded/write latency histograms, residency gauges)
  /// and begins hot-path updates.
  void AttachTelemetry(MetricRegistry& registry);

  /// Resolves tracing sinks: the manager opens the root span of every
  /// client request (Get/Put) and emits its structured events (eviction
  /// storms, reclassification refreshes). Fans out to the backend; the
  /// stack below (data plane, target, failure plane) attaches through
  /// NodeStack, and the simulator attaches the wire transport separately.
  void AttachTracing(Tracer& tracer);

  /// Streams classification knowledge into the durable journal — per-object
  /// hotness at #SETID# time and the adaptive H_hot after each refresh — so
  /// a restart restores hot-before-cold inside the clean classes and
  /// resumes with a warm threshold. Null (the default) is a no-op.
  void AttachPersistence(PersistenceManager* persist) { persist_ = persist; }

  /// Installs the classification hook on the DRAM admission tier: an
  /// object graduating to flash is classified from its *observed* access
  /// history (initiator-side frequency plus reuse seen while
  /// DRAM-resident) against the live H_hot, so class 2/3 placement starts
  /// from evidence instead of the cold-start guess it was staged with.
  /// The tier must outlive the manager.
  void AttachAdmission(AdmissionTier& tier);

 private:
  struct Entry {
    uint64_t logical_size = 0;
    uint64_t freq = 0;
    uint64_t version = 0;   ///< content version (flushed to backend on flush)
    bool dirty = false;
    bool metadata = false;
    DataClass cls = DataClass::kColdClean;
  };

  ObjectState StateOf(ObjectId id, const Entry& e) const;

  /// Sends a #SETID# control write and applies the class locally.
  SenseCode SendClassification(ObjectId id, DataClass cls, SimTime now);

  /// Backend fetch with bounded retry on transient (kIoError) failures.
  Result<BackendFetch> FetchWithRetry(ObjectId id, SimTime now);

  /// Admits a fetched/written object. Returns false if it cannot fit even
  /// after evicting everything evictable.
  bool Admit(ObjectId id, uint64_t logical_size,
             std::span<const uint8_t> payload, uint64_t version, bool dirty,
             SimTime now, SimTime& io_complete);

  /// Evicts the best victim (LRU-first, clean preferred; dirty objects are
  /// flushed first). Returns false if nothing can be evicted.
  bool EvictOne(SimTime now);

  void EvictObject(ObjectId id, SimTime now, bool lost);

  /// The one lost-object path: the object's data is gone beyond its
  /// protection. A dirty object counts as permanent loss (`dirty_lost`);
  /// every lost object is evicted as lost. No-op for an uncached id.
  void LoseObject(ObjectId id, SimTime now);

  /// Synchronously flushes one dirty object and reclassifies it clean.
  void FlushObject(ObjectId id, Entry& e, SimTime now);

  void RefreshClassification(SimTime now);
  void MaybeRefresh(SimTime now);

  OsdInitiator initiator_;
  ReoDataPlane& plane_;
  FailurePlane& failure_;
  BackendStore& backend_;
  PersistenceManager* persist_ = nullptr;
  CacheManagerConfig config_;
  Pcg32 backend_retry_rng_{0x5eed, 0xbac0};

  std::unordered_map<ObjectId, Entry, ObjectIdHash> entries_;
  LruList lru_;
  uint64_t resident_bytes_ = 0;

  AdaptiveHotClassifier classifier_;
  struct PendingFlush {
    ObjectId id;
    uint64_t version;
    SimTime ready_time;  ///< earliest background-flush time
  };
  std::deque<PendingFlush> flush_queue_;
  /// Pending class changes from the last refresh, drained incrementally.
  std::deque<std::pair<ObjectId, DataClass>> reclass_queue_;
  SimTime flusher_busy_until_ = 0;

  /// Telemetry pointers (null when un-attached); resolved once at
  /// AttachTelemetry so the per-request cost is plain increments.
  struct Telemetry {
    Counter* class_hits[4] = {};
    Counter* class_misses[4] = {};
    Counter* class_evictions[4] = {};
    Counter* writes = nullptr;
    Counter* degraded_reads = nullptr;
    Counter* flushes = nullptr;
    Counter* reclassifications = nullptr;
    Counter* lost_evictions = nullptr;
    Counter* dirty_lost = nullptr;
    Counter* uncacheable = nullptr;
    Counter* verify_failures = nullptr;
    Counter* backend_retry_attempts = nullptr;
    Counter* backend_retry_exhausted = nullptr;
    ShardedHistogram* hit_latency_us = nullptr;
    ShardedHistogram* miss_latency_us = nullptr;
    ShardedHistogram* degraded_latency_us = nullptr;
    ShardedHistogram* write_latency_us = nullptr;
    Gauge* resident_bytes = nullptr;
    Gauge* resident_objects = nullptr;
    Gauge* h_hot = nullptr;
  };

  void PublishResidency();

  Telemetry tel_;

  // Tracing sinks (null when un-attached; each use costs one branch).
  Tracer* tracer_ = nullptr;
  SpanRecorder* trace_root_ = nullptr;
  EventLog* ev_ = nullptr;
  CacheStats stats_;
  uint64_t request_counter_ = 0;
  uint64_t next_version_ = 1;
  /// Set when a hot upgrade bounced off the reserve (0x67); suppresses
  /// hit-time upgrade attempts until the next refresh frees budget.
  bool reserve_full_hint_ = false;
};

}  // namespace reo
