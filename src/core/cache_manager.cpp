#include "core/cache_manager.h"

#include <algorithm>
#include <string>

#include "common/crc32c.h"
#include "fault/retry.h"
#include "persist/persistence.h"

namespace reo {
namespace {

/// The exofs metadata objects are small; the paper notes the largest
/// (root directory) is 4 KB (§IV.C.4).
constexpr uint64_t kMetadataObjectBytes = 4096;

/// Re-encodes queued per refresh (bounds reclassification churn; the first
/// refresh after warm-up legitimately re-encodes the whole hot set).
constexpr size_t kMaxReclassPerRefresh = 1024;

/// Queued reclassifications applied per client request: spreads the
/// re-encode IO instead of stalling the device queues in one burst at
/// refresh time (maintenance IO is background work).
constexpr size_t kReclassPerRequest = 2;

/// Multiplier on the hot-set budget during threshold selection. The walk
/// sizes the hot set against a point-in-time snapshot, but LRU churn keeps
/// part of that set out of cache; a headroom > 1 keeps the reserve
/// committed, while the hard reserve cap (sense 0x67) still bounds actual
/// redundancy usage.
constexpr double kHotAdmissionHeadroom = 2.0;

/// Write-back delay: a dirty object becomes eligible for background
/// flushing this long after its write (absorbs overwrites; during this
/// window the object is Class 1 and replicated). Forced flushes during
/// eviction ignore the delay.
constexpr SimTime kFlushDelayNs = 5 * kNsPerSec;

/// Bounded retry (with jittered backoff) for transient backend fetches.
constexpr RetryPolicy kBackendRetry{};

}  // namespace

CacheManager::CacheManager(OsdSession& session, ReoDataPlane& plane,
                           FailurePlane& failure, BackendStore& backend,
                           CacheManagerConfig config)
    : initiator_(session),
      plane_(plane),
      failure_(failure),
      backend_(backend),
      config_(config),
      classifier_([&s = plane.stripes()](uint64_t size) {
        // Redundancy bytes protecting `size` at the hot level (2-parity).
        return s.FootprintEstimate(size, RedundancyLevel::kParity2) - size;
      }) {
  failure_.SetOwner({
      .describe = [this](ObjectId id) -> std::optional<TrackedObject> {
        auto it = entries_.find(id);
        if (it == entries_.end()) return std::nullopt;
        return TrackedObject{.cls = it->second.cls,
                             .h = StateOf(id, it->second).H(),
                             .logical_size = it->second.logical_size};
      },
      .lose = [this](ObjectId id, SimTime now) { LoseObject(id, now); },
      .lose_all =
          [this](SimTime now) {
            std::vector<ObjectId> resident;
            resident.reserve(entries_.size());
            for (const auto& [id, e] : entries_) resident.push_back(id);
            for (ObjectId id : resident) LoseObject(id, now);
            flush_queue_.clear();
          },
  });
}

CacheManager::~CacheManager() { failure_.SetOwner({}); }

void CacheManager::Initialize(SimTime now) {
  (void)initiator_.FormatOsd(plane_.stripes().array().total_capacity_bytes(),
                             now);

  // Install the Table I metadata objects as Class 0 (replicated).
  for (ObjectId id : {kSuperBlockObject, kDeviceTableObject,
                      kRootDirectoryObject}) {
    Entry e;
    e.logical_size = kMetadataObjectBytes;
    e.freq = 1;
    e.metadata = true;
    e.cls = DataClass::kMetadata;
    entries_[id] = e;
    resident_bytes_ += kMetadataObjectBytes;
    (void)SendClassification(id, DataClass::kMetadata, now);
    (void)initiator_.WriteObject(
        id,
        BackendStore::SynthesizePayload(
            id, 0, plane_.stripes().PhysicalSize(kMetadataObjectBytes)),
        kMetadataObjectBytes, now);
  }
}

void CacheManager::AttachTelemetry(MetricRegistry& registry) {
  for (int cls = 0; cls < 4; ++cls) {
    std::string base = "cache.class" + std::to_string(cls);
    tel_.class_hits[cls] = &registry.GetCounter(base + ".hits");
    tel_.class_misses[cls] = &registry.GetCounter(base + ".misses");
    tel_.class_evictions[cls] = &registry.GetCounter(base + ".evictions");
  }
  tel_.writes = &registry.GetCounter("cache.writes");
  tel_.degraded_reads = &registry.GetCounter("cache.degraded_reads");
  tel_.flushes = &registry.GetCounter("cache.flushes");
  tel_.reclassifications = &registry.GetCounter("cache.reclassifications");
  tel_.lost_evictions = &registry.GetCounter("cache.lost_evictions");
  tel_.dirty_lost = &registry.GetCounter("cache.dirty_lost");
  tel_.uncacheable = &registry.GetCounter("cache.uncacheable");
  tel_.verify_failures = &registry.GetCounter("cache.verify_failures");
  tel_.backend_retry_attempts = &registry.GetCounter("retry.backend.attempts");
  tel_.backend_retry_exhausted = &registry.GetCounter("retry.backend.exhausted");
  tel_.hit_latency_us = &registry.GetHistogram("cache.latency.hit_us");
  tel_.miss_latency_us = &registry.GetHistogram("cache.latency.miss_us");
  tel_.degraded_latency_us = &registry.GetHistogram("cache.latency.degraded_us");
  tel_.write_latency_us = &registry.GetHistogram("cache.latency.write_us");
  tel_.resident_bytes = &registry.GetGauge("cache.resident_bytes");
  tel_.resident_objects = &registry.GetGauge("cache.resident_objects");
  tel_.h_hot = &registry.GetGauge("cache.h_hot");
  PublishResidency();
  Set(tel_.h_hot, classifier_.h_hot());
}

void CacheManager::AttachTracing(Tracer& tracer) {
  tracer_ = &tracer;
  trace_root_ = &tracer.RecorderFor(TraceComponent::kCacheManager);
  ev_ = &tracer.events();
  backend_.AttachTracing(tracer);
}

void CacheManager::PublishResidency() {
  Set(tel_.resident_bytes, static_cast<double>(resident_bytes_));
  Set(tel_.resident_objects, static_cast<double>(entries_.size()));
}

ObjectState CacheManager::StateOf(ObjectId id, const Entry& e) const {
  return ObjectState{.id = id,
                     .logical_size = e.logical_size,
                     .freq = e.freq,
                     .dirty = e.dirty,
                     .is_metadata = e.metadata};
}

void CacheManager::AttachAdmission(AdmissionTier& tier) {
  // Graduations happen outside the admission path, where nobody has made
  // flash room yet; wrap the plane's writer with the same evict-to-fit
  // loop a miss fill runs, or every graduation into a full flash cache
  // would fail and the eviction would degrade to a drop.
  tier.SetFlashWriter([this, inner = tier.flash_writer()](
                          ObjectId id, std::span<const uint8_t> payload,
                          uint64_t logical_bytes, uint8_t class_id,
                          SimTime now) -> Status {
    size_t attempts = entries_.size() + 2;
    while (!plane_.HasFlashSpaceFor(logical_bytes, class_id)) {
      if (attempts-- == 0 || !EvictOne(now)) {
        return Status(ErrorCode::kNoSpace, "no flash room for graduation");
      }
      if (entries_.find(id) == entries_.end()) {
        // The eviction scan took the graduating object itself: it is no
        // longer cached, so writing it to flash would leak untracked space.
        return Status(ErrorCode::kNotFound, "evicted during graduation");
      }
    }
    return inner(id, payload, logical_bytes, class_id, now);
  });
  tier.SetHotnessHook([this](ObjectId id, uint64_t logical_bytes,
                             uint64_t dram_hits, uint8_t staged_class) {
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      // Evicted from the initiator-side index already: classify on the
      // DRAM-observed reuse alone.
      ObjectState state{.id = id,
                        .logical_size = logical_bytes,
                        .freq = dram_hits};
      return static_cast<uint8_t>(Classify(state, classifier_.h_hot()));
    }
    ObjectState state = StateOf(id, it->second);
    state.freq = std::max(state.freq, dram_hits);
    DataClass cls = Classify(state, classifier_.h_hot());
    // A graduation is by definition clean data leaving DRAM; never let a
    // stale dirty flag route it into a durability class here.
    if (cls == DataClass::kMetadata || cls == DataClass::kDirty) {
      return staged_class;
    }
    return static_cast<uint8_t>(cls);
  });
}

SenseCode CacheManager::SendClassification(ObjectId id, DataClass cls,
                                           SimTime now) {
  SenseCode sense =
      initiator_.SetClassId(id, static_cast<uint8_t>(cls), now);
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    // On 0x67 the target kept the object at reduced protection; track the
    // effective class so later refreshes retry once the reserve frees up.
    it->second.cls = sense == SenseCode::kRedundancyFull
                         ? DataClass::kColdClean
                         : cls;
    if (persist_ != nullptr) {
      (void)persist_->NoteHotness(id, StateOf(id, it->second).H());
    }
  }
  return sense;
}

SenseCode CacheManager::QueryObject(ObjectId id, bool is_write, uint64_t size,
                                    SimTime now) {
  return initiator_.Query(id, is_write, 0, size, now);
}

// ---------------------------------------------------------------------------
// Client requests
// ---------------------------------------------------------------------------

RequestResult CacheManager::Get(ObjectId id, uint64_t logical_size, SimTime now) {
  ++request_counter_;
  ++stats_.gets;
  RequestResult res;
  res.bytes = logical_size;
  RequestTrace trace(tracer_, trace_root_, TraceOp::kGet, now, id.oid);

  if (failure_.array_unusable()) {
    // The striped volume is gone: every request goes to the backend.
    ++stats_.misses;
    ++stats_.uncacheable;
    Inc(tel_.class_misses[static_cast<int>(DataClass::kColdClean)]);
    Inc(tel_.uncacheable);
    trace.set_op(TraceOp::kGetUncacheable);
    auto fetch = FetchWithRetry(id, now);
    res.sense = fetch.ok() ? SenseCode::kOk : SenseCode::kFail;
    if (fetch.ok()) {
      res.latency = fetch->complete - now;
      trace.set_end(fetch->complete);
      Observe(tel_.miss_latency_us, static_cast<double>(res.latency) / 1e3);
    } else {
      trace.set_flags(kSpanError);
    }
    return res;
  }

  auto it = entries_.find(id);
  if (it != entries_.end()) {
    auto resp = initiator_.ReadObject(id, now);
    if (resp.ok()) {
      ++stats_.hits;
      res.hit = true;
      res.degraded = resp.degraded;
      res.latency = resp.complete > now ? resp.complete - now : 0;
      res.sense = resp.sense;
      it->second.freq++;
      (void)lru_.Touch(id);
      if (resp.degraded) ++stats_.degraded_reads;
      trace.set_op(resp.degraded ? TraceOp::kGetDegraded : TraceOp::kGetHit);
      if (resp.degraded) trace.set_flags(kSpanDegraded);
      trace.set_class(static_cast<uint8_t>(it->second.cls));
      trace.set_end(resp.complete);
      Inc(tel_.class_hits[static_cast<int>(it->second.cls)]);
      if (resp.degraded) {
        Inc(tel_.degraded_reads);
        Observe(tel_.degraded_latency_us,
                static_cast<double>(res.latency) / 1e3);
      } else {
        Observe(tel_.hit_latency_us, static_cast<double>(res.latency) / 1e3);
      }

      // This access may have pushed the object across H_hot: upgrade it
      // now rather than waiting for the next periodic refresh, so the
      // redundancy reserve stays committed under LRU churn. (Downgrades
      // and threshold adaptation happen at refresh time.)
      if (plane_.policy().mode() == ProtectionMode::kReo &&
          !reserve_full_hint_) {
        Entry& e = it->second;
        if (!e.dirty && !e.metadata && e.cls == DataClass::kColdClean &&
            StateOf(id, e).H() >= classifier_.h_hot()) {
          SenseCode sense = SendClassification(id, DataClass::kHotClean, now);
          ++stats_.reclassifications;
          Inc(tel_.reclassifications);
          // 0x67: the reserve is exhausted; stop retrying on every hit
          // until the next refresh frees budget (avoids a control-message
          // storm the target would reject anyway).
          if (sense == SenseCode::kRedundancyFull) reserve_full_hint_ = true;
        }
      }

      if (config_.verify_hits) {
        auto expected = BackendStore::SynthesizePayload(
            id, it->second.version, plane_.stripes().PhysicalSize(logical_size));
        if (Crc32c(expected) != Crc32c(resp.data)) {
          ++stats_.verify_failures;
          Inc(tel_.verify_failures);
        }
      }

      if (resp.degraded) {
        if (auto done = failure_.RepairOnRead(id, resp.complete, now)) {
          trace.set_flags(kSpanOnDemand);
          trace.Cover(*done);  // repair rides on this request
        }
      }

      MaybeRefresh(now);
      AdvanceBackground(now);
      return res;
    }
    if (it->second.dirty && resp.sense != SenseCode::kCorrupted) {
      // Transient (retries ran out): keep the only current copy dirty.
      res.sense = resp.sense;
      trace.set_flags(kSpanError);
      return res;
    }
    // 0x63 (a dirty object counts as lost), or a clean object's failed
    // read, which is also how a DRAM-tier drop surfaces: evict, refetch.
    LoseObject(id, now);
  }

  ++stats_.misses;
  {
    // Attribute the miss to the class the object would be admitted as.
    Entry probe;
    probe.logical_size = logical_size;
    probe.freq = 1;
    DataClass miss_cls = Classify(StateOf(id, probe), classifier_.h_hot());
    Inc(tel_.class_misses[static_cast<int>(miss_cls)]);
  }
  trace.set_op(TraceOp::kGetMiss);
  auto fetch = FetchWithRetry(id, now);
  if (!fetch.ok()) {
    res.sense = SenseCode::kFail;
    trace.set_flags(kSpanError);
    return res;
  }
  res.latency = fetch->complete - now;
  res.sense = SenseCode::kOk;
  trace.set_end(fetch->complete);
  Observe(tel_.miss_latency_us, static_cast<double>(res.latency) / 1e3);

  auto& array = plane_.stripes().array();
  bool degraded_array = array.healthy_count() < array.size();
  if (degraded_array && !config_.admit_while_degraded) {
    ++stats_.uncacheable;
    Inc(tel_.uncacheable);
  } else {
    SimTime io_complete = fetch->complete;
    if (!Admit(id, logical_size, fetch->payload, fetch->version,
               /*dirty=*/false, fetch->complete, io_complete)) {
      ++stats_.uncacheable;
      Inc(tel_.uncacheable);
    }
    trace.Cover(io_complete);  // admission IO rides on the miss
  }
  MaybeRefresh(now);
  AdvanceBackground(now);
  return res;
}

RequestResult CacheManager::Put(ObjectId id, uint64_t logical_size, SimTime now) {
  ++request_counter_;
  ++stats_.writes;
  Inc(tel_.writes);
  RequestResult res;
  res.is_write = true;
  res.bytes = logical_size;
  RequestTrace trace(tracer_, trace_root_, TraceOp::kPut, now, id.oid);

  uint64_t physical = plane_.stripes().PhysicalSize(logical_size);
  backend_.RegisterObject(id, logical_size, physical);

  uint64_t version = next_version_++;
  if (failure_.array_unusable()) {
    ++stats_.uncacheable;
    Inc(tel_.uncacheable);
    trace.set_op(TraceOp::kPutUncacheable);
    auto done = backend_.Flush(id, version, now);
    res.latency = done.ok() ? *done - now : 0;
    if (done.ok()) trace.set_end(*done);
    Observe(tel_.write_latency_us, static_cast<double>(res.latency) / 1e3);
    return res;
  }
  auto payload = BackendStore::SynthesizePayload(id, version, physical);

  // Whole-object overwrite: drop the old copy (its pending flush, if any,
  // is superseded) and admit the new version as dirty.
  if (auto it = entries_.find(id); it != entries_.end() && !it->second.metadata) {
    failure_.Forget(id);
    (void)lru_.Remove(id);
    resident_bytes_ -= it->second.logical_size;
    entries_.erase(it);
    (void)initiator_.RemoveObject(id, now);
  }

  SimTime io_complete = now;
  if (Admit(id, logical_size, payload, version, /*dirty=*/true, now,
            io_complete)) {
    res.hit = true;  // absorbed by the cache
    res.latency = io_complete > now ? io_complete - now : 0;
    trace.set_op(TraceOp::kPutWriteBack);
    trace.set_class(static_cast<uint8_t>(DataClass::kDirty));
    trace.set_end(io_complete);
  } else {
    // Cannot cache: write through to the backend synchronously.
    ++stats_.uncacheable;
    Inc(tel_.uncacheable);
    trace.set_op(TraceOp::kPutUncacheable);
    auto done = backend_.Flush(id, version, now);
    res.latency = done.ok() ? *done - now : 0;
    if (done.ok()) trace.set_end(*done);
  }
  Observe(tel_.write_latency_us, static_cast<double>(res.latency) / 1e3);
  MaybeRefresh(now);
  AdvanceBackground(now);
  return res;
}

// ---------------------------------------------------------------------------
// Admission & eviction
// ---------------------------------------------------------------------------

bool CacheManager::Admit(ObjectId id, uint64_t logical_size,
                         std::span<const uint8_t> payload, uint64_t version,
                         bool dirty, SimTime now, SimTime& io_complete) {
  Entry e;
  e.logical_size = logical_size;
  e.freq = 1;
  e.version = version;
  e.dirty = dirty;
  ObjectState state = StateOf(id, e);
  DataClass cls = Classify(state, classifier_.h_hot());
  e.cls = cls;  // SendClassification below runs before the entry exists

  // Make room, then create/classify/write. The write itself can still see
  // 0x64 (per-device fragmentation), in which case we evict and retry.
  constexpr size_t kEvictionStormThreshold = 16;
  size_t evictions = 0;
  auto evict_one = [&] {
    if (!EvictOne(now)) return false;
    if (++evictions == kEvictionStormThreshold) {
      Emit(ev_, now, EventSeverity::kWarn, "cache.eviction_storm",
           "one admission displaced many objects",
           {{"object", id.ToString()},
            {"evictions", std::to_string(evictions)},
            {"bytes", std::to_string(logical_size)}});
    }
    return true;
  };
  size_t attempts = entries_.size() + 2;
  while (attempts-- > 0) {
    while (!plane_.HasSpaceFor(logical_size, static_cast<uint8_t>(cls))) {
      if (!evict_one()) return false;
    }
    // CREATE is idempotent from the initiator's view: AlreadyExists maps
    // to kFail, which is fine for a re-admission.
    (void)initiator_.CreateObject(id, logical_size, now);
    (void)SendClassification(id, cls, now);

    auto resp = initiator_.WriteObject(id, payload, logical_size, now);
    if (resp.ok()) {
      entries_[id] = e;
      (void)lru_.Insert(id);
      resident_bytes_ += logical_size;
      PublishResidency();
      if (dirty) {
        flush_queue_.push_back(
            {.id = id, .version = version, .ready_time = now + kFlushDelayNs});
      }
      io_complete = std::max(io_complete, resp.complete);
      return true;
    }
    if (resp.sense != SenseCode::kCacheFull) return false;
    if (!evict_one()) return false;
  }
  return false;
}

bool CacheManager::EvictOne(SimTime now) {
  // LRU-first among clean objects; dirty objects must be flushed before
  // they can leave the cache (write-back invariant).
  ObjectId victim;
  bool found = false;
  lru_.ForEachLruFirst([&](ObjectId id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return true;
    if (it->second.metadata) return true;
    if (!it->second.dirty) {
      victim = id;
      found = true;
      return false;
    }
    return true;
  });
  if (!found) {
    // Everything is dirty: flush the LRU-most dirty object, then evict it.
    lru_.ForEachLruFirst([&](ObjectId id) {
      auto it = entries_.find(id);
      if (it == entries_.end() || it->second.metadata) return true;
      victim = id;
      found = true;
      return false;
    });
    if (!found) return false;
    auto it = entries_.find(victim);
    FlushObject(victim, it->second, now);
  }
  EvictObject(victim, now, /*lost=*/false);
  return true;
}

void CacheManager::EvictObject(ObjectId id, SimTime now, bool lost) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  if (it->second.cls == DataClass::kHotClean) {
    // Evicting a hot object releases its parity: the reserve may have
    // room again, so hit-time upgrades can resume.
    reserve_full_hint_ = false;
  }
  if (lost) {
    ++stats_.lost_evictions;
    Inc(tel_.lost_evictions);
  } else {
    ++stats_.evictions;
  }
  Inc(tel_.class_evictions[static_cast<int>(it->second.cls)]);
  resident_bytes_ -= it->second.logical_size;
  entries_.erase(it);
  (void)lru_.Remove(id);
  failure_.Forget(id);
  (void)initiator_.RemoveObject(id, now);
  PublishResidency();
}

void CacheManager::LoseObject(ObjectId id, SimTime now) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  if (it->second.dirty) {
    ++stats_.dirty_lost;
    Inc(tel_.dirty_lost);
  }
  EvictObject(id, now, /*lost=*/true);
}

// ---------------------------------------------------------------------------
// Write-back flusher
// ---------------------------------------------------------------------------

void CacheManager::FlushObject(ObjectId id, Entry& e, SimTime now) {
  auto done = backend_.Flush(id, e.version, std::max(now, flusher_busy_until_));
  if (done.ok()) flusher_busy_until_ = *done;
  e.dirty = false;
  ++stats_.flushes;
  Inc(tel_.flushes);
  // The object is clean now: reclassify (hot or cold) so replication space
  // is returned to the reserve.
  DataClass cls = Classify(StateOf(id, e), classifier_.h_hot());
  (void)SendClassification(id, cls, now);
}

Result<BackendFetch> CacheManager::FetchWithRetry(ObjectId id, SimTime now) {
  // Fetches are idempotent reads of the authoritative copy: a transient
  // (kIoError) failure is always safe to retry after a jittered backoff.
  SimTime t = now;
  uint32_t retries = 0;
  auto fetch = RetryTransient(kBackendRetry, backend_retry_rng_, t, retries,
                              [&](SimTime at) { return backend_.Fetch(id, at); });
  if (retries > 0) Inc(tel_.backend_retry_attempts, retries);
  if (!fetch.ok() && IsRetryable(fetch.status())) {
    Inc(tel_.backend_retry_exhausted);
    Emit(ev_, t, EventSeverity::kWarn, "retry.backend_exhausted",
         "transient backend errors exceeded the retry budget",
         {{"object", std::to_string(id.oid)},
          {"attempts", std::to_string(kBackendRetry.max_attempts)}});
  }
  return fetch;
}

void CacheManager::AdvanceBackground(SimTime now) {
  // React to fail-slow detections before scheduling other background work
  // (a demotion enqueues recovery that the budget below starts draining).
  failure_.CheckFailSlow(now);
  // Flusher: drain eligible dirty objects while the (virtual) flusher is
  // idle. The queue is in write order, so ready times are monotone.
  while (!flush_queue_.empty() && flusher_busy_until_ <= now &&
         flush_queue_.front().ready_time <= now) {
    PendingFlush pf = flush_queue_.front();
    flush_queue_.pop_front();
    auto it = entries_.find(pf.id);
    if (it == entries_.end() || !it->second.dirty ||
        it->second.version != pf.version) {
      continue;  // superseded or evicted
    }
    // The background flusher ran continuously: this flush started when the
    // object became eligible (or when the flusher freed up), not at the
    // moment we happen to observe the queue.
    FlushObject(pf.id, it->second, std::max(pf.ready_time, flusher_busy_until_));
  }
  failure_.AdvanceRecovery(now);  // paced background reconstruction
  // Paced reclassification (re-encode) maintenance.
  size_t applied = 0;
  while (!reclass_queue_.empty() && applied < kReclassPerRequest) {
    auto [id, cls] = reclass_queue_.front();
    reclass_queue_.pop_front();
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second.dirty || it->second.cls == cls) {
      continue;  // evicted, dirtied, or already there
    }
    (void)SendClassification(id, cls, now);
    ++stats_.reclassifications;
    Inc(tel_.reclassifications);
    ++applied;
  }
}

// ---------------------------------------------------------------------------
// Classification refresh
// ---------------------------------------------------------------------------

void CacheManager::MaybeRefresh(SimTime now) {
  if (plane_.policy().mode() != ProtectionMode::kReo) return;
  if (config_.hhot_refresh_interval == 0) return;
  if (request_counter_ % config_.hhot_refresh_interval != 0) return;
  RefreshClassification(now);
}

void CacheManager::RefreshClassification(SimTime now) {
  auto& stripes = plane_.stripes();
  // Budget for hot-data parity = reserve minus what replication (metadata +
  // dirty) already consumes.
  uint64_t repl_used = stripes.redundancy_bytes_at(RedundancyLevel::kReplicate);
  uint64_t reserve = plane_.reserve_bytes();
  uint64_t hot_budget = reserve > repl_used ? reserve - repl_used : 0;
  hot_budget = static_cast<uint64_t>(static_cast<double>(hot_budget) *
                                     kHotAdmissionHeadroom);

  std::vector<ObjectState> candidates;
  candidates.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    if (e.metadata || e.dirty) continue;
    candidates.push_back(StateOf(id, e));
  }
  classifier_.Refresh(candidates, hot_budget);
  double h_hot = classifier_.h_hot();
  Set(tel_.h_hot, h_hot);
  if (persist_ != nullptr) (void)persist_->NoteClassifierState(h_hot);
  Emit(ev_, now, EventSeverity::kDebug, "reclass.refresh",
       "adaptive H_hot threshold recomputed",
       {{"h_hot", std::to_string(h_hot)},
        {"candidates", std::to_string(candidates.size())},
        {"hot_budget", std::to_string(hot_budget)}});
  reserve_full_hint_ = false;  // downgrades below may free budget

  // Apply class changes: downgrades first (they release reserve budget),
  // then upgrades by H descending. Demotion uses hysteresis — an object
  // just under the threshold keeps its parity — so boundary objects do
  // not ping-pong (each flip is a full re-encode).
  struct Change {
    ObjectId id;
    DataClass to;
    double h;
  };
  constexpr double kDemoteHysteresis = 0.8;
  std::vector<Change> downs, ups;
  for (const auto& [id, e] : entries_) {
    if (e.metadata || e.dirty) continue;
    double h = StateOf(id, e).H();
    DataClass want = Classify(StateOf(id, e), h_hot);
    if (want == e.cls) continue;
    if (want == DataClass::kColdClean && e.cls == DataClass::kHotClean &&
        h >= kDemoteHysteresis * h_hot) {
      continue;  // within the hysteresis band: stay hot
    }
    (want == DataClass::kColdClean ? downs : ups).push_back({id, want, h});
  }
  std::sort(downs.begin(), downs.end(),
            [](const Change& a, const Change& b) { return a.h < b.h; });
  std::sort(ups.begin(), ups.end(),
            [](const Change& a, const Change& b) { return a.h > b.h; });

  // Queue the changes (downgrades first, so drained budget frees before
  // upgrades need it); the re-encode IO itself is background maintenance,
  // applied a few objects per request by AdvanceBackground.
  reclass_queue_.clear();  // superseded by the fresh snapshot
  size_t queued = 0;
  for (const auto* batch : {&downs, &ups}) {
    for (const Change& c : *batch) {
      if (queued >= kMaxReclassPerRefresh) return;
      reclass_queue_.emplace_back(c.id, c.to);
      ++queued;
    }
  }
}

}  // namespace reo
