// The OSD target: command dispatch for the object interface.
//
// Mirrors the role of osd-target in the paper's prototype (§V): it owns the
// object metadata (ObjectStore), delegates payload bytes to a DataPlane
// (the differentiated-redundancy flash array in production; a plain map in
// tests), and implements the control-object protocol and Table III sense
// codes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/object_id.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "osd/attribute_store.h"
#include "osd/cluster_directory.h"
#include "osd/control_protocol.h"
#include "osd/object_store.h"
#include "osd/osd_session.h"
#include "osd/sense.h"
#include "telemetry/metric_registry.h"
#include "trace/tracer.h"

namespace reo {

/// Result of a data-plane IO: virtual completion time, whether parity
/// reconstruction was needed (degraded read), and the payload for reads.
struct DataPlaneIo {
  SimTime complete = 0;
  bool degraded = false;
  PayloadBuffer payload;  ///< non-zeroing: reads fill every byte anyway
};

/// Accessibility of an object's bytes (paper §IV.D: "immediately
/// accessible / corrupted but recoverable / irrecoverable").
enum class ObjectHealth : uint8_t {
  kIntact,    ///< every chunk readable directly
  kDegraded,  ///< some chunks lost but within parity capability
  kLost,      ///< lost beyond recovery
  kAbsent,    ///< no data stored for this id
};

/// Payload storage behind the OSD target. Implemented by the Reo
/// differentiated-redundancy engine (core/) and by plain stores in tests.
class DataPlane {
 public:
  virtual ~DataPlane() = default;

  /// Stores a full object (physical payload bytes; logical size for space
  /// and timing). `class_id` selects the redundancy policy.
  virtual Result<DataPlaneIo> WriteObject(ObjectId id,
                                          std::span<const uint8_t> payload,
                                          uint64_t logical_bytes,
                                          uint8_t class_id, SimTime now) = 0;

  /// Reads a full object; performs a degraded read if needed.
  virtual Result<DataPlaneIo> ReadObject(ObjectId id, SimTime now) = 0;

  virtual Status RemoveObject(ObjectId id) = 0;

  /// Re-applies redundancy after a classification change. May fail with
  /// kNoSpace when the redundancy reserve is exhausted (sense 0x67).
  virtual Status SetObjectClass(ObjectId id, uint8_t class_id, SimTime now) = 0;

  virtual ObjectHealth Health(ObjectId id) const = 0;

  /// True between a device failure and the end of its reconstruction
  /// (drives sense 0x65 / 0x66 on control-object queries).
  virtual bool recovery_active() const = 0;

  /// Whether an object of `logical_bytes` in class `class_id` (data plus
  /// its redundancy) currently fits.
  virtual bool HasSpaceFor(uint64_t logical_bytes, uint8_t class_id) const = 0;

  /// FORMAT OSD notification: the target wiped its metadata store; planes
  /// holding state of their own (e.g. durable logs) discard it here.
  virtual void OnFormat(uint64_t capacity_bytes, SimTime now) {
    (void)capacity_bytes;
    (void)now;
  }
};

/// Per-op service counters.
struct OsdTargetStats {
  uint64_t commands = 0;
  uint64_t reads = 0;
  uint64_t read_misses = 0;  ///< reads for oids the object index lacks
  uint64_t writes = 0;
  uint64_t control_messages = 0;
  uint64_t degraded_reads = 0;
  uint64_t sense_errors = 0;  ///< responses with sense != OK
};

/// The target. Not thread-safe; the simulator is single-threaded by design.
/// As a session it is the in-process path: no wire, no link time.
class OsdTarget final : public OsdSession {
 public:
  /// @param data_plane payload storage; must outlive the target.
  explicit OsdTarget(DataPlane& data_plane);

  /// Executes one command and returns its response (never throws; all
  /// storage conditions surface as sense codes). The server calls this,
  /// not the virtual Roundtrip.
  OsdResponse Execute(const OsdCommand& command);
  OsdResponse Roundtrip(const OsdCommand& command) override {
    return Execute(command);
  }

  ObjectStore& object_store() { return store_; }
  const ObjectStore& object_store() const { return store_; }
  const OsdTargetStats& stats() const { return stats_; }

  /// Registers the target's service metrics ("osd.*") and begins hot-path
  /// updates: op counts, payload bytes in/out, sense-error counts.
  void AttachTelemetry(MetricRegistry& registry);

  /// Resolves the target's span track: Execute records one span per
  /// command, op-labelled, flagged degraded / error from the response.
  void AttachTracing(Tracer& tracer) {
    trace_ = &tracer.RecorderFor(TraceComponent::kOsdTarget);
  }

  /// Cluster mode: routes #OWNER#/#NODEDOWN# control messages into the
  /// directory and notifies it of local writes/removes (refetch
  /// detection). Must outlive the target.
  void AttachCluster(ClusterDirectory& directory) { cluster_ = &directory; }

 private:
  OsdResponse HandleControlWrite(const OsdCommand& command);
  OsdResponse HandleWrite(const OsdCommand& command);
  OsdResponse HandleRead(const OsdCommand& command);

  DataPlane& data_plane_;
  ObjectStore store_;
  OsdTargetStats stats_;
  ClusterDirectory* cluster_ = nullptr;

  // Telemetry (null when un-attached).
  Counter* tel_commands_ = nullptr;
  Counter* tel_reads_ = nullptr;
  Counter* tel_read_misses_ = nullptr;
  Counter* tel_writes_ = nullptr;
  Counter* tel_control_ = nullptr;
  Counter* tel_degraded_ = nullptr;
  Counter* tel_sense_errors_ = nullptr;
  Counter* tel_bytes_in_ = nullptr;
  Counter* tel_bytes_out_ = nullptr;

  SpanRecorder* trace_ = nullptr;
};

}  // namespace reo
