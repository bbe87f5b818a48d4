// StripeManager: the differentiated-redundancy storage engine of Reo.
//
// Maps whole objects onto variable-parity stripes over a FlashArray
// (paper §IV.C.3–C.4), serves normal / degraded reads (§IV.D "on-demand
// access"), rebuilds lost chunks (§IV.D "data reconstruction"), and keeps
// the space accounting (user vs redundancy bytes) that drives the paper's
// space-efficiency results (§VI.B).
//
// Striping is per-object: an object's chunks fill consecutive stripes of
// its redundancy level; the final stripe may be short. Parity is computed
// at stripe seal with the systematic Reed-Solomon code; replication levels
// store verbatim copies.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/object_id.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "ec/parity_update.h"
#include "ec/rs_code.h"
#include "flash/flash_array.h"
#include "array/stripe.h"
#include "telemetry/metric_registry.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {

/// Parity placement across devices. kRotating spreads parity round-robin
/// (the paper's scheme, §IV.C.3: "map the parity chunks to the devices in
/// a round-robin manner for an even distribution"). kAgeSkewed pins parity
/// to the highest-index devices so the array ages *unevenly* — the idea of
/// Differential RAID (Balakrishnan et al., [34] in the paper): correlated
/// wear-out of same-age SSDs is itself a reliability risk.
enum class ParityPlacement : uint8_t {
  kRotating,
  kAgeSkewed,
};

/// Most devices a stripe spans: stripes run across every healthy device,
/// and a GF(256) Reed-Solomon stripe holds at most 255 chunks (rs_code.h).
inline constexpr size_t kMaxDevices = 255;
/// Largest physical scale: the shift applies to a 64-bit byte count.
inline constexpr uint32_t kMaxScaleShift = 63;

struct StripeManagerConfig {
  /// Logical bytes per chunk (64 KiB in Figs 5–7/9; 1 MiB in Fig 8).
  uint64_t chunk_logical_bytes = 64 * 1024;
  ParityPlacement parity_placement = ParityPlacement::kRotating;
  /// Physical payload = logical >> scale_shift (DESIGN.md "Scaling").
  /// 0 = store full-size payloads (tests); 6 = 1:64 (benches).
  uint32_t scale_shift = 0;
  /// Logical byte budget (data + redundancy) the cache may occupy across
  /// the array. 0 = no limit beyond the devices themselves. The paper's
  /// cache size (e.g. 10 % of the dataset) is a configuration knob, far
  /// below the 5 x 120 GB of raw flash.
  uint64_t capacity_limit_bytes = 0;
};

/// Outcome of a data-path operation, with virtual-time completion.
struct ArrayIo {
  SimTime complete = 0;
  bool degraded = false;            ///< read needed parity reconstruction
  /// Physical bytes (reads only). PayloadBuffer: the read path sizes this
  /// buffer and then overwrites every byte with chunk copies, so resize()
  /// must not pay a zero-fill first.
  PayloadBuffer payload;
  uint32_t chunk_reads = 0;
  uint32_t chunk_writes = 0;
  /// Chunks whose CRC failed during this operation (latent sector errors
  /// found on read). Each was marked lost; the caller should repair in
  /// place via RebuildObject.
  uint32_t corrupt_chunks = 0;
};

/// Array-wide space accounting (logical bytes).
struct SpaceStats {
  uint64_t user_bytes = 0;        ///< live object data
  uint64_t redundancy_bytes = 0;  ///< parity chunks + extra replicas
  uint64_t capacity_bytes = 0;    ///< healthy-device capacity
  uint64_t free_bytes = 0;
  /// §VI.B: user data as a fraction of all occupied space.
  double SpaceEfficiency() const {
    uint64_t occupied = user_bytes + redundancy_bytes;
    return occupied ? static_cast<double>(user_bytes) / static_cast<double>(occupied) : 1.0;
  }
};

/// Recoverability of one object after failures.
enum class ObjectSurvival : uint8_t {
  kIntact,       ///< all chunks readable
  kRecoverable,  ///< some chunks lost, all within parity capability
  kLost,         ///< at least one chunk irrecoverable
};

/// Entry in the failure report handed to the failure plane.
struct AffectedObject {
  ObjectId id;
  ObjectSurvival survival = ObjectSurvival::kIntact;
  uint64_t lost_bytes = 0;  ///< logical bytes needing reconstruction
};

class StripeManager {
 public:
  /// @param array device substrate; must outlive the manager.
  StripeManager(FlashArray& array, StripeManagerConfig config);

  const StripeManagerConfig& config() const { return config_; }

  /// Physical payload bytes required for an object of `logical` size.
  uint64_t PhysicalSize(uint64_t logical) const;
  uint64_t chunk_physical_bytes() const { return chunk_physical_; }

  // --- Data path -------------------------------------------------------------

  /// Stores an object at the given redundancy level. Overwrites any
  /// previous version. Fails with kNoSpace (nothing stored) when the data
  /// plus redundancy does not fit on the healthy devices.
  Result<ArrayIo> PutObject(ObjectId id, std::span<const uint8_t> payload,
                            uint64_t logical_bytes, RedundancyLevel level,
                            SimTime now);

  /// Reads a whole object, reconstructing lost chunks from parity when
  /// needed (degraded read). Fails with kUnrecoverable when lost chunks
  /// exceed the stripe's parity, kNotFound when absent.
  Result<ArrayIo> GetObject(ObjectId id, SimTime now);

  /// In-place partial update: overwrites the physical byte range
  /// [offset, offset+data.size()) of an object and maintains parity per
  /// chunk using whichever of direct re-encode / delta update incurs fewer
  /// chunk reads (paper §II.B). Replicated objects update every copy.
  /// The object's logical size and level are unchanged; the range must lie
  /// within the object's physical extent. Fails with kUnavailable if any
  /// touched stripe has lost chunks (rebuild first).
  Result<ArrayIo> UpdateObjectRange(ObjectId id, uint64_t offset,
                                    std::span<const uint8_t> data, SimTime now);

  /// Chunk reads the §II.B cost model predicts for updating one data chunk
  /// of this object (exposed for tests/benches).
  Result<ParityUpdateCost> UpdateCostOf(ObjectId id) const;

  /// Drops an object and frees all of its stripes.
  Status RemoveObject(ObjectId id);

  /// Re-encodes an object at a new redundancy level (classification
  /// change). No-op if the level is unchanged.
  Result<ArrayIo> ReencodeObject(ObjectId id, RedundancyLevel level, SimTime now);

  bool Contains(ObjectId id) const { return objects_.contains(id); }
  Result<RedundancyLevel> LevelOf(ObjectId id) const;
  Result<uint64_t> LogicalSizeOf(ObjectId id) const;
  ObjectSurvival SurvivalOf(ObjectId id) const;

  /// All resident object ids (unordered).
  std::vector<ObjectId> ListObjects() const;

  // --- Failure handling (paper §IV.D) ---------------------------------------

  /// Marks every chunk on `device` lost and reports each affected object
  /// with its survivability. Call after FlashArray::FailDevice.
  std::vector<AffectedObject> OnDeviceFailure(DeviceIndex device);

  /// Rebuilds all lost chunks of one object onto healthy devices, reading
  /// survivors and decoding, then re-spreads chunks that share a device
  /// (stripes rebuilt at reduced width double up; once spares restore the
  /// width, fault isolation must be restored too). Consumes IO time on the
  /// devices; returns the rebuild completion time.
  ///
  /// A data chunk read back to re-encode a lost replica or parity chunk
  /// that fails its read does not end the repair: a corrupt one is marked
  /// lost, and the stripe is repaired again, at most once per chunk.
  ///
  /// Fails with kUnrecoverable if the object is lost, kNoSpace if no
  /// healthy device can hold a rebuilt chunk.
  Result<ArrayIo> RebuildObject(ObjectId id, SimTime now);

  /// Objects with a stripe that keeps two live chunks on one device while
  /// some healthy device holds none — candidates for RebuildObject's
  /// rebalancing after a spare insertion.
  std::vector<ObjectId> PoorlyPlacedObjects() const;

  /// Objects currently having at least one lost chunk (rebuild work list).
  std::vector<ObjectId> DamagedObjects() const;

  /// Result of one scrubbing pass (see Scrub).
  struct ScrubReport {
    uint64_t chunks_scanned = 0;
    uint64_t corrupt_found = 0;   ///< CRC mismatches detected
    uint64_t chunks_repaired = 0; ///< rebuilt from parity/replicas
    std::vector<ObjectId> lost;   ///< corruption beyond parity capability
    SimTime complete = 0;
  };

  /// Background scrubber: reads and CRC-verifies every resident chunk,
  /// repairs latent corruption from parity/replicas, and reports objects
  /// whose damage exceeds their redundancy (the caller should evict
  /// those). Catches the silent-corruption failure mode the paper's
  /// introduction warns about.
  ScrubReport Scrub(SimTime now);

  // --- Accounting ------------------------------------------------------------

  SpaceStats Space() const;

  /// Estimated logical bytes (data + redundancy) storing an object of
  /// `logical_bytes` at `level` would consume at current array width.
  uint64_t FootprintEstimate(uint64_t logical_bytes, RedundancyLevel level) const;

  /// True if FootprintEstimate fits in current free space.
  bool HasSpaceFor(uint64_t logical_bytes, RedundancyLevel level) const;

  uint64_t user_bytes() const { return user_bytes_; }
  uint64_t redundancy_bytes() const { return redundancy_bytes_; }
  /// Redundancy bytes attributable to stripes of one level (e.g. how much
  /// of the reserve replication is consuming vs hot-data parity).
  uint64_t redundancy_bytes_at(RedundancyLevel level) const {
    return redundancy_by_level_[static_cast<size_t>(level)];
  }

  FlashArray& array() { return array_; }

  /// Resolves the reconstruction span track (stripe decodes, rebuilds)
  /// and fans out to every device's flash track.
  void AttachTracing(Tracer& tracer) {
    trace_recon_ = &tracer.RecorderFor(TraceComponent::kReconstruction);
    array_.AttachTracing(tracer);
  }

  /// "scrub.*" counters: every scrub detection and repair is visible in
  /// metrics, not just in the returned ScrubReport.
  void AttachTelemetry(MetricRegistry& registry);

  /// Scrub milestones ("scrub.corrupt_found" per detection,
  /// "scrub.repair" per repaired object) land in this log.
  void AttachEvents(EventLog& events) { ev_ = &events; }

 private:
  struct ObjectEntry {
    uint64_t logical_size = 0;
    RedundancyLevel level = RedundancyLevel::kNone;
    std::vector<StripeId> stripes;  // in chunk order
  };

  friend class StripeRebuilder;  // reconstruction.cpp

  /// Writes one stripe's worth of chunks (data slice + redundancy) onto
  /// devices; returns completion time or rolls back on allocation failure.
  Result<SimTime> WriteStripe(ObjectId id, RedundancyLevel level,
                              std::span<const std::span<const uint8_t>> data_bufs,
                              std::span<const uint64_t> data_logical,
                              uint32_t first_chunk_index, SimTime now,
                              ArrayIo& io, std::vector<StripeId>& out);

  /// Reads one live chunk into `out` (its size), checking the CRC while it
  /// copies (FlashDevice::ReadSlotInto). On an error the caller discards
  /// `out`. Updates `io`.
  Status ReadChunk(const StripeChunk& chunk, std::span<uint8_t> out,
                   SimTime now, ArrayIo& io);

  /// Decodes all lost data chunks of `stripe` from survivors: afterwards
  /// decoded(i) holds data chunk i for every i with stripe.data[i].lost.
  /// Charges survivor reads. Self-healing: a survivor that fails its CRC is
  /// marked lost on the spot and decoding continues with the remaining
  /// fragments.
  Status DecodeStripe(Stripe& stripe, SimTime now, ArrayIo& io);
  std::span<const uint8_t> decoded(size_t i) const { return data_scratch_[i]; }

  /// Marks a chunk lost after its payload proved unreadable (corrupt):
  /// releases the slot and flags it for reconstruction.
  void MarkChunkLost(StripeChunk& chunk);

  /// Resizes `bufs` to `n` chunk-size buffers (no zero-fill) and returns
  /// them.
  std::span<PayloadBuffer> Scratch(std::vector<PayloadBuffer>& bufs, size_t n);

  void FreeStripe(Stripe& stripe);
  const RsCode& CodeFor(size_t m, size_t k);

  FlashArray& array_;
  StripeManagerConfig config_;
  uint64_t chunk_physical_ = 0;
  StripeId next_stripe_id_ = 1;

  std::unordered_map<ObjectId, ObjectEntry, ObjectIdHash> objects_;
  std::unordered_map<StripeId, Stripe> stripes_;
  std::unordered_map<uint64_t, RsCode> codes_;  // key m*256+k

  // Chunk-size scratch reused across calls instead of zero-filled per-call
  // vectors (a StripeManager serves one shard, on one thread): the data
  // chunks DecodeStripe rebuilds, by data position, and the parity
  // WriteStripe and RebuildObject encode.
  std::vector<PayloadBuffer> data_scratch_;
  std::vector<PayloadBuffer> parity_scratch_;

  uint64_t user_bytes_ = 0;
  uint64_t redundancy_bytes_ = 0;
  uint64_t redundancy_by_level_[4] = {0, 0, 0, 0};

  SpanRecorder* trace_recon_ = nullptr;
  EventLog* ev_ = nullptr;
  Counter* tel_scrub_passes_ = nullptr;
  Counter* tel_scrub_scanned_ = nullptr;
  Counter* tel_scrub_corrupt_ = nullptr;
  Counter* tel_scrub_repaired_ = nullptr;
  Counter* tel_scrub_lost_ = nullptr;
  Counter* tel_crc_detected_ = nullptr;
};

}  // namespace reo
