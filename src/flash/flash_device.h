// Simulated flash SSD.
//
// Substitute for the paper's Intel 540s SATA SSDs (see DESIGN.md §2). The
// device stores chunk payloads in fixed "slots" (real bytes, CRC-protected),
// models service time as fixed cost + size/bandwidth, tracks wear
// (bytes written / erase-block cycles), and supports fail / replace for the
// failure-resistance experiments.
//
// Two byte quantities per slot: the *logical* size (full paper-scale bytes,
// used for capacity and timing) and the *physical* payload actually held in
// memory (logical >> scale_shift; see DESIGN.md "Scaling"). Physical
// payloads live in recycled frames of the device's SlotFrames
// (slot_frames.h), not in one heap buffer per slot.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "fault/failslow.h"
#include "fault/fault_injector.h"
#include "flash/slot_frames.h"
#include "telemetry/metric_registry.h"
#include "trace/tracer.h"

namespace reo {

/// Identifies a chunk slot on one device.
using SlotId = uint32_t;

/// Index of a device within a FlashArray.
using DeviceIndex = uint32_t;

/// Service-time and geometry parameters for one device.
struct FlashDeviceConfig {
  uint32_t id = 0;
  uint64_t capacity_bytes = 120ULL * 1000 * 1000 * 1000;  ///< logical bytes
  double read_mbps = 500.0;    ///< sequential read bandwidth (logical MB/s)
  double write_mbps = 350.0;   ///< sequential write bandwidth
  SimTime read_fixed_ns = 80 * kNsPerUs;   ///< per-IO setup latency
  SimTime write_fixed_ns = 100 * kNsPerUs;
  uint64_t erase_block_bytes = 4ULL << 20;  ///< wear-accounting granularity
  uint32_t pe_cycle_limit = 3000;  ///< endurance rating (P/E cycles)
};

enum class DeviceState : uint8_t {
  kHealthy,
  kFailed,  ///< shot down: contents lost, IO rejected
};

/// Lifetime wear and traffic counters.
struct FlashWearStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;      ///< logical bytes programmed
  uint64_t erase_cycles = 0;       ///< block erases implied by writes
  uint64_t io_reads = 0;
  uint64_t io_writes = 0;
  /// Fraction of rated endurance consumed (0 = new, 1 = worn out).
  double WearFraction(const FlashDeviceConfig& cfg) const {
    if (cfg.pe_cycle_limit == 0) return 0.0;
    double rated_bytes = static_cast<double>(cfg.capacity_bytes) *
                         static_cast<double>(cfg.pe_cycle_limit);
    if (rated_bytes <= 0) return 0.0;
    return static_cast<double>(bytes_written) / rated_bytes;
  }
};

/// One simulated SSD.
class FlashDevice {
 public:
  explicit FlashDevice(FlashDeviceConfig config);

  const FlashDeviceConfig& config() const { return config_; }
  DeviceState state() const { return state_; }
  bool healthy() const { return state_ == DeviceState::kHealthy; }

  // --- Space ---------------------------------------------------------------

  /// Reserves a slot for `logical_bytes`; fails with kNoSpace when full and
  /// kUnavailable when the device is failed.
  Result<SlotId> AllocateSlot(uint64_t logical_bytes);

  /// Releases a slot and its bytes.
  Status FreeSlot(SlotId slot);

  /// Stores the physical payload for a previously allocated slot: a copy
  /// into the slot's frame, then the CRC of the source. A rewrite of the
  /// same size reuses the frame in place. (A fused copy-and-CRC lost to
  /// this on cold destination lines, so writes keep the two passes.)
  Status WriteSlot(SlotId slot, std::span<const uint8_t> payload);

  /// Returns a view of the physical payload, valid until the slot is next
  /// written or freed or the device fails or is replaced. Fails with
  /// kUnavailable if the device is down and kCorrupted if the payload fails
  /// its CRC. Non-const: reads advance the wear/traffic counters.
  Result<std::span<const uint8_t>> ReadSlot(SlotId slot);

  /// ReadSlot that copies the payload into `out` in the same pass that
  /// checks its CRC: the same checks, fault roll and counters, in the same
  /// order, and the same errors. On kCorrupted `out` holds the unverified
  /// bytes and the caller must discard them. An `out` of another size than
  /// the payload fails with kCorrupted ("chunk size mismatch") after the
  /// read is counted, and is left untouched.
  Status ReadSlotInto(SlotId slot, std::span<uint8_t> out);

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t free_bytes() const { return config_.capacity_bytes - used_bytes_; }
  size_t live_slots() const { return live_slots_; }
  /// Memory mapped for slot payloads (SlotFrames::mapped_bytes): held
  /// until Fail or Replace, however many slots are freed meanwhile.
  size_t payload_bytes_mapped() const { return frames_.mapped_bytes(); }

  // --- Timing --------------------------------------------------------------

  /// Schedules an IO of `logical_bytes` starting no earlier than `start`;
  /// returns its completion time. The device serializes its own IOs
  /// (busy_until), so concurrent chunk reads on *different* devices overlap
  /// while reads on the same device queue.
  SimTime SubmitIo(SimTime start, uint64_t logical_bytes, bool is_write);

  /// Pure service time of one IO, without queueing.
  SimTime ServiceTime(uint64_t logical_bytes, bool is_write) const;

  SimTime busy_until() const { return busy_until_; }

  // --- Failure & wear --------------------------------------------------------

  /// Shoot the device down: every resident payload is lost and its
  /// memory unmapped.
  void Fail();

  /// Injects latent (silent) corruption: flips one payload byte without
  /// touching the stored CRC, so the damage is only visible when the slot
  /// is next read or scrubbed. Models bit rot / partial data loss.
  Status CorruptSlot(SlotId slot, uint32_t byte_index = 0);

  /// Swap in a fresh spare at the same array position: healthy, empty,
  /// zero wear.
  void Replace();

  const FlashWearStats& wear() const { return wear_; }

  /// Registers this device's metrics under `prefix` (e.g. "flash.dev0")
  /// and begins hot-path updates. Survives Fail/Replace: a spare swapped
  /// in at this position keeps reporting under the same names (counters
  /// are array-position-lifetime; gauges reflect the current device).
  void AttachTelemetry(MetricRegistry& registry, const std::string& prefix);

  /// Resolves this device's span track ("flash.dev<index>"). Like
  /// telemetry, the recorder pointer is position-lifetime: it survives
  /// Fail/Replace so a spare keeps recording on the same track.
  void AttachTracing(Tracer& tracer, uint8_t array_index);

  /// Wires fault injection into this device's slot I/O. `injector` rolls
  /// flash.read_transient / flash.write_transient / flash.latent /
  /// flash.failslow per op; `detector` (optional) observes every IO's
  /// service time for fail-slow detection. Both pointers are
  /// position-lifetime (survive Fail/Replace), like telemetry.
  void AttachFaults(FaultInjector* injector, FailSlowDetector* detector,
                    DeviceIndex array_index);

 private:
  struct Slot {
    bool allocated = false;
    uint32_t crc = 0;
    uint64_t logical_bytes = 0;
    uint8_t* frame = nullptr;  ///< null until written, and after Fail
    size_t payload_bytes = 0;
    std::span<const uint8_t> payload() const { return {frame, payload_bytes}; }
  };

  /// The read shared by ReadSlot and ReadSlotInto: device state, slot, the
  /// transient-read roll, the CRC check, then the counters. With `out` of
  /// the payload's size the CRC is taken while the payload is copied there.
  Result<std::span<const uint8_t>> CheckedRead(SlotId slot,
                                               std::span<uint8_t> out);

  FlashDeviceConfig config_;
  DeviceState state_ = DeviceState::kHealthy;
  SlotFrames frames_;
  std::vector<Slot> slots_;
  std::vector<SlotId> free_list_;
  uint64_t used_bytes_ = 0;
  size_t live_slots_ = 0;
  SimTime busy_until_ = 0;
  FlashWearStats wear_;
  uint64_t pending_erase_bytes_ = 0;  // accumulates toward erase cycles

  // Telemetry (null when un-attached).
  Counter* tel_reads_ = nullptr;
  Counter* tel_writes_ = nullptr;
  Counter* tel_erases_ = nullptr;
  Gauge* tel_bytes_read_ = nullptr;
  Gauge* tel_bytes_written_ = nullptr;
  Gauge* tel_wear_ = nullptr;

  // Tracing (null when un-attached): SubmitIo records one leaf span per IO
  // on this device's track, [queue-adjusted begin, completion].
  SpanRecorder* trace_ = nullptr;

  // Fault injection (null when un-attached).
  FaultInjector* faults_ = nullptr;
  FailSlowDetector* failslow_ = nullptr;
  DeviceIndex fault_index_ = 0;
};

}  // namespace reo
