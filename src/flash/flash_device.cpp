#include "flash/flash_device.h"

#include <algorithm>

#include "common/crc32c.h"

namespace reo {

FlashDevice::FlashDevice(FlashDeviceConfig config) : config_(config) {
  REO_CHECK(config_.capacity_bytes > 0);
}

void FlashDevice::AttachTelemetry(MetricRegistry& registry,
                                  const std::string& prefix) {
  tel_reads_ = &registry.GetCounter(prefix + ".reads");
  tel_writes_ = &registry.GetCounter(prefix + ".writes");
  tel_erases_ = &registry.GetCounter(prefix + ".erases");
  tel_bytes_read_ = &registry.GetGauge(prefix + ".bytes_read");
  tel_bytes_written_ = &registry.GetGauge(prefix + ".bytes_written");
  tel_wear_ = &registry.GetGauge(prefix + ".wear_fraction");
}

void FlashDevice::AttachTracing(Tracer& tracer, uint8_t array_index) {
  trace_ = &tracer.RecorderFor(TraceComponent::kFlashDevice, array_index);
}

void FlashDevice::AttachFaults(FaultInjector* injector,
                               FailSlowDetector* detector,
                               DeviceIndex array_index) {
  faults_ = injector;
  failslow_ = detector;
  fault_index_ = array_index;
}

Result<SlotId> FlashDevice::AllocateSlot(uint64_t logical_bytes) {
  if (!healthy()) return Status{ErrorCode::kUnavailable, "device failed"};
  if (logical_bytes == 0) return Status{ErrorCode::kInvalidArgument, "empty slot"};
  if (logical_bytes > free_bytes()) {
    return Status{ErrorCode::kNoSpace, "device full"};
  }
  SlotId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<SlotId>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[id];
  s.allocated = true;
  s.logical_bytes = logical_bytes;
  s.crc = 0;
  s.payload.clear();
  used_bytes_ += logical_bytes;
  ++live_slots_;
  return id;
}

Status FlashDevice::FreeSlot(SlotId slot) {
  if (slot >= slots_.size() || !slots_[slot].allocated) {
    return {ErrorCode::kNotFound, "no such slot"};
  }
  Slot& s = slots_[slot];
  used_bytes_ -= s.logical_bytes;
  --live_slots_;
  s = Slot{};
  free_list_.push_back(slot);
  return Status::Ok();
}

Status FlashDevice::WriteSlot(SlotId slot, std::span<const uint8_t> payload) {
  if (!healthy()) return {ErrorCode::kUnavailable, "device failed"};
  if (slot >= slots_.size() || !slots_[slot].allocated) {
    return {ErrorCode::kNotFound, "no such slot"};
  }
  Slot& s = slots_[slot];
  if (faults_ && faults_->enabled(FaultSite::kFlashWriteTransient) &&
      faults_
          ->Roll(FaultSite::kFlashWriteTransient,
                 static_cast<int32_t>(fault_index_))
          .fire) {
    // Before any mutation, so the caller's rollback sees the old contents.
    return {ErrorCode::kIoError, "injected transient write error"};
  }
  s.payload.assign(payload.begin(), payload.end());
  s.crc = Crc32c(payload);
  if (faults_ && faults_->enabled(FaultSite::kFlashLatent) &&
      faults_
          ->Roll(FaultSite::kFlashLatent, static_cast<int32_t>(fault_index_))
          .fire &&
      !s.payload.empty()) {
    // Latent sector error: damage the stored bytes but not the CRC, so the
    // corruption stays silent until the slot is read or scrubbed.
    s.payload[0] ^= 0xFF;
  }
  ++wear_.io_writes;
  Inc(tel_writes_);
  // Flat model: programming `logical_bytes` eventually forces that many
  // bytes of erasure (write amplification factor 1).
  wear_.bytes_written += s.logical_bytes;
  pending_erase_bytes_ += s.logical_bytes;
  while (pending_erase_bytes_ >= config_.erase_block_bytes) {
    pending_erase_bytes_ -= config_.erase_block_bytes;
    ++wear_.erase_cycles;
    Inc(tel_erases_);
  }
  Set(tel_bytes_written_, static_cast<double>(wear_.bytes_written));
  Set(tel_wear_, wear_.WearFraction(config_));
  return Status::Ok();
}

Result<std::span<const uint8_t>> FlashDevice::CheckedRead(
    SlotId slot, std::span<uint8_t> out) {
  if (!healthy()) return Status{ErrorCode::kUnavailable, "device failed"};
  if (slot >= slots_.size() || !slots_[slot].allocated) {
    return Status{ErrorCode::kNotFound, "no such slot"};
  }
  const Slot& s = slots_[slot];
  if (faults_ && faults_->enabled(FaultSite::kFlashReadTransient) &&
      faults_
          ->Roll(FaultSite::kFlashReadTransient,
                 static_cast<int32_t>(fault_index_))
          .fire) {
    return Status{ErrorCode::kIoError, "injected transient read error"};
  }
  const uint32_t crc = out.size() == s.payload.size()
                           ? Crc32cCopy(out, s.payload)
                           : Crc32c(s.payload);
  if (crc != s.crc) {
    return Status{ErrorCode::kCorrupted, "slot CRC mismatch"};
  }
  wear_.bytes_read += s.logical_bytes;
  ++wear_.io_reads;
  Inc(tel_reads_);
  Set(tel_bytes_read_, static_cast<double>(wear_.bytes_read));
  return std::span<const uint8_t>(s.payload);
}

Result<std::span<const uint8_t>> FlashDevice::ReadSlot(SlotId slot) {
  return CheckedRead(slot, {});
}

Status FlashDevice::ReadSlotInto(SlotId slot, std::span<uint8_t> out) {
  auto read = CheckedRead(slot, out);
  if (!read.ok()) return read.status();
  if (read->size() != out.size()) {
    return {ErrorCode::kCorrupted, "chunk size mismatch"};
  }
  return Status::Ok();
}

SimTime FlashDevice::ServiceTime(uint64_t logical_bytes, bool is_write) const {
  if (is_write) {
    return config_.write_fixed_ns + TransferTime(logical_bytes, config_.write_mbps);
  }
  return config_.read_fixed_ns + TransferTime(logical_bytes, config_.read_mbps);
}

SimTime FlashDevice::SubmitIo(SimTime start, uint64_t logical_bytes, bool is_write) {
  SimTime begin = std::max(start, busy_until_);
  SimTime service = ServiceTime(logical_bytes, is_write);
  if (faults_ && faults_->enabled(FaultSite::kFlashFailSlow)) {
    FaultDecision d = faults_->Roll(FaultSite::kFlashFailSlow,
                                    static_cast<int32_t>(fault_index_), start);
    if (d.fire) {
      service = static_cast<SimTime>(static_cast<double>(service) *
                                     d.slow_factor) +
                d.added_latency_ns;
    }
  }
  busy_until_ = begin + service;
  if (failslow_) failslow_->Observe(fault_index_, service, busy_until_);
  if (trace_) {
    // Span covers queueing-adjusted service only, so same-track spans on a
    // busy device abut instead of overlapping.
    trace_->Record(is_write ? TraceOp::kDeviceWrite : TraceOp::kDeviceRead,
                   begin, busy_until_, /*object=*/0, /*flags=*/0,
                   /*detail=*/logical_bytes);
  }
  return busy_until_;
}

Status FlashDevice::CorruptSlot(SlotId slot, uint32_t byte_index) {
  if (slot >= slots_.size() || !slots_[slot].allocated) {
    return {ErrorCode::kNotFound, "no such slot"};
  }
  Slot& s = slots_[slot];
  if (s.payload.empty()) return {ErrorCode::kInvalidArgument, "slot never written"};
  s.payload[byte_index % s.payload.size()] ^= 0xFF;
  return Status::Ok();
}

void FlashDevice::Fail() {
  state_ = DeviceState::kFailed;
  // Payload is gone; metadata (slot sizes) is retained by the array layer
  // for accounting, but this device can never serve those bytes again.
  for (auto& s : slots_) {
    s.payload.clear();
    s.payload.shrink_to_fit();
  }
}

void FlashDevice::Replace() {
  slots_.clear();
  free_list_.clear();
  used_bytes_ = 0;
  live_slots_ = 0;
  wear_ = FlashWearStats{};
  pending_erase_bytes_ = 0;
  state_ = DeviceState::kHealthy;
  // Fresh gauges for the fresh device; counters continue at this array
  // position.
  Set(tel_bytes_read_, 0.0);
  Set(tel_bytes_written_, 0.0);
  Set(tel_wear_, 0.0);
}

}  // namespace reo
