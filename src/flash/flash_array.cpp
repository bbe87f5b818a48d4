#include "flash/flash_array.h"

#include <algorithm>

namespace reo {

FlashArray::FlashArray(size_t count, FlashDeviceConfig device_template) {
  REO_CHECK(count >= 1);
  devices_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    FlashDeviceConfig cfg = device_template;
    cfg.id = static_cast<uint32_t>(i);
    devices_.push_back(std::make_unique<FlashDevice>(cfg));
  }
}

size_t FlashArray::healthy_count() const {
  size_t n = 0;
  for (const auto& d : devices_) n += d->healthy() ? 1 : 0;
  return n;
}

std::vector<DeviceIndex> FlashArray::HealthyDevices() const {
  std::vector<DeviceIndex> out;
  out.reserve(devices_.size());
  for (DeviceIndex i = 0; i < devices_.size(); ++i) {
    if (devices_[i]->healthy()) out.push_back(i);
  }
  return out;
}

Status FlashArray::FailDevice(DeviceIndex i) {
  if (i >= devices_.size()) return {ErrorCode::kNotFound, "no such device"};
  if (!devices_[i]->healthy()) return {ErrorCode::kInvalidArgument, "already failed"};
  devices_[i]->Fail();
  Set(tel_healthy_, static_cast<double>(healthy_count()));
  return Status::Ok();
}

Status FlashArray::ReplaceDevice(DeviceIndex i) {
  if (i >= devices_.size()) return {ErrorCode::kNotFound, "no such device"};
  // A healthy device still holds chunks the stripes name by slot id; a
  // fresh device would hand those ids to new writes.
  if (devices_[i]->healthy()) return {ErrorCode::kInvalidArgument, "not failed"};
  devices_[i]->Replace();
  Set(tel_healthy_, static_cast<double>(healthy_count()));
  return Status::Ok();
}

void FlashArray::AttachTelemetry(MetricRegistry& registry) {
  for (DeviceIndex i = 0; i < devices_.size(); ++i) {
    devices_[i]->AttachTelemetry(registry,
                                 "flash.dev" + std::to_string(i));
  }
  registry.GetGauge("flash.devices").Set(static_cast<double>(devices_.size()));
  tel_healthy_ = &registry.GetGauge("flash.healthy_devices");
  tel_healthy_->Set(static_cast<double>(healthy_count()));
}

void FlashArray::AttachTracing(Tracer& tracer) {
  for (DeviceIndex i = 0; i < devices_.size(); ++i) {
    devices_[i]->AttachTracing(tracer, static_cast<uint8_t>(i));
  }
}

void FlashArray::AttachFaults(FaultInjector* injector,
                              FailSlowDetector* detector) {
  for (DeviceIndex i = 0; i < devices_.size(); ++i) {
    devices_[i]->AttachFaults(injector, detector, i);
  }
}

uint64_t FlashArray::total_capacity_bytes() const {
  uint64_t sum = 0;
  for (const auto& d : devices_) sum += d->config().capacity_bytes;
  return sum;
}

uint64_t FlashArray::used_bytes() const {
  uint64_t sum = 0;
  for (const auto& d : devices_) {
    if (d->healthy()) sum += d->used_bytes();
  }
  return sum;
}

double FlashArray::MaxWearFraction() const {
  double w = 0.0;
  for (const auto& d : devices_) {
    w = std::max(w, d->wear().WearFraction(d->config()));
  }
  return w;
}

}  // namespace reo
