// An array of simulated flash SSDs — the substrate the paper's target runs
// on (five 120 GB SSDs in the evaluation). Owns the devices, exposes
// fail / replace-with-spare, and aggregate space/wear views.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "flash/flash_device.h"
#include "telemetry/metric_registry.h"

namespace reo {

class FlashArray {
 public:
  /// Builds `count` devices from a template config (ids are overwritten
  /// with the array position).
  FlashArray(size_t count, FlashDeviceConfig device_template);

  size_t size() const { return devices_.size(); }
  FlashDevice& device(DeviceIndex i) { return *devices_.at(i); }
  const FlashDevice& device(DeviceIndex i) const { return *devices_.at(i); }

  /// Number of devices currently healthy.
  size_t healthy_count() const;

  /// Indices of all healthy devices, in position order.
  std::vector<DeviceIndex> HealthyDevices() const;

  /// Shoots down device `i` (paper §VI.C "shootdown" command).
  Status FailDevice(DeviceIndex i);

  /// Replaces failed device `i` with a fresh spare (empty, healthy, zero
  /// wear). A healthy device is refused with kInvalidArgument.
  Status ReplaceDevice(DeviceIndex i);

  /// Aggregate logical capacity across all devices (healthy or not).
  uint64_t total_capacity_bytes() const;
  /// Aggregate logical bytes in use on healthy devices.
  uint64_t used_bytes() const;

  /// Largest wear fraction across devices (the array's life-limiting value).
  double MaxWearFraction() const;

  /// Registers every device's metrics ("flash.dev<i>.*") plus array-level
  /// gauges ("flash.devices", "flash.healthy_devices") and begins hot-path
  /// updates.
  void AttachTelemetry(MetricRegistry& registry);

  /// Resolves a span track per device position ("flash.dev<i>").
  void AttachTracing(Tracer& tracer);

  /// Wires fault injection into every device (position-indexed).
  void AttachFaults(FaultInjector* injector, FailSlowDetector* detector);

 private:
  std::vector<std::unique_ptr<FlashDevice>> devices_;
  Gauge* tel_healthy_ = nullptr;
};

}  // namespace reo
