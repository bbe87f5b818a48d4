// Fail-slow device detection (the "fail-slow at scale" fault class): a
// device that still answers but takes far longer than its peers. Each
// device's service time feeds an EWMA; every check interval the EWMA is
// compared against the median EWMA across devices. A device that stays
// above `outlier_factor x median` for `sustain_checks` consecutive checks
// is flagged once — the stack's failure plane can then demote it like a
// failed device and recover onto a spare.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_clock.h"
#include "telemetry/metric_registry.h"
#include "trace/event_log.h"

namespace reo {

/// Mirrors flash/flash_device.h's DeviceIndex without depending on it
/// (reo_fault sits below reo_flash in the library graph).
using FaultDeviceIndex = uint32_t;

struct FailSlowConfig {
  double outlier_factor = 4.0;   ///< flag when EWMA > factor x median
  uint32_t min_samples = 64;     ///< per-device warm-up before judging
  uint32_t check_interval = 32;  ///< samples between outlier checks
  uint32_t sustain_checks = 3;   ///< consecutive outlier checks to flag
};

class FailSlowDetector {
 public:
  explicit FailSlowDetector(size_t devices, FailSlowConfig config = {});

  /// Feed one completed I/O: `service_ns` is the device-side service time,
  /// `now` timestamps the "device.failslow" event if this sample flags.
  void Observe(FaultDeviceIndex device, SimTime service_ns, SimTime now);

  /// Devices newly flagged since the last call (each at most once until
  /// Reset). The caller owns the response (demote, alert, ...).
  std::vector<FaultDeviceIndex> TakeFlagged();

  bool flagged(FaultDeviceIndex device) const;
  double ewma(FaultDeviceIndex device) const;
  uint64_t flagged_total() const { return flagged_total_; }

  /// Forget a device's history — call after a spare replaces it.
  void Reset(FaultDeviceIndex device);

  /// "failslow.flagged" counter.
  void AttachTelemetry(MetricRegistry& registry);
  void AttachEvents(EventLog& events) { ev_ = &events; }

 private:
  struct DeviceStat {
    double ewma = 0.0;
    uint64_t samples = 0;
    uint32_t outlier_streak = 0;
    bool flagged = false;
  };

  double MedianEwma() const;

  FailSlowConfig config_;
  std::vector<DeviceStat> stats_;
  std::vector<FaultDeviceIndex> pending_;
  uint64_t flagged_total_ = 0;
  Counter* tel_flagged_ = nullptr;
  EventLog* ev_ = nullptr;
};

}  // namespace reo
