#include "fault/failslow.h"

#include <algorithm>
#include <cstdio>

namespace reo {
namespace {

constexpr double kEwmaAlpha = 0.2;  ///< weight of the newest sample

}  // namespace

FailSlowDetector::FailSlowDetector(size_t devices, FailSlowConfig config)
    : config_(config), stats_(devices) {}

void FailSlowDetector::Observe(FaultDeviceIndex device, SimTime service_ns,
                               SimTime now) {
  if (device >= stats_.size()) return;
  DeviceStat& st = stats_[device];
  double sample = static_cast<double>(service_ns);
  if (st.samples == 0) {
    st.ewma = sample;
  } else {
    st.ewma += kEwmaAlpha * (sample - st.ewma);
  }
  ++st.samples;
  if (st.flagged || st.samples < config_.min_samples ||
      st.samples % config_.check_interval != 0) {
    return;
  }
  double median = MedianEwma();
  if (median > 0.0 && st.ewma > config_.outlier_factor * median) {
    ++st.outlier_streak;
  } else {
    st.outlier_streak = 0;
    return;
  }
  if (st.outlier_streak < config_.sustain_checks) return;
  st.flagged = true;
  pending_.push_back(device);
  ++flagged_total_;
  Inc(tel_flagged_);
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.1f", st.ewma / median);
  Emit(ev_, now, EventSeverity::kWarn, "device.failslow",
       "device latency sustained above array median",
       {{"device", std::to_string(device)},
        {"ewma_ns", std::to_string(static_cast<uint64_t>(st.ewma))},
        {"median_ns", std::to_string(static_cast<uint64_t>(median))},
        {"ratio", ratio}});
}

std::vector<FaultDeviceIndex> FailSlowDetector::TakeFlagged() {
  std::vector<FaultDeviceIndex> out;
  out.swap(pending_);
  return out;
}

bool FailSlowDetector::flagged(FaultDeviceIndex device) const {
  return device < stats_.size() && stats_[device].flagged;
}

double FailSlowDetector::ewma(FaultDeviceIndex device) const {
  return device < stats_.size() ? stats_[device].ewma : 0.0;
}

void FailSlowDetector::Reset(FaultDeviceIndex device) {
  if (device >= stats_.size()) return;
  stats_[device] = DeviceStat{};
}

void FailSlowDetector::AttachTelemetry(MetricRegistry& registry) {
  tel_flagged_ = &registry.GetCounter("failslow.flagged");
}

double FailSlowDetector::MedianEwma() const {
  std::vector<double> warm;
  warm.reserve(stats_.size());
  for (const auto& st : stats_) {
    if (st.samples > 0) warm.push_back(st.ewma);
  }
  if (warm.empty()) return 0.0;
  size_t mid = warm.size() / 2;
  std::nth_element(warm.begin(), warm.begin() + mid, warm.end());
  return warm[mid];
}

}  // namespace reo
