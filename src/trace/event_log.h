// Structured log of discrete system occurrences: device failures, spare
// insertions, class reclassification refreshes, on-demand vs background
// rebuilds, eviction storms. Complements spans (which time *continuous*
// work) with the sparse milestones the paper's recovery analysis (§VI.C,
// Fig. 8) reads minute-by-minute.
//
// Events are rare by construction, so they carry real strings; the hot
// path never emits one. The log is bounded: once `capacity` events are
// held, later ones are counted but not stored (the earliest events are
// the ones a post-mortem timeline needs).
//
// Threading: one vector under one mutex, in emission order. Emit checks
// the bound under the lock before it builds the event's strings, so a full
// log costs a dropped event one lock and no allocation. Readers copy under
// the same lock: events/ToText/ToJson/RecoveryTimeline/size/dropped are
// safe against concurrent Emit.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sim_clock.h"

namespace reo {

enum class EventSeverity : uint8_t { kDebug = 0, kInfo, kWarn, kError };

constexpr std::string_view to_string(EventSeverity s) {
  switch (s) {
    case EventSeverity::kDebug: return "DEBUG";
    case EventSeverity::kInfo: return "INFO";
    case EventSeverity::kWarn: return "WARN";
    case EventSeverity::kError: return "ERROR";
  }
  return "?";
}

/// One logged occurrence: a dot-scoped category ("device.failure",
/// "recovery.rebuild"), a short message, and key=value detail fields.
struct LoggedEvent {
  SimTime time = 0;
  EventSeverity severity = EventSeverity::kInfo;
  std::string category;
  std::string message;
  std::vector<std::pair<std::string, std::string>> fields;

  /// First value for `key`, or empty when absent.
  std::string_view Field(std::string_view key) const;
};

class EventLog {
 public:
  explicit EventLog(size_t capacity = 65536) : capacity_(capacity) {}

  void Emit(SimTime time, EventSeverity severity, std::string_view category,
            std::string_view message,
            std::initializer_list<std::pair<std::string_view, std::string>>
                fields = {});

  /// A copy of every stored event, in emission order.
  std::vector<LoggedEvent> events() const;
  uint64_t dropped() const;
  size_t size() const;
  void Clear();

  /// Full log, one line per event:
  ///   [     12.345 ms] WARN  device.failure      device 0 shot down  device=0 ...
  std::string ToText() const;

  /// {"schema":"reo.events.v1","dropped":N,"events":[{"t_ms":...,
  ///  "severity":"WARN","category":...,"message":...,"fields":{...}},...]}
  /// Newest `max_events` retained events (0 = all) — the ADMIN EVENTS body.
  std::string ToJson(size_t max_events = 0) const;

  /// Human-readable recovery report: the failure/spare/rebuild milestones
  /// in time order, with per-class rebuild roll-ups — the "what did the
  /// recovery scheduler do minute-by-minute" answer for a Fig. 8 run.
  std::string RecoveryTimeline() const;

 private:
  mutable std::mutex mu_;
  std::vector<LoggedEvent> events_;  ///< at most capacity_
  size_t capacity_;
  uint64_t dropped_ = 0;
};

/// Null-tolerant emit helper, mirroring telemetry's Inc/Set/Observe: a
/// component whose EventLog* is un-attached pays one branch.
inline void Emit(EventLog* log, SimTime time, EventSeverity severity,
                 std::string_view category, std::string_view message,
                 std::initializer_list<std::pair<std::string_view, std::string>>
                     fields = {}) {
  if (log) log->Emit(time, severity, category, message, fields);
}

}  // namespace reo
