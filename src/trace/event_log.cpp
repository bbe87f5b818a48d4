#include "trace/event_log.h"

#include <cstdio>
#include <map>

#include "telemetry/json_util.h"

namespace reo {
namespace {

void AppendTimestamp(std::string& out, SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "[%12.3f ms] ", ToMs(t));
  out += buf;
}

void AppendLine(std::string& out, const LoggedEvent& e) {
  AppendTimestamp(out, e.time);
  char head[80];
  std::snprintf(head, sizeof(head), "%-5s %-22s ",
                std::string(to_string(e.severity)).c_str(), e.category.c_str());
  out += head;
  out += e.message;
  for (const auto& [k, v] : e.fields) {
    out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  out += '\n';
}

}  // namespace

std::string_view LoggedEvent::Field(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return {};
}

void EventLog::Emit(
    SimTime time, EventSeverity severity, std::string_view category,
    std::string_view message,
    std::initializer_list<std::pair<std::string_view, std::string>> fields) {
  std::lock_guard<std::mutex> lock(mu_);
  // The first `capacity_` events are kept; later ones are only counted.
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  LoggedEvent& e = events_.emplace_back();
  e.time = time;
  e.severity = severity;
  e.category = std::string(category);
  e.message = std::string(message);
  e.fields.reserve(fields.size());
  for (const auto& [k, v] : fields) {
    e.fields.emplace_back(std::string(k), v);
  }
}

std::vector<LoggedEvent> EventLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void EventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

std::string EventLog::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& e : events_) AppendLine(out, e);
  if (dropped_ > 0) {
    out += "... " + std::to_string(dropped_) +
           " later events dropped (log full)\n";
  }
  return out;
}

std::string EventLog::ToJson(size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = events_.size();
  if (max_events && max_events < n) n = max_events;
  size_t first = events_.size() - n;

  std::string out = "{\"schema\":\"reo.events.v1\",\"dropped\":";
  out += JsonNum(static_cast<double>(dropped_));
  out += ",\"events\":[";
  for (size_t i = first; i < events_.size(); ++i) {
    const LoggedEvent& e = events_[i];
    if (i != first) out.push_back(',');
    out += "{\"t_ms\":" + JsonNum(ToMs(e.time));
    out += ",\"severity\":";
    AppendJsonString(out, to_string(e.severity));
    out += ",\"category\":";
    AppendJsonString(out, e.category);
    out += ",\"message\":";
    AppendJsonString(out, e.message);
    out += ",\"fields\":{";
    for (size_t f = 0; f < e.fields.size(); ++f) {
      if (f) out.push_back(',');
      AppendJsonString(out, e.fields[f].first);
      out.push_back(':');
      AppendJsonString(out, e.fields[f].second);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string EventLog::RecoveryTimeline() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "== Recovery timeline ==\n";
  // Per-class on-demand/background rebuild roll-up, filled as we walk.
  struct ClassTally {
    uint64_t on_demand = 0;
    uint64_t background = 0;
  };
  std::map<int, ClassTally> tally;
  size_t shown = 0;

  auto relevant = [](const LoggedEvent& e) {
    return e.category.starts_with("device.") ||
           e.category.starts_with("spare.") ||
           e.category.starts_with("recovery.") ||
           e.category.starts_with("array.") ||
           e.category.starts_with("sim.fail") ||
           e.category.starts_with("sim.spare");
  };

  for (const auto& e : events_) {
    if (!relevant(e)) continue;
    if (e.category == "recovery.rebuild") {
      int cls = 0;
      if (auto f = e.Field("class"); !f.empty()) cls = f[0] - '0';
      bool on_demand = e.Field("mode") == "on-demand";
      (on_demand ? tally[cls].on_demand : tally[cls].background)++;
      continue;  // individual rebuilds roll up; milestones print below
    }
    AppendLine(out, e);
    ++shown;
  }
  if (!tally.empty()) {
    out += "-- rebuilds by class (differentiated recovery order 0->3) --\n";
    for (const auto& [cls, t] : tally) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "  class %d: %llu on-demand, %llu background\n", cls,
                    static_cast<unsigned long long>(t.on_demand),
                    static_cast<unsigned long long>(t.background));
      out += buf;
    }
  }
  if (shown == 0 && tally.empty()) out += "(no recovery activity)\n";
  return out;
}

}  // namespace reo
