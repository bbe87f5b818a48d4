#include "trace/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "telemetry/json_util.h"

namespace reo {
namespace {

constexpr int kPid = 1;
/// The event track sits above the component tracks.
constexpr int kEventTid = 0;

/// Virtual ns -> Chrome's microsecond timestamps (fractional allowed).
std::string Us(SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(t) / 1e3);
  return buf;
}

std::string TrackName(const SpanRecorder& rec) {
  std::string name(to_string(rec.component()));
  if (rec.component() == TraceComponent::kFlashDevice) {
    name += ".dev";
    name += std::to_string(rec.instance());
  } else if (rec.instance() != 0) {
    name += '.';
    name += std::to_string(rec.instance());
  }
  return name;
}

void AppendMeta(std::string& out, int tid, const std::string& name) {
  out += "{\"ph\":\"M\",\"pid\":" + std::to_string(kPid) +
         ",\"tid\":" + std::to_string(tid) + ",\"name\":\"thread_name\",\"args\":{\"name\":";
  AppendJsonString(out, name);
  out += "}},\n";
  out += "{\"ph\":\"M\",\"pid\":" + std::to_string(kPid) +
         ",\"tid\":" + std::to_string(tid) +
         ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" +
         std::to_string(tid) + "}},\n";
}

void AppendSpan(std::string& out, const SpanRecord& r, int tid,
                const std::string& track) {
  out += "{\"ph\":\"X\",\"pid\":" + std::to_string(kPid) +
         ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + Us(r.start) +
         ",\"dur\":" + Us(r.end - r.start) + ",\"name\":";
  AppendJsonString(out, to_string(r.op));
  out += ",\"cat\":";
  AppendJsonString(out, track);
  out += ",\"args\":{\"trace\":" + std::to_string(r.trace_id) +
         ",\"span\":" + std::to_string(r.span_id) +
         ",\"parent\":" + std::to_string(r.parent_id);
  if (r.object != 0) out += ",\"object\":" + std::to_string(r.object);
  if (r.detail != 0) out += ",\"detail\":" + std::to_string(r.detail);
  if (r.flags != 0) {
    out += ",\"flags\":\"";
    bool first = true;
    auto flag = [&](uint8_t bit, const char* name) {
      if (!(r.flags & bit)) return;
      if (!first) out += '|';
      first = false;
      out += name;
    };
    flag(kSpanDegraded, "degraded");
    flag(kSpanError, "error");
    flag(kSpanOnDemand, "on-demand");
    out += '"';
  }
  out += "}},\n";
}

void AppendEvent(std::string& out, const LoggedEvent& e) {
  out += "{\"ph\":\"i\",\"pid\":" + std::to_string(kPid) +
         ",\"tid\":" + std::to_string(kEventTid) + ",\"ts\":" + Us(e.time) +
         ",\"s\":\"g\",\"name\":";
  AppendJsonString(out, e.category);
  out += ",\"cat\":\"event\",\"args\":{\"severity\":";
  AppendJsonString(out, to_string(e.severity));
  out += ",\"message\":";
  AppendJsonString(out, e.message);
  for (const auto& [k, v] : e.fields) {
    out += ',';
    AppendJsonString(out, k);
    out += ':';
    AppendJsonString(out, v);
  }
  out += "}},\n";
}

}  // namespace

std::string ChromeTraceJson(const Tracer& tracer) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"pid\":" + std::to_string(kPid) +
         ",\"name\":\"process_name\",\"args\":{\"name\":\"reo\"}},\n";
  AppendMeta(out, kEventTid, "events");

  // Stable track order: component enum order, then instance.
  std::vector<const SpanRecorder*> recs;
  tracer.ForEachRecorder([&](const SpanRecorder& r) { recs.push_back(&r); });
  std::sort(recs.begin(), recs.end(),
            [](const SpanRecorder* a, const SpanRecorder* b) {
              if (a->component() != b->component()) {
                return a->component() < b->component();
              }
              return a->instance() < b->instance();
            });

  int tid = kEventTid;
  for (const SpanRecorder* rec : recs) {
    ++tid;
    std::string track = TrackName(*rec);
    AppendMeta(out, tid, track);
    rec->ForEach([&](const SpanRecord& r) { AppendSpan(out, r, tid, track); });
  }
  for (const LoggedEvent& e : tracer.events().events()) AppendEvent(out, e);

  // Strip the trailing ",\n" so the array is valid JSON.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]}\n";
  return out;
}

std::string TraceReportText(const Tracer& tracer) {
  std::string out = tracer.events().RecoveryTimeline();
  out += "\n== Trace accounting ==\n";
  TraceStats s = tracer.Stats();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "roots seen: %llu, traces sampled: %llu (1 in %llu)\n"
                "spans recorded: %llu (%llu dropped to ring overflow)\n"
                "events logged: %llu (%llu dropped)\n",
                static_cast<unsigned long long>(s.requests_seen),
                static_cast<unsigned long long>(s.traces_sampled),
                static_cast<unsigned long long>(tracer.config().sample_every),
                static_cast<unsigned long long>(s.spans_recorded),
                static_cast<unsigned long long>(s.spans_dropped),
                static_cast<unsigned long long>(s.events_logged),
                static_cast<unsigned long long>(s.events_dropped));
  out += buf;
  return out;
}

}  // namespace reo
