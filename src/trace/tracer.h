// The tracing sink: owns every component's SpanRecorder, the EventLog,
// the sampling decision, and the single active TraceContext.
//
// Usage mirrors the telemetry registry: the simulator (or a test) owns one
// Tracer, each component resolves its recorder once in AttachTracing, and
// the hot path costs a branch per potential span when nothing is attached.
// Request roots open a RequestTrace guard; nested layers open TraceSpan
// guards (span_recorder.h) or call SpanRecorder::Record for leaves.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/metric_registry.h"
#include "trace/event_log.h"
#include "trace/span_recorder.h"
#include "trace/trace_context.h"

namespace reo {

struct TracerConfig {
  /// Trace 1 in N requests (1 = every request). Non-request roots
  /// (failure handling, recovery drains) are always traced.
  uint64_t sample_every = 1;
  /// Span-ring capacity per component track.
  size_t spans_per_component = 1 << 16;
  /// Event-log capacity.
  size_t max_events = 1 << 16;
};

/// Aggregate accounting across recorders, carried in RunReport.
struct TraceStats {
  uint64_t requests_seen = 0;    ///< root-span opportunities observed
  uint64_t traces_sampled = 0;   ///< roots actually traced
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;    ///< lost to ring overflow
  uint64_t events_logged = 0;
  uint64_t events_dropped = 0;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});

  /// Resolve-once lookup of the ring for one component track. Stable
  /// addresses for the tracer's lifetime.
  SpanRecorder& RecorderFor(TraceComponent component, uint8_t instance = 0);

  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

  /// Context of the request being traced, or null (unsampled / idle).
  TraceContext* active() { return active_; }

  const TracerConfig& config() const { return config_; }
  TraceStats Stats() const;

  /// Registers per-stage latency histograms ("stage.<component>.span_us",
  /// one per component track; device instances fold into one) and feeds
  /// every committed span's duration into them from then on. This is the
  /// latency-attribution bridge: with sample_every == 1 the transport
  /// stage's sums equal the server's end-to-end latency sums exactly, and
  /// nested stages show where that time went. Nested stages on the
  /// simulated serving path carry *modeled* device time while the
  /// transport root carries wall clock — compare shapes, not absolutes.
  void AttachStageMetrics(MetricRegistry& registry);

  /// Observation hook SpanRecorder::Push calls on every committed span.
  void ObserveSpan(const SpanRecord& r);

  /// Visits every recorder (export order: component, then instance).
  template <typename Fn>
  void ForEachRecorder(Fn&& fn) const {
    for (const auto& rec : recorders_) fn(*rec);
  }

 private:
  friend class RequestTrace;

  /// Opens a trace for a new root (subject to sampling unless `force`).
  /// Returns null when the root is unsampled or a trace is already open
  /// (nested roots join the enclosing trace as plain spans instead).
  TraceContext* Begin(bool force);
  void End();

  TracerConfig config_;
  std::vector<std::unique_ptr<SpanRecorder>> recorders_;
  EventLog events_;
  TraceContext context_;            ///< storage for the active trace
  TraceContext* active_ = nullptr;
  TraceId next_trace_id_ = 1;
  uint64_t roots_seen_ = 0;
  uint64_t traces_sampled_ = 0;
  /// Per-component stage histograms (null when un-attached).
  std::array<ShardedHistogram*, kTraceComponentCount> stage_us_{};
};

/// RAII root-span guard. The cache manager opens one per client request
/// (Get/Put), and the failure plane one per device event, drain or scrub;
/// everything the request touches nests under it. Inert when `tracer` is null or the request is
/// not sampled.
class RequestTrace {
 public:
  /// @param root the recorder the root span lands in (usually the cache
  ///        manager's); must belong to `tracer` when both are non-null.
  RequestTrace(Tracer* tracer, SpanRecorder* root, TraceOp op, SimTime start,
               uint64_t object = 0, bool force = false);
  ~RequestTrace() { Finish(); }

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  bool sampled() const { return ctx_ != nullptr; }
  TraceContext* context() { return ctx_; }

  void set_end(SimTime t) { span_.set_end(t); }
  void Cover(SimTime t) { span_.Cover(t); }
  void set_op(TraceOp op) { span_.set_op(op); }
  void set_flags(uint8_t flags) { span_.set_flags(flags); }
  void set_class(uint8_t class_id) {
    if (ctx_) ctx_->class_id = class_id;
  }

  /// Commits the root span and releases the tracer's active slot.
  /// Idempotent; the destructor calls it.
  void Finish();

 private:
  Tracer* tracer_ = nullptr;
  TraceContext* ctx_ = nullptr;
  TraceSpan span_;
};

}  // namespace reo
