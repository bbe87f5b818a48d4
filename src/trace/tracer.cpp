#include "trace/tracer.h"

namespace reo {

SpanRecorder::SpanRecorder(Tracer& tracer, TraceComponent component,
                           uint8_t instance, size_t capacity)
    : tracer_(tracer),
      capacity_(capacity > 0 ? capacity : 1),
      component_(component),
      instance_(instance) {}

void SpanRecorder::Push(const SpanRecord& r) {
  if (ring_.size() < capacity_) {
    ring_.push_back(r);
  } else {
    ring_[head_] = r;
    head_ = (head_ + 1) % capacity_;
  }
  ++total_;
  tracer_.ObserveSpan(r);
}

void SpanRecorder::Record(TraceOp op, SimTime start, SimTime end,
                          uint64_t object, uint8_t flags, uint64_t detail) {
  TraceContext* ctx = tracer_.active();
  if (!ctx) return;
  SpanRecord r;
  r.trace_id = ctx->trace_id;
  r.span_id = ctx->next_span++;
  r.parent_id = ctx->current_parent;
  r.component = component_;
  r.instance = instance_;
  r.op = op;
  r.flags = flags;
  r.start = start;
  r.end = end >= start ? end : start;
  r.object = object;
  r.detail = detail;
  Push(r);
}

void TraceSpan::Begin(SpanRecorder* rec, TraceOp op, SimTime start,
                      uint64_t object) {
  if (!rec || ctx_) return;  // the one-branch un-attached fast path
  TraceContext* ctx = rec->tracer_.active();
  if (!ctx) return;  // attached, but this request is unsampled
  rec_ = rec;
  ctx_ = ctx;
  record_.trace_id = ctx->trace_id;
  record_.span_id = ctx->next_span++;
  record_.parent_id = ctx->current_parent;
  record_.component = rec->component_;
  record_.instance = rec->instance_;
  record_.op = op;
  record_.start = start;
  record_.end = start;
  record_.object = object;
  saved_parent_ = ctx->current_parent;
  ctx->current_parent = record_.span_id;
}

void TraceSpan::Finish() {
  if (!ctx_) return;
  ctx_->current_parent = saved_parent_;
  rec_->Push(record_);
  ctx_ = nullptr;
  rec_ = nullptr;
}

Tracer::Tracer(TracerConfig config) : config_(config), events_(config.max_events) {
  if (config_.sample_every == 0) config_.sample_every = 1;
}

SpanRecorder& Tracer::RecorderFor(TraceComponent component, uint8_t instance) {
  for (auto& rec : recorders_) {
    if (rec->component() == component && rec->instance() == instance) {
      return *rec;
    }
  }
  recorders_.push_back(std::make_unique<SpanRecorder>(
      *this, component, instance, config_.spans_per_component));
  return *recorders_.back();
}

TraceContext* Tracer::Begin(bool force) {
  if (active_ != nullptr) return nullptr;  // join the enclosing trace
  ++roots_seen_;
  if (!force && (roots_seen_ - 1) % config_.sample_every != 0) return nullptr;
  ++traces_sampled_;
  context_ = TraceContext{};
  context_.trace_id = next_trace_id_++;
  active_ = &context_;
  return active_;
}

void Tracer::End() { active_ = nullptr; }

void Tracer::AttachStageMetrics(MetricRegistry& registry) {
  for (uint8_t c = 0; c < kTraceComponentCount; ++c) {
    stage_us_[c] = &registry.GetHistogram(
        "stage." + std::string(to_string(static_cast<TraceComponent>(c))) +
        ".span_us");
  }
}

void Tracer::ObserveSpan(const SpanRecord& r) {
  ShardedHistogram* h = stage_us_[static_cast<uint8_t>(r.component)];
  if (!h) return;
  h->Add(r.end > r.start ? static_cast<double>(r.end - r.start) / 1e3 : 0.0);
}

TraceStats Tracer::Stats() const {
  TraceStats s;
  s.requests_seen = roots_seen_;
  s.traces_sampled = traces_sampled_;
  for (const auto& rec : recorders_) {
    s.spans_recorded += rec->total();
    s.spans_dropped += rec->dropped();
  }
  s.events_logged = events_.size() + events_.dropped();
  s.events_dropped = events_.dropped();
  return s;
}

RequestTrace::RequestTrace(Tracer* tracer, SpanRecorder* root, TraceOp op,
                           SimTime start, uint64_t object, bool force) {
  if (!tracer) return;  // tracing not attached: a single branch
  ctx_ = tracer->Begin(force);
  if (!ctx_) return;
  tracer_ = tracer;
  ctx_->object = object;
  span_.Begin(root, op, start, object);
}

void RequestTrace::Finish() {
  if (!ctx_) return;
  span_.Finish();
  tracer_->End();
  ctx_ = nullptr;
  tracer_ = nullptr;
}

}  // namespace reo
