// Lock-cheap span recording: one fixed-capacity ring of POD records per
// component, plus the RAII TraceSpan guard the hot paths use.
//
// Cost model (mirrors telemetry/metric_registry.h):
//   * un-attached component: its SpanRecorder* is null — opening a span is
//     a single branch, nothing else;
//   * attached but the current request is unsampled: one extra load
//     (Tracer::active() returns null);
//   * sampled: fill a 40-byte record, bump two ints. No map lookup, no
//     lock; the ring overwrites its oldest record when full and counts the
//     drop. A ring grows as it is used, up to its capacity, so a track
//     that records nothing holds no memory (the only allocations are its
//     geometric growth steps).
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_clock.h"
#include "trace/trace_context.h"

namespace reo {

class Tracer;

/// One completed span. Fixed-size plain data; rings hold these by value.
struct SpanRecord {
  TraceId trace_id = 0;
  SimTime start = 0;
  SimTime end = 0;
  uint64_t object = 0;   ///< oid (0 = not object-scoped)
  uint64_t detail = 0;   ///< op-specific: bytes moved, chunks read, ...
  SpanId span_id = kNoSpan;
  SpanId parent_id = kNoSpan;
  TraceComponent component = TraceComponent::kSim;
  uint8_t instance = 0;  ///< device index for kFlashDevice, else 0
  TraceOp op = TraceOp::kGet;
  uint8_t flags = 0;
};
static_assert(sizeof(SpanRecord) <= 56, "span records must stay ring-friendly");

/// Ring buffer of spans for one component (one exporter track), grown on
/// use up to `capacity` records. Owned by the Tracer; components cache a
/// raw pointer at AttachTracing time.
class SpanRecorder {
 public:
  SpanRecorder(Tracer& tracer, TraceComponent component, uint8_t instance,
               size_t capacity);

  TraceComponent component() const { return component_; }
  uint8_t instance() const { return instance_; }

  /// Records a leaf span (a span that can have no children, e.g. one
  /// device IO) under the active context. No-op when no trace is active.
  void Record(TraceOp op, SimTime start, SimTime end, uint64_t object = 0,
              uint8_t flags = 0, uint64_t detail = 0);

  /// Spans recorded over the recorder's lifetime (including overwritten).
  uint64_t total() const { return total_; }
  /// Spans lost to ring overflow.
  uint64_t dropped() const { return total_ - ring_.size(); }
  size_t size() const { return ring_.size(); }

  /// Visits retained records oldest-first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    // head_ stays 0 until the ring is full; then it marks the oldest.
    for (size_t i = 0; i < ring_.size(); ++i) {
      fn(ring_[(head_ + i) % ring_.size()]);
    }
  }

  Tracer& tracer() { return tracer_; }

 private:
  friend class TraceSpan;

  /// Commits one record: ring write plus the tracer's per-stage latency
  /// observation (out-of-line in tracer.cpp — it needs the full Tracer).
  void Push(const SpanRecord& r);

  Tracer& tracer_;
  std::vector<SpanRecord> ring_;  ///< grows to capacity_, then wraps
  size_t capacity_;
  size_t head_ = 0;      ///< next overwrite position once the ring is full
  uint64_t total_ = 0;
  TraceComponent component_;
  uint8_t instance_;
};

/// RAII guard for a span that encloses nested work. Opening pushes the
/// span onto the context's parent chain (children allocated while it is
/// open attach to it); Finish/destruction restores the chain and commits
/// the record. Inert when the recorder is null or no trace is active.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(SpanRecorder* rec, TraceOp op, SimTime start, uint64_t object = 0) {
    Begin(rec, op, start, object);
  }
  ~TraceSpan() { Finish(); }

  /// Opens the span (constructor body, callable on a default-constructed
  /// guard once the active context exists). No-op if already open.
  void Begin(SpanRecorder* rec, TraceOp op, SimTime start, uint64_t object = 0);

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when this span is live (recorder attached and request sampled).
  bool active() const { return ctx_ != nullptr; }

  /// Completion time; defaults to the start time if never set.
  void set_end(SimTime t) {
    if (ctx_) record_.end = t;
  }
  /// Extends the span to cover `t` (keeps the later of the two ends).
  void Cover(SimTime t) {
    if (ctx_ && t > record_.end) record_.end = t;
  }
  void set_op(TraceOp op) {
    if (ctx_) record_.op = op;
  }
  void set_flags(uint8_t flags) {
    if (ctx_) record_.flags |= flags;
  }
  void set_detail(uint64_t detail) {
    if (ctx_) record_.detail = detail;
  }
  void set_object(uint64_t object) {
    if (ctx_) record_.object = object;
  }

  /// Commits the record and closes the nesting scope. Idempotent; the
  /// destructor calls it for you.
  void Finish();

 private:
  SpanRecorder* rec_ = nullptr;
  TraceContext* ctx_ = nullptr;
  SpanId saved_parent_ = kNoSpan;
  SpanRecord record_;
};

}  // namespace reo
