// Request-tracing identifiers and the per-request context that propagates
// through the stack (transport → osd_target → cache_manager → data_plane →
// array/ec → flash devices).
//
// The system is single-threaded by design, so propagation is a single
// "active context" slot owned by the Tracer: the component that opens a
// request (cache manager, failure handler) installs the context, every
// nested span allocates its id from it, and the slot empties when the
// request ends. Components never pass context through call signatures —
// exactly how the telemetry layer avoids threading a registry everywhere.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/sim_clock.h"

namespace reo {

/// Identifies one traced request end-to-end.
using TraceId = uint64_t;
/// Identifies one span within a trace. 0 = "no span" (root parent).
using SpanId = uint32_t;

constexpr SpanId kNoSpan = 0;

/// The layer a span was recorded in; one exporter track per component
/// (devices additionally fan out by instance: "flash.dev0", "flash.dev1").
enum class TraceComponent : uint8_t {
  kCacheManager = 0,
  kTransport,
  kOsdTarget,
  kDataPlane,
  kReconstruction,
  kFlashDevice,
  kBackend,
  kSim,
};
constexpr uint8_t kTraceComponentCount = 8;

constexpr std::string_view to_string(TraceComponent c) {
  switch (c) {
    case TraceComponent::kCacheManager: return "cache_manager";
    case TraceComponent::kTransport: return "transport";
    case TraceComponent::kOsdTarget: return "osd_target";
    case TraceComponent::kDataPlane: return "data_plane";
    case TraceComponent::kReconstruction: return "reconstruction";
    case TraceComponent::kFlashDevice: return "flash";
    case TraceComponent::kBackend: return "backend";
    case TraceComponent::kSim: return "sim";
  }
  return "unknown";
}

/// What a span did. Root spans use the request-outcome values (kGetHit,
/// kGetDegraded, ...) so a trace viewer can filter the latency waterfall
/// by request type without inspecting flags.
enum class TraceOp : uint8_t {
  // Root (request) spans — the outcome is set when the request completes.
  kGet = 0,          ///< read, outcome not yet known
  kGetHit,
  kGetMiss,
  kGetDegraded,      ///< hit served via parity reconstruction
  kGetUncacheable,   ///< served straight from the backend (array unusable)
  kPut,              ///< write, outcome not yet known
  kPutWriteBack,     ///< absorbed dirty
  kPutUncacheable,
  // Root spans for non-request work.
  kFailureHandling,  ///< device shootdown reaction
  kSpareHandling,
  kRecoveryDrain,
  kScrub,
  // Nested spans.
  kRoundtrip,        ///< transport: encode + link + execute + decode
  kOsdRead,
  kOsdWrite,
  kOsdControl,
  kOsdCommand,       ///< any other opcode
  kDataRead,
  kDataWrite,
  kReencode,
  kStripeDecode,     ///< parity/replica decode of lost chunks
  kRebuild,          ///< object reconstruction onto healthy devices
  kDeviceRead,
  kDeviceWrite,
  kBackendFetch,
  kBackendFlush,
};

constexpr std::string_view to_string(TraceOp op) {
  switch (op) {
    case TraceOp::kGet: return "get";
    case TraceOp::kGetHit: return "get.hit";
    case TraceOp::kGetMiss: return "get.miss";
    case TraceOp::kGetDegraded: return "get.degraded";
    case TraceOp::kGetUncacheable: return "get.uncacheable";
    case TraceOp::kPut: return "put";
    case TraceOp::kPutWriteBack: return "put.writeback";
    case TraceOp::kPutUncacheable: return "put.uncacheable";
    case TraceOp::kFailureHandling: return "failure.handle";
    case TraceOp::kSpareHandling: return "spare.handle";
    case TraceOp::kRecoveryDrain: return "recovery.drain";
    case TraceOp::kScrub: return "scrub";
    case TraceOp::kRoundtrip: return "roundtrip";
    case TraceOp::kOsdRead: return "osd.read";
    case TraceOp::kOsdWrite: return "osd.write";
    case TraceOp::kOsdControl: return "osd.control";
    case TraceOp::kOsdCommand: return "osd.command";
    case TraceOp::kDataRead: return "data.read";
    case TraceOp::kDataWrite: return "data.write";
    case TraceOp::kReencode: return "data.reencode";
    case TraceOp::kStripeDecode: return "stripe.decode";
    case TraceOp::kRebuild: return "rebuild";
    case TraceOp::kDeviceRead: return "dev.read";
    case TraceOp::kDeviceWrite: return "dev.write";
    case TraceOp::kBackendFetch: return "backend.fetch";
    case TraceOp::kBackendFlush: return "backend.flush";
  }
  return "unknown";
}

/// Span flag bits.
constexpr uint8_t kSpanDegraded = 1 << 0;  ///< needed parity reconstruction
constexpr uint8_t kSpanError = 1 << 1;     ///< finished with a non-OK status
constexpr uint8_t kSpanOnDemand = 1 << 2;  ///< on-demand (vs background) work

/// Mutable state of the request currently being traced. Allocated by the
/// Tracer when a root span opens (subject to sampling) and reachable by
/// every component through Tracer::active().
struct TraceContext {
  TraceId trace_id = 0;
  SpanId next_span = 1;               ///< id allocator
  SpanId current_parent = kNoSpan;    ///< innermost open span
  // Request annotations, stamped by the cache manager.
  uint64_t object = 0;                ///< oid of the requested object
  uint8_t class_id = 0xff;            ///< DataClass, 0xff = unknown
};

}  // namespace reo
