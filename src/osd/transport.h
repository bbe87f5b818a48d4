// Serialized command transport: the iSCSI stand-in.
//
// The paper's initiator and target are separate hosts speaking SCSI over
// TCP (iSCSI). This module provides the wire layer: OSD commands and
// responses serialize to a binary format, cross a modeled network link
// (both directions, with payload-proportional transfer time), and are
// executed by the remote target. Serialization is real — every command
// the cache manager issues can round-trip bytes — so interface bugs that
// an in-process call would hide (field ordering, size limits, unknown
// opcodes) are exercised.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/network_link.h"
#include "osd/osd_target.h"
#include "telemetry/metric_registry.h"
#include "trace/tracer.h"

namespace reo {

/// Binary encoding of one command (little-endian TLV-free fixed header +
/// variable payload).
std::vector<uint8_t> EncodeCommand(const OsdCommand& command);
Result<OsdCommand> DecodeCommand(std::span<const uint8_t> wire);

std::vector<uint8_t> EncodeResponse(const OsdResponse& response);
Result<OsdResponse> DecodeResponse(std::span<const uint8_t> wire);

/// Scatter-gather encoding of a response: head‖body‖tail is byte-identical
/// to EncodeResponse(response), but the bulk `data` payload is *moved*
/// into `body` instead of copied behind its length prefix. The socket
/// serving path ships the three buffers with one writev, so a 64 KiB read
/// response costs zero payload copies between cache and kernel.
struct EncodedResponseParts {
  std::vector<uint8_t> head;  ///< magic..degraded + data length prefix
  PayloadBuffer body;         ///< the response's data buffer, moved
  std::vector<uint8_t> tail;  ///< attr_value + list encodings
};
EncodedResponseParts EncodeResponseParts(OsdResponse&& response);

/// Wire-level counters.
struct TransportStats {
  uint64_t commands = 0;
  uint64_t bytes_sent = 0;      ///< initiator -> target
  uint64_t bytes_received = 0;  ///< target -> initiator
  uint64_t decode_errors = 0;
};

/// Client endpoint of one initiator-target session. Commands are encoded,
/// shipped across the link, decoded and executed at the target, and the
/// encoded response shipped back; the response's completion time includes
/// both transfers.
class OsdTransport final : public OsdSession {
 public:
  /// @param target the remote service; must outlive the transport.
  explicit OsdTransport(OsdTarget& target, NetworkLinkConfig link = {})
      : target_(target), link_(link) {}

  OsdResponse Roundtrip(const OsdCommand& command) override;

  const TransportStats& stats() const { return stats_; }

  /// Registers wire-level metrics ("transport.*") and begins hot-path
  /// updates: command count, bytes each way, decode errors.
  void AttachTelemetry(MetricRegistry& registry);

  /// Resolves the transport span track: every Roundtrip records one span
  /// covering encode + both link transfers + target execution.
  void AttachTracing(Tracer& tracer) {
    trace_ = &tracer.RecorderFor(TraceComponent::kTransport);
  }

 private:
  OsdTarget& target_;
  NetworkLink link_;
  TransportStats stats_;

  // Telemetry (null when un-attached).
  Counter* tel_commands_ = nullptr;
  Counter* tel_bytes_sent_ = nullptr;
  Counter* tel_bytes_received_ = nullptr;
  Counter* tel_decode_errors_ = nullptr;

  SpanRecorder* trace_ = nullptr;
};

}  // namespace reo
