// The initiator (client) side of the OSD session.
//
// In the paper's prototype the cache manager talks to osd-target through
// the osd-initiator kernel modules over iSCSI. This class is that
// initiator's typed front-end: it builds well-formed commands (including
// the §IV.C.2 control-object messages) and sends them over one OsdSession
// (osd_session.h), so upper layers never touch raw CDBs. The same code
// runs in-process, over the modeled wire, over a socket to reo_server and
// through a cluster ring.
#pragma once

#include <cstdint>
#include <span>

#include "osd/osd_session.h"

namespace reo {

/// Per-session counters.
struct OsdInitiatorStats {
  uint64_t commands_sent = 0;
  uint64_t control_writes = 0;
  uint64_t errors = 0;  ///< responses with sense != OK
};

/// Typed command front-end over one OSD session.
class OsdInitiator {
 public:
  /// Latency charged per synchronous control-object write: the message is
  /// a few dozen bytes written with fsync (§IV.C.2), so a fixed cost
  /// models the round trip.
  static constexpr SimTime kControlLatency = 150 * kNsPerUs;

  /// @param session the path to the target; must outlive the initiator.
  explicit OsdInitiator(OsdSession& session) : session_(session) {}

  // --- Device / partition management ----------------------------------------

  OsdResponse FormatOsd(uint64_t capacity_bytes, SimTime now = 0);
  OsdResponse CreatePartition(uint64_t pid, SimTime now = 0);

  // --- Object data path -------------------------------------------------------

  OsdResponse CreateObject(ObjectId id, uint64_t logical_size, SimTime now);
  OsdResponse WriteObject(ObjectId id, std::span<const uint8_t> payload,
                          uint64_t logical_size, SimTime now);
  OsdResponse ReadObject(ObjectId id, SimTime now);
  OsdResponse RemoveObject(ObjectId id, SimTime now);
  OsdResponse ListObjects(uint64_t pid, SimTime now = 0);

  // --- Attributes --------------------------------------------------------------

  OsdResponse SetAttr(ObjectId id, AttributeId attr,
                      std::span<const uint8_t> value, SimTime now = 0);
  OsdResponse GetAttr(ObjectId id, AttributeId attr, SimTime now = 0);

  // --- Collections -------------------------------------------------------------

  OsdResponse CreateCollection(ObjectId id, SimTime now = 0);
  OsdResponse RemoveCollection(ObjectId id, SimTime now = 0);
  OsdResponse ListCollection(ObjectId id, SimTime now = 0);

  // --- Reo control protocol (paper §IV.C.2) -------------------------------------

  /// Sends "#SETID#" for `id` with class `cid`. The write is synchronous
  /// (fsync'd), stamped `now + kControlLatency`.
  SenseCode SetClassId(ObjectId id, uint8_t cid, SimTime now);

  /// Sends "#QUERY#" about `id`; returns the sense code per Table III.
  SenseCode Query(ObjectId id, bool is_write, uint64_t offset, uint64_t size,
                  SimTime now);

  /// Queries the control object itself: recovery state (0x65 / 0x00).
  SenseCode QueryRecoveryState(SimTime now);

  const OsdInitiatorStats& stats() const { return stats_; }

 private:
  OsdResponse Execute(OsdCommand command);
  SenseCode SendControl(const ControlMessage& msg, SimTime now);

  OsdSession& session_;
  OsdInitiatorStats stats_;
};

}  // namespace reo
