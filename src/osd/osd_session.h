// The OSD session: what a client holds to reach one target.
//
// In the paper's prototype the cache manager reaches osd-target only
// through its osd-initiator session (§V). Here a session is anything that
// takes one command and answers it: the in-process OsdTarget, the modeled
// wire (OsdTransport), a TCP connection to reo_server (SocketInitiator)
// and a consistent-hash ring of servers (ClusterInitiator). OsdInitiator's
// typed API runs over any of them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "common/object_id.h"
#include "common/sim_clock.h"
#include "osd/attribute_store.h"
#include "osd/control_protocol.h"
#include "osd/sense.h"

namespace reo {

/// OSD command opcodes (the subset of OSD-2 Reo exercises).
enum class OsdOp : uint8_t {
  kFormat,
  kCreatePartition,
  kCreate,
  kWrite,
  kRead,
  kRemove,
  kSetAttr,
  kGetAttr,
  kList,
  kCreateCollection,
  kRemoveCollection,
  kListCollection,
};

/// One CDB-equivalent command.
struct OsdCommand {
  OsdOp op = OsdOp::kRead;
  ObjectId id;
  uint64_t logical_size = 0;          ///< WRITE: user-visible byte count
  std::vector<uint8_t> data;          ///< WRITE payload / control message
  AttributeId attr;                   ///< SET/GET ATTR target
  std::vector<uint8_t> attr_value;    ///< SET_ATTR value
  uint64_t capacity_bytes = 0;        ///< FORMAT
  SimTime now = 0;                    ///< virtual submission time
};

/// Command result.
struct OsdResponse {
  SenseCode sense = SenseCode::kOk;
  SimTime complete = 0;
  bool degraded = false;
  PayloadBuffer data;               ///< READ payload (non-zeroing buffer)
  std::vector<uint8_t> attr_value;  ///< GET_ATTR value
  std::vector<uint64_t> list;       ///< LIST / LIST_COLLECTION oids

  bool ok() const { return sense == SenseCode::kOk; }
};

/// One client's path to a target. A failure of the path itself (a lost
/// connection, an undecodable answer) surfaces as sense kFail.
class OsdSession {
 public:
  virtual ~OsdSession() = default;

  /// Sends one command and waits for its response.
  virtual OsdResponse Roundtrip(const OsdCommand& command) = 0;
};

/// Safe to resend blindly, on the same node or another replica:
/// re-executing on the target changes nothing.
inline bool IdempotentRead(OsdOp op) {
  return op == OsdOp::kRead || op == OsdOp::kGetAttr || op == OsdOp::kList ||
         op == OsdOp::kListCollection;
}

/// The one control-object write (§IV.C.2): a WRITE to 0x10004 whose
/// payload is `msg`'s encoding.
OsdCommand ControlWriteCommand(const ControlMessage& msg, SimTime now = 0);

}  // namespace reo
