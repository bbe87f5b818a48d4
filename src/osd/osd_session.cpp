#include "osd/osd_session.h"

namespace reo {

OsdCommand ControlWriteCommand(const ControlMessage& msg, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kWrite;
  c.id = kControlObject;
  c.data = EncodeControlMessage(msg);
  c.now = now;
  return c;
}

}  // namespace reo
