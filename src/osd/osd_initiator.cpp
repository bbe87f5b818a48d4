#include "osd/osd_initiator.h"

namespace reo {

OsdResponse OsdInitiator::Execute(OsdCommand command) {
  ++stats_.commands_sent;
  OsdResponse resp = session_.Roundtrip(command);
  if (!resp.ok()) ++stats_.errors;
  return resp;
}

OsdResponse OsdInitiator::FormatOsd(uint64_t capacity_bytes, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kFormat;
  c.capacity_bytes = capacity_bytes;
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::CreatePartition(uint64_t pid, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kCreatePartition;
  c.id = ObjectId{pid, 0};
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::CreateObject(ObjectId id, uint64_t logical_size,
                                       SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kCreate;
  c.id = id;
  c.logical_size = logical_size;
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::WriteObject(ObjectId id,
                                      std::span<const uint8_t> payload,
                                      uint64_t logical_size, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kWrite;
  c.id = id;
  c.data.assign(payload.begin(), payload.end());
  c.logical_size = logical_size;
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::ReadObject(ObjectId id, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kRead;
  c.id = id;
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::RemoveObject(ObjectId id, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kRemove;
  c.id = id;
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::ListObjects(uint64_t pid, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kList;
  c.id = ObjectId{pid, 0};
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::SetAttr(ObjectId id, AttributeId attr,
                                  std::span<const uint8_t> value, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kSetAttr;
  c.id = id;
  c.attr = attr;
  c.attr_value.assign(value.begin(), value.end());
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::GetAttr(ObjectId id, AttributeId attr, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kGetAttr;
  c.id = id;
  c.attr = attr;
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::CreateCollection(ObjectId id, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kCreateCollection;
  c.id = id;
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::RemoveCollection(ObjectId id, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kRemoveCollection;
  c.id = id;
  c.now = now;
  return Execute(std::move(c));
}

OsdResponse OsdInitiator::ListCollection(ObjectId id, SimTime now) {
  OsdCommand c;
  c.op = OsdOp::kListCollection;
  c.id = id;
  c.now = now;
  return Execute(std::move(c));
}

SenseCode OsdInitiator::SendControl(const ControlMessage& msg, SimTime now) {
  ++stats_.control_writes;
  return Execute(ControlWriteCommand(msg, now + kControlLatency)).sense;
}

SenseCode OsdInitiator::SetClassId(ObjectId id, uint8_t cid, SimTime now) {
  return SendControl(ControlMessage{SetIdCommand{.target = id, .class_id = cid}},
                     now);
}

SenseCode OsdInitiator::Query(ObjectId id, bool is_write, uint64_t offset,
                              uint64_t size, SimTime now) {
  return SendControl(ControlMessage{QueryCommand{.target = id,
                                                 .is_write = is_write,
                                                 .offset = offset,
                                                 .size = size}},
                     now);
}

SenseCode OsdInitiator::QueryRecoveryState(SimTime now) {
  return Query(kControlObject, false, 0, 0, now);
}

}  // namespace reo
