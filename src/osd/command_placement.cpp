#include "osd/command_placement.h"

#include <algorithm>
#include <variant>

#include "osd/control_protocol.h"

namespace reo {

CommandPlacement PlaceCommand(const OsdCommand& cmd) {
  constexpr CommandPlacement kEverywhere{.fan_out = true};
  switch (cmd.op) {
    case OsdOp::kFormat:
    case OsdOp::kCreatePartition:
    case OsdOp::kCreateCollection:
    case OsdOp::kRemoveCollection:
    case OsdOp::kList:
    case OsdOp::kListCollection:
      return kEverywhere;

    case OsdOp::kWrite: {
      if (cmd.id != kControlObject) break;
      auto msg = DecodeControlMessage(cmd.data);
      if (!msg.ok()) break;  // malformed: the control object's home
      if (const auto* set = std::get_if<SetIdCommand>(&*msg)) {
        return {.key = set->target, .set_class = set->class_id};
      }
      if (const auto* hint = std::get_if<OwnerHintCommand>(&*msg)) {
        // With the object, so its refetch write lands where the hint is.
        return {.key = hint->target, .hint_owner = hint->owner};
      }
      if (std::holds_alternative<NodeDownCommand>(*msg)) return kEverywhere;
      const auto& q = std::get<QueryCommand>(*msg);
      if (q.target == kControlObject) return kEverywhere;
      return {.key = q.target};
    }

    default:
      break;
  }
  return {.key = cmd.id};
}

OsdResponse MergeFanOutResponses(std::span<OsdResponse> parts) {
  OsdResponse merged;
  for (OsdResponse& part : parts) {
    if (merged.sense == SenseCode::kOk && part.sense != SenseCode::kOk) {
      merged.sense = part.sense;
    }
    merged.complete = std::max(merged.complete, part.complete);
    merged.degraded = merged.degraded || part.degraded;
    merged.list.insert(merged.list.end(), part.list.begin(), part.list.end());
  }
  std::sort(merged.list.begin(), merged.list.end());
  merged.list.erase(std::unique(merged.list.begin(), merged.list.end()),
                    merged.list.end());
  return merged;
}

}  // namespace reo
