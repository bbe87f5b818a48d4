// MapDataPlane: a payload-preserving data plane for the serving tests.
// Enough storage semantics to verify byte-exact round trips over the wire
// without dragging in the flash stack.
#pragma once

#include <unordered_map>
#include <vector>

#include "osd/osd_target.h"

namespace reo {

class MapDataPlane final : public DataPlane {
 public:
  Result<DataPlaneIo> WriteObject(ObjectId id, std::span<const uint8_t> payload,
                                  uint64_t, uint8_t, SimTime now) override {
    data_[id].assign(payload.begin(), payload.end());
    return DataPlaneIo{.complete = now};
  }
  Result<DataPlaneIo> ReadObject(ObjectId id, SimTime now) override {
    auto it = data_.find(id);
    if (it == data_.end()) return Status{ErrorCode::kNotFound, "no data"};
    DataPlaneIo io;
    io.complete = now;
    io.payload.assign(it->second.begin(), it->second.end());
    return io;
  }
  Status RemoveObject(ObjectId id) override {
    return data_.erase(id) ? Status::Ok()
                           : Status{ErrorCode::kNotFound, "no data"};
  }
  Status SetObjectClass(ObjectId, uint8_t, SimTime) override {
    return Status::Ok();
  }
  ObjectHealth Health(ObjectId id) const override {
    return data_.contains(id) ? ObjectHealth::kIntact : ObjectHealth::kAbsent;
  }
  bool recovery_active() const override { return false; }
  bool HasSpaceFor(uint64_t, uint8_t) const override { return true; }

 private:
  std::unordered_map<ObjectId, std::vector<uint8_t>, ObjectIdHash> data_;
};

}  // namespace reo
