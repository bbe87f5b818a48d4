// Failure handling and reconstruction for StripeManager (paper §IV.D).
//
// Split from stripe_manager.cpp to keep the data path and the recovery path
// separately reviewable.
#include <algorithm>

#include "array/stripe_manager.h"

namespace reo {

std::vector<AffectedObject> StripeManager::OnDeviceFailure(DeviceIndex device) {
  // Mark every chunk resident on the failed device as lost. A lost chunk's
  // slot handle is dead from here on (the device's contents are gone and
  // the slot id may be reused after a replace), so FreeStripe skips it.
  std::unordered_map<ObjectId, AffectedObject, ObjectIdHash> affected;
  for (auto& [sid, stripe] : stripes_) {
    bool touched = false;
    for (auto* chunks : {&stripe.data, &stripe.redundancy}) {
      for (auto& c : *chunks) {
        if (c.device == device && !c.lost) {
          c.lost = true;
          touched = true;
        }
      }
    }
    if (touched) {
      auto& rec = affected[stripe.owner];
      rec.id = stripe.owner;
      for (const auto& c : stripe.data) {
        if (c.lost) rec.lost_bytes += c.logical_bytes;
      }
    }
  }
  std::vector<AffectedObject> out;
  out.reserve(affected.size());
  for (auto& [id, rec] : affected) {
    rec.survival = SurvivalOf(id);
    out.push_back(rec);
  }
  return out;
}

namespace {

/// True if the stripe keeps >=2 live chunks on one device while another
/// healthy device holds none of its chunks (fault isolation violated and
/// fixable).
bool PoorlyPlaced(const Stripe& stripe, const FlashArray& array) {
  std::vector<uint32_t> per_device(array.size(), 0);
  size_t live = 0;
  for (const auto* chunks : {&stripe.data, &stripe.redundancy}) {
    for (const auto& c : *chunks) {
      if (!c.lost) {
        ++per_device[c.device];
        ++live;
      }
    }
  }
  (void)live;
  bool has_duplicate = false;
  bool has_empty_healthy = false;
  for (DeviceIndex d = 0; d < array.size(); ++d) {
    if (!array.device(d).healthy()) continue;
    if (per_device[d] >= 2) has_duplicate = true;
    if (per_device[d] == 0) has_empty_healthy = true;
  }
  return has_duplicate && has_empty_healthy;
}

}  // namespace

std::vector<ObjectId> StripeManager::PoorlyPlacedObjects() const {
  std::vector<ObjectId> out;
  std::unordered_map<ObjectId, bool, ObjectIdHash> seen;
  for (const auto& [sid, stripe] : stripes_) {
    if (seen.contains(stripe.owner)) continue;
    if (PoorlyPlaced(stripe, array_)) {
      seen.emplace(stripe.owner, true);
      out.push_back(stripe.owner);
    }
  }
  return out;
}

std::vector<ObjectId> StripeManager::DamagedObjects() const {
  std::vector<ObjectId> out;
  for (const auto& [id, entry] : objects_) {
    for (StripeId sid : entry.stripes) {
      auto sit = stripes_.find(sid);
      REO_CHECK(sit != stripes_.end());
      if (sit->second.lost_count() > 0) {
        out.push_back(id);
        break;
      }
    }
  }
  return out;
}

Result<ArrayIo> StripeManager::RebuildObject(ObjectId id, SimTime now) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return Status{ErrorCode::kNotFound, "no such object"};
  TraceSpan span(trace_recon_, TraceOp::kRebuild, now, id.oid);

  ArrayIo io;
  io.complete = now;

  // Phase 2 (placement repair) runs after each stripe's loss repair: stripes
  // rebuilt while the array was narrow keep multiple chunks on one device;
  // re-spread them once healthy devices are available again.
  auto rebalance_stripe = [&](Stripe& stripe) -> Status {
    std::vector<uint32_t> per_device(array_.size(), 0);
    for (const auto* chunks : {&stripe.data, &stripe.redundancy}) {
      for (const auto& c : *chunks) {
        if (!c.lost) ++per_device[c.device];
      }
    }
    for (auto* chunks : {&stripe.data, &stripe.redundancy}) {
      for (auto& c : *chunks) {
        if (c.lost || per_device[c.device] < 2) continue;
        // Find an empty healthy device for this duplicate.
        DeviceIndex dst = static_cast<DeviceIndex>(array_.size());
        for (DeviceIndex d = 0; d < array_.size(); ++d) {
          if (array_.device(d).healthy() && per_device[d] == 0 &&
              array_.device(d).free_bytes() >= c.logical_bytes) {
            dst = d;
            break;
          }
        }
        if (dst == array_.size()) continue;
        auto payload = array_.device(c.device).ReadSlot(c.slot);
        if (!payload.ok()) {
          if (payload.status().code() == ErrorCode::kCorrupted) {
            MarkChunkLost(c);  // found rot while moving; next pass repairs
            ++io.corrupt_chunks;
            continue;
          }
          return payload.status();
        }
        io.complete = std::max(
            io.complete,
            array_.device(c.device).SubmitIo(now, c.logical_bytes, false));
        ++io.chunk_reads;
        auto slot = array_.device(dst).AllocateSlot(c.logical_bytes);
        if (!slot.ok()) continue;
        // `payload` views a slot on another device: dst != c.device.
        Status st = array_.device(dst).WriteSlot(*slot, *payload);
        if (!st.ok()) {
          (void)array_.device(dst).FreeSlot(*slot);
          return st;
        }
        io.complete = std::max(
            io.complete, array_.device(dst).SubmitIo(now, c.logical_bytes, true));
        ++io.chunk_writes;
        (void)array_.device(c.device).FreeSlot(c.slot);
        --per_device[c.device];
        ++per_device[dst];
        c.device = dst;
        c.slot = *slot;
      }
    }
    return Status::Ok();
  };

  // Phase 1: rebuild every lost chunk of one stripe. `retry` is set when a
  // chunk read back for the re-encode fails: the stripe must be repaired
  // again (see read_back below).
  auto repair_stripe = [&](Stripe& stripe, bool& retry) -> Status {
    if (!stripe.recoverable()) {
      span.set_flags(kSpanError);
      return Status{ErrorCode::kUnrecoverable, "stripe beyond parity"};
    }

    // Devices already hosting a surviving chunk of this stripe — rebuilt
    // chunks must land elsewhere to preserve fault isolation.
    std::vector<bool> occupied(array_.size(), false);
    for (const auto* chunks : {&stripe.data, &stripe.redundancy}) {
      for (const auto& c : *chunks) {
        if (!c.lost) occupied[c.device] = true;
      }
    }
    auto pick_device = [&](uint64_t logical) -> Result<DeviceIndex> {
      DeviceIndex best = static_cast<DeviceIndex>(array_.size());
      uint64_t best_free = 0;
      // Prefer an unoccupied healthy device with the most free space;
      // fall back to any healthy device (width may have shrunk).
      for (int pass = 0; pass < 2 && best == array_.size(); ++pass) {
        for (DeviceIndex d = 0; d < array_.size(); ++d) {
          auto& dev = array_.device(d);
          if (!dev.healthy()) continue;
          if (pass == 0 && occupied[d]) continue;
          if (dev.free_bytes() >= logical && dev.free_bytes() > best_free) {
            best = d;
            best_free = dev.free_bytes();
          }
        }
      }
      if (best == array_.size()) {
        return Status{ErrorCode::kNoSpace, "no device can host rebuilt chunk"};
      }
      return best;
    };

    // Decode every lost data chunk in one pass (charges survivor reads).
    if (stripe.lost_data_count() > 0 ||
        stripe.level == RedundancyLevel::kReplicate) {
      REO_RETURN_IF_ERROR(DecodeStripe(stripe, now, io));
    }

    auto rebuild_chunk = [&](StripeChunk& c,
                             std::span<const uint8_t> payload) -> Status {
      auto dev = pick_device(c.logical_bytes);
      if (!dev.ok()) return dev.status();
      auto slot = array_.device(*dev).AllocateSlot(c.logical_bytes);
      if (!slot.ok()) return slot.status();
      Status st = array_.device(*dev).WriteSlot(*slot, payload);
      if (!st.ok()) {
        (void)array_.device(*dev).FreeSlot(*slot);
        return st;
      }
      io.complete = std::max(
          io.complete, array_.device(*dev).SubmitIo(now, c.logical_bytes, true));
      ++io.chunk_writes;
      c.device = *dev;
      c.slot = *slot;
      c.lost = false;
      occupied[*dev] = true;
      return Status::Ok();
    };

    // Rebuild lost data chunks from the decode.
    for (uint32_t i = 0; i < stripe.data.size(); ++i) {
      if (!stripe.data[i].lost) continue;
      REO_RETURN_IF_ERROR(rebuild_chunk(stripe.data[i], decoded(i)));
    }

    // Re-encode inputs: each data chunk (now all live) is read back from
    // flash as a view of its slot. A read that fails asks for the stripe to
    // be repaired again: a corrupt chunk is marked lost first, so the retry
    // decodes it from the survivors; a transient error loses nothing, so
    // the retry just reads the chunk again.
    auto read_back = [&](uint32_t i) -> Result<std::span<const uint8_t>> {
      StripeChunk& c = stripe.data[i];
      auto data = array_.device(c.device).ReadSlot(c.slot);
      if (!data.ok()) {
        if (data.status().code() == ErrorCode::kCorrupted) {
          MarkChunkLost(c);
          ++io.corrupt_chunks;
        }
        retry = true;
        return data.status();
      }
      io.complete = std::max(
          io.complete,
          array_.device(c.device).SubmitIo(now, c.logical_bytes, false));
      ++io.chunk_reads;
      return *data;
    };

    // Rebuild lost redundancy chunks: replicas copy the data; parity is
    // re-encoded from the (now complete) data chunks.
    for (size_t j = 0; j < stripe.redundancy.size(); ++j) {
      StripeChunk& c = stripe.redundancy[j];
      if (!c.lost) continue;
      if (stripe.level == RedundancyLevel::kReplicate) {
        auto src = read_back(0);
        if (!src.ok()) return src.status();
        REO_RETURN_IF_ERROR(rebuild_chunk(c, *src));
      } else {
        size_t m = stripe.data.size();
        std::vector<std::span<const uint8_t>> dspans;
        dspans.reserve(m);
        for (uint32_t i = 0; i < m; ++i) {
          auto b = read_back(i);
          if (!b.ok()) return b.status();
          dspans.push_back(*b);
        }
        std::span<uint8_t> parity = Scratch(parity_scratch_, 1)[0];
        CodeFor(m, stripe.redundancy.size()).EncodeParity(j, dspans, parity);
        REO_RETURN_IF_ERROR(rebuild_chunk(c, parity));
      }
    }
    return Status::Ok();
  };

  for (StripeId sid : it->second.stripes) {
    auto sit = stripes_.find(sid);
    REO_CHECK(sit != stripes_.end());
    Stripe& stripe = sit->second;
    if (stripe.lost_count() > 0) {
      // One attempt per chunk of the stripe at most, as GetObject bounds
      // its retry: a read-back that keeps failing ends with its error.
      Status st = Status::Ok();
      const size_t chunks = stripe.data.size() + stripe.redundancy.size();
      for (size_t attempt = 0; attempt < chunks; ++attempt) {
        bool retry = false;
        st = repair_stripe(stripe, retry);
        if (!retry) break;
      }
      REO_RETURN_IF_ERROR(st);
    }
    // Loss repair done; restore fault isolation if placement doubled up.
    REO_RETURN_IF_ERROR(rebalance_stripe(stripe));
  }
  span.set_end(io.complete);
  span.set_detail(static_cast<uint64_t>(io.chunk_reads) + io.chunk_writes);
  return io;
}

}  // namespace reo
