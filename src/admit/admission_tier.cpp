#include "admit/admission_tier.h"

namespace reo {
namespace {

/// Segmented LRU: share of the DRAM budget protected for re-referenced
/// objects; the rest is the probation segment new arrivals land in.
constexpr double kProtectedFraction = 0.8;

}  // namespace

AdmissionTier::AdmissionTier(const AdmissionConfig& cfg)
    : cfg_(cfg),
      dram_(cfg.dram_bytes, kProtectedFraction),
      policy_(MakeAdmissionPolicy(cfg)) {}

void AdmissionTier::AttachTelemetry(MetricRegistry& registry) {
  tel_staged_ = &registry.GetCounter("admit.staged");
  tel_bypass_ = &registry.GetCounter("admit.bypass");
  tel_write_through_ = &registry.GetCounter("admit.write_through");
  tel_hits_ = &registry.GetCounter("dram.hits");
  tel_misses_ = &registry.GetCounter("dram.misses");
  tel_evictions_ = &registry.GetCounter("dram.evictions");
  tel_graduated_ = &registry.GetCounter("admit.graduated");
  tel_graduated_bytes_ = &registry.GetCounter("admit.graduated_bytes");
  tel_dropped_ = &registry.GetCounter("admit.dropped");
  tel_dropped_bytes_ = &registry.GetCounter("admit.dropped_bytes");
  tel_graduate_failures_ = &registry.GetCounter("admit.graduate_failures");
  tel_dram_bytes_ = &registry.GetGauge("dram.bytes");
  tel_dram_objects_ = &registry.GetGauge("dram.objects");
  tel_hit_ratio_ = &registry.GetGauge("dram.hit_ratio");
  registry.GetGauge("dram.capacity_bytes")
      .Set(static_cast<double>(cfg_.dram_bytes));
  UpdateGauges();
}

void AdmissionTier::AttachEvents(EventLog& events) {
  policy_->AttachEvents(events);
}

uint8_t AdmissionTier::ClassifyForFlash(const AdmissionCandidate& v) const {
  if (!hotness_) return v.staged_class;
  return hotness_(v.id, v.logical_bytes, v.dram_hits, v.staged_class);
}

void AdmissionTier::EvictUntilFit(uint64_t needed_bytes, SimTime now) {
  AdmissionCandidate victim;
  PayloadBuffer payload;
  while (!dram_.HasRoomFor(needed_bytes) &&
         dram_.PopVictim(&victim, &payload)) {
    ++stats_.evictions;
    Inc(tel_evictions_);
    bool graduate =
        flash_write_ != nullptr && policy_->ShouldAdmit(victim, now);
    if (graduate) {
      uint8_t cls = ClassifyForFlash(victim);
      Status st =
          flash_write_(victim.id, payload, victim.logical_bytes, cls, now);
      if (st.ok()) {
        ++stats_.graduated;
        stats_.graduated_bytes += victim.stored_bytes;
        Inc(tel_graduated_);
        Inc(tel_graduated_bytes_, victim.stored_bytes);
        policy_->OnFlashWrite(victim.stored_bytes, now);
        continue;
      }
      ++stats_.graduate_failures;
      Inc(tel_graduate_failures_);
      // Fall through: a refused graduation is a drop (clean data — the
      // backend still has it).
    }
    ++stats_.dropped;
    stats_.dropped_bytes += victim.stored_bytes;
    Inc(tel_dropped_);
    Inc(tel_dropped_bytes_, victim.stored_bytes);
  }
}

Status AdmissionTier::Stage(ObjectId id, PayloadBuffer payload,
                            uint64_t logical_bytes, uint8_t class_id,
                            SimTime now) {
  uint64_t stored = payload.size();
  if (!dram_.CanHold(stored)) {
    return {ErrorCode::kNoSpace, "object exceeds the DRAM budget"};
  }
  // Overwrite drops the old copy first so its bytes don't count against
  // the room the new version needs.
  dram_.Erase(id);
  EvictUntilFit(stored, now);
  dram_.Put(id, std::move(payload), logical_bytes, class_id, now);
  ++stats_.staged;
  Inc(tel_staged_);
  UpdateGauges();
  return Status::Ok();
}

const DramCache::Entry* AdmissionTier::Lookup(ObjectId id, SimTime now) {
  const DramCache::Entry* e = dram_.Get(id, now);
  if (e != nullptr) {
    ++stats_.dram_hits;
    Inc(tel_hits_);
  } else {
    ++stats_.dram_misses;
    Inc(tel_misses_);
  }
  UpdateHitRatio();
  return e;
}

bool AdmissionTier::Erase(ObjectId id) {
  bool erased = dram_.Erase(id);
  if (erased) UpdateGauges();
  return erased;
}

bool AdmissionTier::SetClass(ObjectId id, uint8_t class_id) {
  return dram_.SetClass(id, class_id);
}

Status AdmissionTier::GraduateNow(ObjectId id, uint8_t class_id, SimTime now) {
  const DramCache::Entry* e = dram_.Peek(id);
  if (e == nullptr) return {ErrorCode::kNotFound, "not staged in DRAM"};
  if (flash_write_ == nullptr) {
    return {ErrorCode::kInternal, "admission tier has no flash writer"};
  }
  Status st = flash_write_(id, e->payload, e->logical_bytes, class_id, now);
  if (!st.ok()) {
    ++stats_.graduate_failures;
    Inc(tel_graduate_failures_);
    return st;  // still staged; the caller sees the reclass fail
  }
  uint64_t stored = e->payload.size();
  ++stats_.evictions;
  ++stats_.graduated;
  stats_.graduated_bytes += stored;
  Inc(tel_evictions_);
  Inc(tel_graduated_);
  Inc(tel_graduated_bytes_, stored);
  policy_->OnFlashWrite(stored, now);
  dram_.Erase(id);
  UpdateGauges();
  return Status::Ok();
}

void AdmissionTier::NoteWriteThrough(uint64_t bytes, SimTime now) {
  ++stats_.write_through;
  Inc(tel_write_through_);
  policy_->OnFlashWrite(bytes, now);
}

void AdmissionTier::CountBypass() {
  ++stats_.bypass;
  Inc(tel_bypass_);
}

void AdmissionTier::UpdateGauges() {
  Set(tel_dram_bytes_, static_cast<double>(dram_.bytes()));
  Set(tel_dram_objects_, static_cast<double>(dram_.size()));
}

void AdmissionTier::UpdateHitRatio() {
  uint64_t total = stats_.dram_hits + stats_.dram_misses;
  if (total > 0) {
    Set(tel_hit_ratio_,
        static_cast<double>(stats_.dram_hits) / static_cast<double>(total));
  }
}

}  // namespace reo
