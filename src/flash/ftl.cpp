#include "flash/ftl.h"

#include <algorithm>
#include <cmath>

namespace reo {

Ftl::Ftl(FtlConfig config) : config_(config) {
  REO_CHECK(config_.block_count >= 6);
  REO_CHECK(config_.pages_per_block >= 1);
  REO_CHECK(config_.over_provisioning >= 0.0 && config_.over_provisioning < 0.9);
  uint64_t total_pages =
      static_cast<uint64_t>(config_.block_count) * config_.pages_per_block;
  logical_pages_ = static_cast<uint64_t>(
      static_cast<double>(total_pages) * (1.0 - config_.over_provisioning));
  REO_CHECK(logical_pages_ >= 1);

  blocks_.resize(config_.block_count);
  for (auto& b : blocks_) {
    b.page_lpn.assign(config_.pages_per_block, kUnmapped);
  }
  erase_counts_.assign(config_.block_count, 0);
  free_blocks_.reserve(config_.block_count);
  for (uint32_t i = config_.block_count; i > 2; --i) {
    free_blocks_.push_back(i - 1);
  }
  host_block_ = 0;
  gc_block_ = 1;
  map_.assign(static_cast<size_t>(logical_pages_), {~0u, ~0u});
}

bool Ftl::IsMapped(uint64_t lpn) const {
  return lpn < logical_pages_ && map_[static_cast<size_t>(lpn)].first != ~0u;
}

Status Ftl::TrimPage(uint64_t lpn) {
  if (lpn >= logical_pages_) return {ErrorCode::kInvalidArgument, "lpn OOB"};
  auto& [blk, page] = map_[static_cast<size_t>(lpn)];
  if (blk == ~0u) return {ErrorCode::kNotFound, "page not mapped"};
  Block& b = blocks_[blk];
  REO_CHECK(b.page_lpn[page] == lpn);
  b.page_lpn[page] = kUnmapped;
  --b.valid;
  blk = ~0u;
  page = ~0u;
  --mapped_pages_;
  return Status::Ok();
}

void Ftl::AppendPage(uint64_t lpn, uint32_t& frontier) {
  if (blocks_[frontier].next_page >= config_.pages_per_block) {
    REO_CHECK(!free_blocks_.empty());
    frontier = free_blocks_.back();
    free_blocks_.pop_back();
  }
  Block& b = blocks_[frontier];
  uint32_t page = b.next_page++;
  b.page_lpn[page] = lpn;
  ++b.valid;
  b.seq = ++seq_;
  map_[static_cast<size_t>(lpn)] = {frontier, page};
  ++stats_.nand_pages_written;
}

uint32_t Ftl::PickVictim() const {
  uint32_t best = ~0u;
  double best_score = -1.0;
  for (uint32_t i = 0; i < blocks_.size(); ++i) {
    const Block& b = blocks_[i];
    if (i == host_block_ || i == gc_block_) continue;
    if (b.next_page < config_.pages_per_block) continue;  // not sealed
    if (b.valid == config_.pages_per_block) continue;     // nothing to gain
    double u = static_cast<double>(b.valid) / config_.pages_per_block;
    double score = 0.0;
    switch (config_.gc_policy) {
      case GcPolicy::kGreedy:
        score = 1.0 - u;  // most invalid wins
        break;
      case GcPolicy::kCostBenefit: {
        double age = static_cast<double>(seq_ - b.seq + 1);
        score = (1.0 - u) / (2.0 * u + 1e-9) * age;
        break;
      }
      case GcPolicy::kWearAware: {
        // Greedy, with a wear penalty steering GC away from worn blocks.
        double wear = static_cast<double>(erase_counts_[i]);
        score = (1.0 - u) * 1000.0 - wear;
        break;
      }
    }
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

uint32_t Ftl::PickWearLevelVictim() const {
  if (config_.gc_policy != GcPolicy::kWearAware) return ~0u;
  // Consider only blocks GC could actually take (sealed, not a frontier):
  // a parked frontier must not pin the wear floor.
  uint32_t best = ~0u;
  uint32_t hi = 0;
  for (uint32_t i = 0; i < blocks_.size(); ++i) {
    if (i == host_block_ || i == gc_block_) continue;
    const Block& b = blocks_[i];
    if (b.next_page < config_.pages_per_block) continue;
    hi = std::max(hi, erase_counts_[i]);
    if (best == ~0u || erase_counts_[i] < erase_counts_[best]) best = i;
  }
  if (best == ~0u) return ~0u;
  // Migrate the least-worn (cold) block only while the gap is large.
  if (hi - erase_counts_[best] <= config_.wear_leveling_delta) return ~0u;
  return best;
}

void Ftl::RunGc() {
  uint32_t victim = PickWearLevelVictim();
  if (victim == ~0u) victim = PickVictim();
  if (victim == ~0u) return;
  Block& v = blocks_[victim];

  // Progress guarantee: the GC frontier must be able to absorb the
  // victim's valid pages. Its current room plus (if a fresh block is
  // available) one whole block always suffices, since valid < ppb.
  uint32_t gc_room = config_.pages_per_block - blocks_[gc_block_].next_page;
  if (v.valid > gc_room && free_blocks_.empty()) return;
  ++stats_.gc_runs;

  for (uint32_t p = 0; p < config_.pages_per_block; ++p) {
    uint64_t lpn = v.page_lpn[p];
    if (lpn == kUnmapped) continue;
    v.page_lpn[p] = kUnmapped;
    --v.valid;
    AppendPage(lpn, gc_block_);
    ++stats_.gc_pages_relocated;
  }

  // Erase the victim.
  v.page_lpn.assign(config_.pages_per_block, kUnmapped);
  v.valid = 0;
  v.next_page = 0;
  ++erase_counts_[victim];
  ++stats_.erases;
  free_blocks_.push_back(victim);
}

Status Ftl::EnsureWritable() {
  // Host appends refill from the free list; keep it above the watermark.
  bool host_full = blocks_[host_block_].next_page >= config_.pages_per_block;
  while (free_blocks_.size() <= config_.gc_low_watermark) {
    uint64_t before = stats_.erases;
    RunGc();
    if (stats_.erases == before) break;  // no reclaimable victim
  }
  if (host_full && free_blocks_.empty()) {
    return {ErrorCode::kNoSpace, "FTL full"};
  }
  return Status::Ok();
}

Status Ftl::WritePage(uint64_t lpn) {
  if (lpn >= logical_pages_) return {ErrorCode::kInvalidArgument, "lpn OOB"};
  REO_RETURN_IF_ERROR(EnsureWritable());
  // Invalidate the old location (overwrite is out-of-place).
  auto& [blk, page] = map_[static_cast<size_t>(lpn)];
  if (blk != ~0u) {
    Block& old = blocks_[blk];
    old.page_lpn[page] = kUnmapped;
    --old.valid;
  } else {
    ++mapped_pages_;
  }
  AppendPage(lpn, host_block_);
  ++stats_.host_pages_written;
  return Status::Ok();
}

double Ftl::WearSpread() const {
  uint64_t total = 0;
  uint32_t hi = 0;
  for (uint32_t e : erase_counts_) {
    total += e;
    hi = std::max(hi, e);
  }
  if (hi == 0) return 1.0;
  double mean = static_cast<double>(total) / static_cast<double>(erase_counts_.size());
  return static_cast<double>(hi) / std::max(1.0, mean);
}

}  // namespace reo
