// Flash Translation Layer model.
//
// The paper's motivation is flash wear: cells endure 1,000-5,000 P/E
// cycles, and every host write eventually forces whole-block erasures,
// amplified by garbage collection. This FTL models that machinery —
// out-of-place page writes, per-block validity tracking, GC with
// selectable victim policies, TRIM — and reports write amplification and
// wear-leveling quality. It stands alone: bench/ablation_ftl compares the
// GC policies on it, while FlashDevice keeps a flat factor-1 wear estimate.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"

namespace reo {

/// GC victim-selection policies.
enum class GcPolicy : uint8_t {
  kGreedy,      ///< most invalid pages first (min valid relocation)
  kCostBenefit, ///< classic (1-u)/(2u) * age heuristic
  kWearAware,   ///< greedy, tie-broken toward least-worn blocks
};

struct FtlConfig {
  uint32_t page_bytes = 4096;
  uint32_t pages_per_block = 64;
  uint32_t block_count = 1024;
  /// Fraction of blocks held back as over-provisioning (GC headroom).
  double over_provisioning = 0.07;
  /// GC triggers when free blocks fall to this count.
  uint32_t gc_low_watermark = 4;
  GcPolicy gc_policy = GcPolicy::kGreedy;
  /// kWearAware only: when the max-min erase-count gap exceeds this,
  /// static wear leveling kicks in — the least-worn sealed block (usually
  /// full of cold data) is migrated so its block re-enters rotation.
  uint32_t wear_leveling_delta = 8;
};

/// Lifetime counters.
struct FtlStats {
  uint64_t host_pages_written = 0;
  uint64_t nand_pages_written = 0;  ///< host + GC relocations
  uint64_t gc_runs = 0;
  uint64_t gc_pages_relocated = 0;
  uint64_t erases = 0;

  double WriteAmplification() const {
    return host_pages_written
               ? static_cast<double>(nand_pages_written) /
                     static_cast<double>(host_pages_written)
               : 1.0;
  }
};

/// Page-mapped FTL simulation.
class Ftl {
 public:
  explicit Ftl(FtlConfig config);

  const FtlConfig& config() const { return config_; }
  const FtlStats& stats() const { return stats_; }

  /// Logical pages exposed to the host (capacity minus over-provisioning).
  uint64_t logical_pages() const { return logical_pages_; }

  /// Writes (or overwrites) a logical page. Runs GC as needed. Fails with
  /// kNoSpace only if the drive is truly full of valid data.
  Status WritePage(uint64_t lpn);

  /// Declares a logical page unused (TRIM): invalidates without writing.
  Status TrimPage(uint64_t lpn);

  /// True if the logical page currently holds data.
  bool IsMapped(uint64_t lpn) const;

  /// Valid pages currently mapped.
  uint64_t mapped_pages() const { return mapped_pages_; }

  /// Per-block erase counts (wear histogram source).
  const std::vector<uint32_t>& erase_counts() const { return erase_counts_; }

  /// Max/mean erase-count ratio — 1.0 is perfectly level wear. (Max/mean,
  /// not max/min: an idle frontier block legitimately sits at zero erases
  /// and would make a min-based metric meaningless.)
  double WearSpread() const;

 private:
  struct Block {
    std::vector<uint64_t> page_lpn;  ///< lpn per page, kInvalid if not live
    uint32_t valid = 0;
    uint32_t next_page = 0;          ///< append cursor
    uint64_t seq = 0;                ///< age stamp for cost-benefit
  };

  static constexpr uint64_t kUnmapped = ~0ULL;

  uint32_t PickVictim() const;
  /// Static wear leveling: least-worn sealed block, if the wear gap
  /// warrants migrating it; ~0u otherwise.
  uint32_t PickWearLevelVictim() const;
  void RunGc();
  /// Appends into the given write frontier (host or GC), acquiring a fresh
  /// block from the free list when the frontier fills.
  void AppendPage(uint64_t lpn, uint32_t& frontier);
  Status EnsureWritable();

  FtlConfig config_;
  uint64_t logical_pages_;
  std::vector<Block> blocks_;
  std::vector<uint32_t> erase_counts_;
  std::vector<uint32_t> free_blocks_;  // stack of fully-erased blocks
  std::vector<std::pair<uint32_t, uint32_t>> map_;  // lpn -> (block, page)
  // Dual write frontiers: host writes and GC relocations go to separate
  // blocks (hot/cold separation; also guarantees GC progress).
  uint32_t host_block_;
  uint32_t gc_block_;
  uint64_t mapped_pages_ = 0;
  uint64_t seq_ = 0;
  FtlStats stats_;
};

}  // namespace reo
