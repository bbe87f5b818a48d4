// FTL model tests: mapping semantics, GC correctness, write amplification
// behaviour, TRIM and wear accounting.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "flash/ftl.h"

namespace reo {
namespace {

FtlConfig SmallFtl(GcPolicy policy = GcPolicy::kGreedy) {
  FtlConfig cfg;
  cfg.page_bytes = 4096;
  cfg.pages_per_block = 8;
  cfg.block_count = 16;  // 128 pages physical
  cfg.over_provisioning = 0.25;
  cfg.gc_low_watermark = 2;
  cfg.gc_policy = policy;
  return cfg;
}

TEST(FtlTest, GeometryAndLogicalSpace) {
  Ftl ftl(SmallFtl());
  EXPECT_EQ(ftl.logical_pages(), 96u);  // 128 * 0.75
  EXPECT_EQ(ftl.mapped_pages(), 0u);
  EXPECT_FALSE(ftl.IsMapped(0));
}

TEST(FtlTest, WriteMapsAndOverwriteKeepsOneMapping) {
  Ftl ftl(SmallFtl());
  ASSERT_TRUE(ftl.WritePage(5).ok());
  EXPECT_TRUE(ftl.IsMapped(5));
  EXPECT_EQ(ftl.mapped_pages(), 1u);
  ASSERT_TRUE(ftl.WritePage(5).ok());
  EXPECT_EQ(ftl.mapped_pages(), 1u);
  EXPECT_EQ(ftl.stats().host_pages_written, 2u);
}

TEST(FtlTest, OutOfBoundsRejected) {
  Ftl ftl(SmallFtl());
  EXPECT_EQ(ftl.WritePage(96).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(ftl.TrimPage(96).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(ftl.TrimPage(0).code(), ErrorCode::kNotFound);
}

TEST(FtlTest, TrimUnmaps) {
  Ftl ftl(SmallFtl());
  ASSERT_TRUE(ftl.WritePage(3).ok());
  ASSERT_TRUE(ftl.TrimPage(3).ok());
  EXPECT_FALSE(ftl.IsMapped(3));
  EXPECT_EQ(ftl.mapped_pages(), 0u);
  EXPECT_EQ(ftl.TrimPage(3).code(), ErrorCode::kNotFound);
}

TEST(FtlTest, FillsToLogicalCapacity) {
  Ftl ftl(SmallFtl());
  for (uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    ASSERT_TRUE(ftl.WritePage(lpn).ok()) << "lpn " << lpn;
  }
  EXPECT_EQ(ftl.mapped_pages(), ftl.logical_pages());
  // All data still mapped after the GC churn of filling.
  for (uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    EXPECT_TRUE(ftl.IsMapped(lpn));
  }
}

TEST(FtlTest, SequentialOverwriteHasLowAmplification) {
  Ftl ftl(SmallFtl());
  // Sequential overwrite invalidates whole blocks: GC finds empty victims.
  for (int round = 0; round < 20; ++round) {
    for (uint64_t lpn = 0; lpn < 64; ++lpn) {
      ASSERT_TRUE(ftl.WritePage(lpn).ok());
    }
  }
  EXPECT_LT(ftl.stats().WriteAmplification(), 1.3);
}

TEST(FtlTest, RandomOverwriteAmplifiesMore) {
  Ftl seq(SmallFtl()), rnd(SmallFtl());
  for (int round = 0; round < 20; ++round) {
    for (uint64_t lpn = 0; lpn < 90; ++lpn) {
      ASSERT_TRUE(seq.WritePage(lpn).ok());
    }
  }
  Pcg32 rng(4);
  // Same utilization (90/96 pages mapped), random overwrite order.
  for (uint64_t lpn = 0; lpn < 90; ++lpn) ASSERT_TRUE(rnd.WritePage(lpn).ok());
  for (int i = 0; i < 20 * 90; ++i) {
    ASSERT_TRUE(rnd.WritePage(rng.NextBounded(90)).ok());
  }
  EXPECT_GT(rnd.stats().WriteAmplification(), seq.stats().WriteAmplification());
  EXPECT_GT(rnd.stats().gc_runs, 0u);
}

TEST(FtlTest, HigherUtilizationAmplifiesMore) {
  auto run = [](uint64_t working_set) {
    Ftl ftl(SmallFtl());
    Pcg32 rng(9);
    for (uint64_t lpn = 0; lpn < working_set; ++lpn) {
      REO_CHECK(ftl.WritePage(lpn).ok());
    }
    for (int i = 0; i < 4000; ++i) {
      REO_CHECK(ftl.WritePage(rng.NextBounded(static_cast<uint32_t>(working_set))).ok());
    }
    return ftl.stats().WriteAmplification();
  };
  EXPECT_GT(run(90), run(48));
}

TEST(FtlTest, GcPoliciesAllPreserveData) {
  for (auto policy :
       {GcPolicy::kGreedy, GcPolicy::kCostBenefit, GcPolicy::kWearAware}) {
    Ftl ftl(SmallFtl(policy));
    Pcg32 rng(11);
    std::vector<bool> mapped(ftl.logical_pages(), false);
    for (int i = 0; i < 3000; ++i) {
      uint64_t lpn = rng.NextBounded(90);
      if (rng.NextBounded(10) < 8) {
        ASSERT_TRUE(ftl.WritePage(lpn).ok());
        mapped[lpn] = true;
      } else if (mapped[lpn]) {
        ASSERT_TRUE(ftl.TrimPage(lpn).ok());
        mapped[lpn] = false;
      }
    }
    for (uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
      EXPECT_EQ(ftl.IsMapped(lpn), mapped[lpn])
          << "policy " << static_cast<int>(policy) << " lpn " << lpn;
    }
  }
}

TEST(FtlTest, WearAwarePolicyLevelsWearBetter) {
  // Hot/cold split: 10 hot pages hammered, 60 cold pages static. Greedy GC
  // never touches the cold blocks, so their erase counts stay near zero
  // while hot blocks wear out; static wear leveling (kWearAware) migrates
  // cold blocks back into rotation.
  auto spread = [](GcPolicy policy) {
    Ftl ftl(SmallFtl(policy));
    Pcg32 rng(13);
    for (uint64_t lpn = 0; lpn < 70; ++lpn) REO_CHECK(ftl.WritePage(lpn).ok());
    for (int i = 0; i < 30000; ++i) {
      REO_CHECK(ftl.WritePage(rng.NextBounded(10)).ok());
    }
    return ftl.WearSpread();
  };
  EXPECT_LT(spread(GcPolicy::kWearAware), spread(GcPolicy::kGreedy) * 0.5);
}

TEST(FtlTest, WearLevelingPreservesData) {
  Ftl ftl(SmallFtl(GcPolicy::kWearAware));
  Pcg32 rng(19);
  for (uint64_t lpn = 0; lpn < 70; ++lpn) ASSERT_TRUE(ftl.WritePage(lpn).ok());
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(ftl.WritePage(rng.NextBounded(10)).ok());
  }
  // Every page (hot and cold) must still be mapped after migrations.
  for (uint64_t lpn = 0; lpn < 70; ++lpn) EXPECT_TRUE(ftl.IsMapped(lpn));
}

TEST(FtlTest, ErasesAreCounted) {
  Ftl ftl(SmallFtl());
  Pcg32 rng(17);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(ftl.WritePage(rng.NextBounded(80)).ok());
  }
  EXPECT_GT(ftl.stats().erases, 0u);
  uint64_t total = 0;
  for (uint32_t e : ftl.erase_counts()) total += e;
  EXPECT_EQ(total, ftl.stats().erases);
  EXPECT_GE(ftl.WearSpread(), 1.0);
}

}  // namespace
}  // namespace reo
