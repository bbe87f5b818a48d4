// Classification (Table II), adaptive H_hot selection, protection policies,
// and the LRU list.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/classifier.h"
#include "core/lru.h"
#include "core/policy.h"

namespace reo {
namespace {

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

ObjectState MakeState(uint64_t n, uint64_t size, uint64_t freq,
                      bool dirty = false, bool metadata = false) {
  return ObjectState{.id = Oid(n),
                     .logical_size = size,
                     .freq = freq,
                     .dirty = dirty,
                     .is_metadata = metadata};
}

// --- Table II classification -----------------------------------------------------

TEST(ClassifyTest, TableIIMapping) {
  double h_hot = 0.01;
  // Metadata wins regardless of everything else.
  EXPECT_EQ(Classify(MakeState(1, 100, 0, true, true), h_hot), DataClass::kMetadata);
  // Dirty beats hot/cold.
  EXPECT_EQ(Classify(MakeState(2, 100, 1000, true), h_hot), DataClass::kDirty);
  // Hot: H = 10/100 = 0.1 >= 0.01.
  EXPECT_EQ(Classify(MakeState(3, 100, 10), h_hot), DataClass::kHotClean);
  // Cold: H = 1/10000 < 0.01.
  EXPECT_EQ(Classify(MakeState(4, 10000, 1), h_hot), DataClass::kColdClean);
}

TEST(ClassifyTest, HFavorsSmallFrequentObjects) {
  // Same frequency, smaller object -> larger H (paper §IV.C.1).
  EXPECT_GT(MakeState(1, 100, 5).H(), MakeState(2, 1000, 5).H());
  // Same size, more reads -> larger H.
  EXPECT_GT(MakeState(1, 100, 9).H(), MakeState(2, 100, 5).H());
}

TEST(ClassifyTest, ClassNamesAndOrder) {
  EXPECT_EQ(static_cast<int>(DataClass::kMetadata), 0);
  EXPECT_EQ(static_cast<int>(DataClass::kDirty), 1);
  EXPECT_EQ(static_cast<int>(DataClass::kHotClean), 2);
  EXPECT_EQ(static_cast<int>(DataClass::kColdClean), 3);
  EXPECT_EQ(to_string(DataClass::kHotClean), "hot-clean");
}

// --- Adaptive threshold -------------------------------------------------------------

/// Redundancy cost model for tests: protecting S bytes costs S (1:1).
uint64_t UnitCost(uint64_t size) { return size; }

TEST(AdaptiveHotClassifierTest, BudgetAdmitsHottestFirst) {
  AdaptiveHotClassifier c(UnitCost);
  // H values: a=1.0 (100/100), b=0.5, c=0.1.
  std::vector<ObjectState> objs{MakeState(1, 100, 100), MakeState(2, 100, 50),
                                MakeState(3, 100, 10)};
  // Budget of 200 admits the two hottest (cost 100 each).
  double h = c.Refresh(objs, 200);
  EXPECT_DOUBLE_EQ(h, 0.5);
  EXPECT_EQ(c.hot_count(), 2u);
  // The admitted boundary is inclusive: H == h_hot classifies hot.
  EXPECT_EQ(Classify(MakeState(2, 100, 50), h), DataClass::kHotClean);
  EXPECT_EQ(Classify(MakeState(3, 100, 10), h), DataClass::kColdClean);
}

TEST(AdaptiveHotClassifierTest, ZeroBudgetAdmitsNothing) {
  AdaptiveHotClassifier c(UnitCost);
  double h = c.Refresh({MakeState(1, 100, 100)}, 0);
  EXPECT_TRUE(std::isinf(h));
  EXPECT_EQ(c.hot_count(), 0u);
}

TEST(AdaptiveHotClassifierTest, LargeBudgetAdmitsAll) {
  AdaptiveHotClassifier c(UnitCost);
  std::vector<ObjectState> objs;
  for (uint64_t i = 0; i < 10; ++i) objs.push_back(MakeState(i, 100, i + 1));
  double h = c.Refresh(objs, 100000);
  EXPECT_EQ(c.hot_count(), 10u);
  // Threshold equals the coldest candidate's H: everything stays hot.
  EXPECT_DOUBLE_EQ(h, MakeState(0, 100, 1).H());
}

TEST(AdaptiveHotClassifierTest, StopsAtFirstOverflow) {
  AdaptiveHotClassifier c(UnitCost);
  // Hot first (small, frequent), then one huge object that busts the budget,
  // then small ones that *would* fit: the paper's greedy walk stops at the
  // first object that does not fit.
  std::vector<ObjectState> objs{
      MakeState(1, 100, 1000),   // H=10, cost 100
      MakeState(2, 10000, 500),  // H=0.05, cost 10000 -> overflow
      MakeState(3, 100, 1),      // H=0.01
  };
  double h = c.Refresh(objs, 200);
  EXPECT_EQ(c.hot_count(), 1u);
  EXPECT_DOUBLE_EQ(h, 10.0);
}

TEST(AdaptiveHotClassifierTest, DeterministicTieBreak) {
  AdaptiveHotClassifier c(UnitCost);
  std::vector<ObjectState> a{MakeState(2, 100, 10), MakeState(1, 100, 10)};
  std::vector<ObjectState> b{MakeState(1, 100, 10), MakeState(2, 100, 10)};
  EXPECT_DOUBLE_EQ(c.Refresh(a, 100), c.Refresh(b, 100));
}

// --- Policy -----------------------------------------------------------------------

TEST(PolicyTest, UniformModesIgnoreClass) {
  for (auto [mode, level] :
       std::vector<std::pair<ProtectionMode, RedundancyLevel>>{
           {ProtectionMode::kUniform0, RedundancyLevel::kNone},
           {ProtectionMode::kUniform1, RedundancyLevel::kParity1},
           {ProtectionMode::kUniform2, RedundancyLevel::kParity2},
           {ProtectionMode::kFullReplication, RedundancyLevel::kReplicate}}) {
    RedundancyPolicy p({.mode = mode});
    for (auto cls : {DataClass::kMetadata, DataClass::kDirty,
                     DataClass::kHotClean, DataClass::kColdClean}) {
      EXPECT_EQ(p.LevelFor(cls), level) << to_string(mode) << "/" << to_string(cls);
      EXPECT_FALSE(p.ReserveApplies(cls));
    }
  }
}

TEST(PolicyTest, ReoMapsTableII) {
  RedundancyPolicy p({.mode = ProtectionMode::kReo});
  EXPECT_EQ(p.LevelFor(DataClass::kMetadata), RedundancyLevel::kReplicate);
  EXPECT_EQ(p.LevelFor(DataClass::kDirty), RedundancyLevel::kReplicate);
  EXPECT_EQ(p.LevelFor(DataClass::kHotClean), RedundancyLevel::kParity2);
  EXPECT_EQ(p.LevelFor(DataClass::kColdClean), RedundancyLevel::kNone);
}

TEST(PolicyTest, ReserveFraction) {
  RedundancyPolicy p({.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2});
  EXPECT_EQ(p.ReserveBytes(1000), 200u);
  // Mandatory-protection classes are exempt from the cap.
  EXPECT_FALSE(p.ReserveApplies(DataClass::kMetadata));
  EXPECT_FALSE(p.ReserveApplies(DataClass::kDirty));
  EXPECT_TRUE(p.ReserveApplies(DataClass::kHotClean));
  EXPECT_TRUE(p.ReserveApplies(DataClass::kColdClean));
}

TEST(PolicyTest, UniformReserveIsUncapped) {
  RedundancyPolicy p({.mode = ProtectionMode::kUniform2});
  EXPECT_EQ(p.ReserveBytes(1000), 1000u);
}

TEST(PolicyTest, ParseNames) {
  ProtectionMode m = ProtectionMode::kReo;
  for (auto [name, mode] : std::vector<std::pair<const char*, ProtectionMode>>{
           {"reo", ProtectionMode::kReo},
           {"0-parity", ProtectionMode::kUniform0},
           {"1-parity", ProtectionMode::kUniform1},
           {"2-parity", ProtectionMode::kUniform2},
           {"full-repl", ProtectionMode::kFullReplication}}) {
    EXPECT_TRUE(ParseProtectionMode(name, &m)) << name;
    EXPECT_EQ(m, mode) << name;
  }
  // to_string's display names are not all CLI spellings.
  EXPECT_FALSE(ParseProtectionMode("Reo", &m));
  EXPECT_FALSE(ParseProtectionMode("full-replication", &m));
}

// --- Redundancy level helpers -------------------------------------------------------

TEST(RedundancyLevelTest, ChunkCounts) {
  EXPECT_EQ(RedundantChunkCount(RedundancyLevel::kNone, 5), 0u);
  EXPECT_EQ(RedundantChunkCount(RedundancyLevel::kParity1, 5), 1u);
  EXPECT_EQ(RedundantChunkCount(RedundancyLevel::kParity2, 5), 2u);
  EXPECT_EQ(RedundantChunkCount(RedundancyLevel::kReplicate, 5), 4u);
  // Degenerate widths degrade gracefully.
  EXPECT_EQ(RedundantChunkCount(RedundancyLevel::kParity2, 2), 1u);
  EXPECT_EQ(RedundantChunkCount(RedundancyLevel::kParity1, 1), 0u);
  EXPECT_EQ(RedundantChunkCount(RedundancyLevel::kReplicate, 1), 0u);
}

// --- LRU ---------------------------------------------------------------------------

TEST(LruListTest, InsertTouchEvictOrder) {
  LruList lru;
  ASSERT_TRUE(lru.Insert(Oid(1)).ok());
  ASSERT_TRUE(lru.Insert(Oid(2)).ok());
  ASSERT_TRUE(lru.Insert(Oid(3)).ok());
  EXPECT_EQ(*lru.Lru(), Oid(1));
  ASSERT_TRUE(lru.Touch(Oid(1)).ok());  // 1 becomes MRU
  EXPECT_EQ(*lru.Lru(), Oid(2));
  ASSERT_TRUE(lru.Remove(Oid(2)).ok());
  EXPECT_EQ(*lru.Lru(), Oid(3));
  EXPECT_EQ(lru.size(), 2u);
}

TEST(LruListTest, DuplicatesAndMissing) {
  LruList lru;
  ASSERT_TRUE(lru.Insert(Oid(1)).ok());
  EXPECT_EQ(lru.Insert(Oid(1)).code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(lru.Touch(Oid(9)).code(), ErrorCode::kNotFound);
  EXPECT_EQ(lru.Remove(Oid(9)).code(), ErrorCode::kNotFound);
}

TEST(LruListTest, EmptyHasNoLru) {
  LruList lru;
  EXPECT_FALSE(lru.Lru().has_value());
  EXPECT_TRUE(lru.empty());
}

TEST(LruListTest, ForEachLruFirstOrder) {
  LruList lru;
  for (uint64_t i = 1; i <= 4; ++i) ASSERT_TRUE(lru.Insert(Oid(i)).ok());
  std::vector<ObjectId> seen;
  lru.ForEachLruFirst([&](ObjectId id) {
    seen.push_back(id);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<ObjectId>{Oid(1), Oid(2), Oid(3), Oid(4)}));
}

TEST(LruListTest, ForEachToleratesRemovalInsideCallback) {
  LruList lru;
  for (uint64_t i = 1; i <= 4; ++i) ASSERT_TRUE(lru.Insert(Oid(i)).ok());
  std::vector<ObjectId> seen;
  lru.ForEachLruFirst([&](ObjectId id) {
    seen.push_back(id);
    (void)lru.Remove(id);
    // Also remove the *next* LRU entry; the walk must skip it.
    if (auto next = lru.Lru()) (void)lru.Remove(*next);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<ObjectId>{Oid(1), Oid(3)}));
  EXPECT_TRUE(lru.empty());
}

TEST(LruListTest, ForEachEarlyStop) {
  LruList lru;
  for (uint64_t i = 1; i <= 4; ++i) ASSERT_TRUE(lru.Insert(Oid(i)).ok());
  int visits = 0;
  lru.ForEachLruFirst([&](ObjectId) { return ++visits < 2; });
  EXPECT_EQ(visits, 2);
}

}  // namespace
}  // namespace reo
