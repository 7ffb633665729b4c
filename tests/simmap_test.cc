// SimMap: the interpreter's probe-accurate hash maps (control-flow twin of
// the lowered IR probe loops).
#include <gtest/gtest.h>

#include "src/lang/interp.h"
#include "src/util/rng.h"

namespace clara {
namespace {

// Keys or values of one map operation.
using K = std::vector<uint64_t>;

StateDecl NicMapDecl(uint32_t capacity = 64, uint32_t spb = 4) {
  StateDecl d;
  d.name = "m";
  d.kind = StateKind::kMap;
  d.key_fields = {Type::kI32};
  d.value_fields = {{"v", Type::kI32}};
  d.capacity = capacity;
  d.slots_per_bucket = spb;
  d.impl = MapImpl::kNicFixedBucket;
  return d;
}

StateDecl HostMapDecl(uint32_t capacity = 64) {
  StateDecl d = NicMapDecl(capacity);
  d.impl = MapImpl::kHostLinearProbe;
  return d;
}

TEST(SimMap, FindMissOnEmptyStopsImmediately) {
  SimMap m(NicMapDecl());
  auto r = m.Find(K{42}, nullptr);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.stopped_empty);
  EXPECT_EQ(r.probes, 1u);
  EXPECT_EQ(r.continues, 0u);
}

TEST(SimMap, InsertThenFindReturnsValue) {
  SimMap m(NicMapDecl());
  auto ri = m.Insert(K{42}, K{777});
  EXPECT_TRUE(ri.found);
  std::vector<uint64_t> vals(1);
  auto rf = m.Find(K{42}, vals.data());
  EXPECT_TRUE(rf.found);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 777u);
  EXPECT_EQ(m.entries(), 1u);
}

TEST(SimMap, OverwriteDoesNotGrow) {
  SimMap m(NicMapDecl());
  m.Insert(K{42}, K{1});
  m.Insert(K{42}, K{2});
  EXPECT_EQ(m.entries(), 1u);
  std::vector<uint64_t> vals(1);
  m.Find(K{42}, vals.data());
  EXPECT_EQ(vals[0], 2u);
}

TEST(SimMap, NicBucketBoundsProbes) {
  SimMap m(NicMapDecl(64, 4));
  // Probes never exceed slots-per-bucket regardless of occupancy.
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    m.Insert(K{rng.NextBounded(1000) + 1}, K{1});
  }
  for (int i = 0; i < 200; ++i) {
    auto r = m.Find(K{rng.NextBounded(1000) + 1}, nullptr);
    EXPECT_LE(r.probes, 4u);
  }
}

TEST(SimMap, NicBucketOverflowFailsInsert) {
  // Single bucket of 2 slots: third distinct colliding key must fail.
  StateDecl d = NicMapDecl(2, 2);
  SimMap m(d);
  int ok = 0;
  for (uint64_t k = 1; k <= 3; ++k) {
    auto r = m.Insert(K{k}, K{k});
    ok += r.found ? 1 : 0;
    if (!r.found) {
      EXPECT_TRUE(r.exhausted);
    }
  }
  EXPECT_EQ(ok, 2);
}

TEST(SimMap, HostProbeWrapsAround) {
  // Host maps probe past the physical end with wraparound; fill most of a
  // small table and verify everything is still findable.
  SimMap m(HostMapDecl(16));
  for (uint64_t k = 1; k <= 12; ++k) {
    ASSERT_TRUE(m.Insert(K{k * 7919}, K{k}).found);
  }
  for (uint64_t k = 1; k <= 12; ++k) {
    std::vector<uint64_t> vals(1);
    auto r = m.Find(K{k * 7919}, vals.data());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(vals[0], k);
  }
}

TEST(SimMap, EraseMarksInvalidOnly) {
  SimMap m(NicMapDecl());
  m.Insert(K{5}, K{50});
  auto re = m.Erase(K{5});
  EXPECT_TRUE(re.found);
  EXPECT_EQ(m.entries(), 0u);
  EXPECT_FALSE(m.Find(K{5}, nullptr).found);
  // Slot is reusable.
  EXPECT_TRUE(m.Insert(K{5}, K{51}).found);
}

TEST(SimMap, ProbeAccountingInvariants) {
  // continues == probes - 1 whenever the probe stopped early (hit or empty),
  // and continues == probes when the bound was exhausted.
  SimMap m(HostMapDecl(32));
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    uint64_t k = rng.NextBounded(60) + 1;
    SimMap::OpResult r;
    switch (rng.NextBounded(3)) {
      case 0: r = m.Insert(K{k}, K{k}); break;
      case 1: r = m.Find(K{k}, nullptr); break;
      default: r = m.Erase(K{k}); break;
    }
    if (r.exhausted) {
      ASSERT_EQ(r.continues, r.probes);
    } else {
      ASSERT_EQ(r.continues + 1, r.probes);
    }
  }
}

TEST(SimMap, MultiKeyFieldsMatchAllFields) {
  StateDecl d;
  d.name = "m2";
  d.kind = StateKind::kMap;
  d.key_fields = {Type::kI32, Type::kI16};
  d.value_fields = {{"v", Type::kI32}};
  d.capacity = 64;
  d.impl = MapImpl::kNicFixedBucket;
  SimMap m(d);
  m.Insert(K{100, 7}, K{1});
  EXPECT_TRUE(m.Find(K{100, 7}, nullptr).found);
  EXPECT_FALSE(m.Find(K{100, 8}, nullptr).found);
  EXPECT_FALSE(m.Find(K{101, 7}, nullptr).found);
}

TEST(SimMap, ClearEmptiesEverything) {
  SimMap m(NicMapDecl());
  for (uint64_t k = 1; k < 20; ++k) {
    m.Insert(K{k}, K{k});
  }
  m.Clear();
  EXPECT_EQ(m.entries(), 0u);
  for (uint64_t k = 1; k < 20; ++k) {
    EXPECT_FALSE(m.Find(K{k}, nullptr).found);
  }
}

}  // namespace
}  // namespace clara
