// Unit tests for the Rule Filter (hashed rule memory with the 68-bit
// merged label key, §III.D / §IV.A).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/rule_filter.hpp"

using namespace pclass;
using namespace pclass::core;

namespace {
Key68 key_of(u64 x) { return Key68{static_cast<u8>(x >> 60), x * 0x9E37u}; }
}  // namespace

TEST(RuleFilter, InsertThenLookup) {
  RuleFilter f("f", 64, 8, 1);
  hw::CommandLog log;
  f.insert(key_of(1), {RuleId{10}, 3, 42}, log);
  hw::CycleRecorder rec;
  const auto hit = f.lookup(key_of(1), &rec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rule.value, 10u);
  EXPECT_EQ(hit->priority, 3u);
  EXPECT_EQ(hit->action, 42u);
  EXPECT_GE(rec.cycles(), 2u);  // hash + at least one read
  EXPECT_FALSE(f.lookup(key_of(2), &rec).has_value());
}

TEST(RuleFilter, TwoBeatUpload) {
  // §V.A: one rule entry = two bus beats (+ the hash cycle logged by the
  // caller).
  RuleFilter f("f", 64, 8, 1);
  hw::CommandLog log;
  f.insert(key_of(1), {RuleId{1}, 0, 0}, log);
  EXPECT_EQ(log.size(), 2u);
}

TEST(RuleFilter, TombstoneIsOneBeat) {
  // The staging beat keeps a half-written entry invalid; a tombstone's
  // valid bit is already clear, so a remove is one memory write.
  RuleFilter f("f", 64, 8, 1);
  hw::CommandLog insert_log;
  f.insert(key_of(1), {RuleId{1}, 0, 0}, insert_log);
  EXPECT_EQ(insert_log.size(), 2u);
  hw::CommandLog remove_log;
  f.remove(key_of(1), remove_log);
  ASSERT_EQ(remove_log.size(), 1u);
  EXPECT_EQ(remove_log.commands()[0].target, hw::UpdateTarget::kMemoryWord);
  EXPECT_EQ(f.memory().stats().writes, 3u);
  EXPECT_FALSE(f.lookup(key_of(1), nullptr).has_value());
}

TEST(RuleFilter, DuplicateKeyThrows) {
  RuleFilter f("f", 64, 8, 1);
  hw::CommandLog log;
  f.insert(key_of(1), {RuleId{1}, 0, 0}, log);
  EXPECT_THROW(f.insert(key_of(1), {RuleId{2}, 1, 0}, log), InternalError);
}

TEST(RuleFilter, RemoveLeavesTombstoneChainIntact) {
  // Force a collision chain, delete the middle entry, and verify the
  // tail entry is still reachable through the tombstone.
  RuleFilter f("f", 8, 8, 1);
  hw::CommandLog log;
  // Find three keys hashing to the same bucket.
  std::vector<Key68> same;
  Key68Hasher h(8, 1);
  for (u64 x = 0; same.size() < 3; ++x) {
    const Key68 k = key_of(x);
    if (h(k) == 0) same.push_back(k);
  }
  for (usize i = 0; i < 3; ++i) {
    f.insert(same[i], {RuleId{static_cast<u32>(i)}, 0, 0}, log);
  }
  f.remove(same[1], log);
  EXPECT_EQ(f.tombstones(), 1u);
  const auto hit = f.lookup(same[2], nullptr);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rule.value, 2u);
  EXPECT_FALSE(f.lookup(same[1], nullptr).has_value());
}

TEST(RuleFilter, TombstoneSlotReused) {
  RuleFilter f("f", 8, 8, 1);
  hw::CommandLog log;
  // Two keys in the same bucket: the second insert probes through the
  // first one's tombstone and recycles it.
  Key68Hasher h(8, 1);
  std::vector<Key68> same;
  for (u64 x = 0; same.size() < 2; ++x) {
    if (const Key68 k = key_of(x); h(k) == 0) same.push_back(k);
  }
  f.insert(same[0], {RuleId{1}, 0, 0}, log);
  f.remove(same[0], log);
  EXPECT_EQ(f.tombstones(), 1u);
  f.insert(same[1], {RuleId{2}, 0, 0}, log);
  EXPECT_EQ(f.tombstones(), 0u);  // slot recycled
  EXPECT_TRUE(f.lookup(same[1], nullptr).has_value());
}

TEST(RuleFilter, RemoveUnknownThrows) {
  RuleFilter f("f", 8, 8, 1);
  hw::CommandLog log;
  EXPECT_THROW(f.remove(key_of(5), log), InternalError);
}

TEST(RuleFilter, ProbeBoundCapacityError) {
  RuleFilter f("f", 8, 2, 1);  // only 2 probes allowed
  hw::CommandLog log;
  // Fill bucket 0's probe window with colliding keys.
  Key68Hasher h(8, 1);
  usize inserted = 0;
  u64 x = 0;
  try {
    for (; inserted < 8; ++x) {
      const Key68 k = key_of(x);
      if (h(k) == 0) {
        f.insert(k, {RuleId{static_cast<u32>(x)}, 0, 0}, log);
        ++inserted;
      }
    }
    FAIL() << "expected CapacityError";
  } catch (const CapacityError&) {
    EXPECT_GE(inserted, 2u);
  }
}

TEST(RuleFilter, TableFullCapacityError) {
  RuleFilter f("f", 2, 2, 1);
  hw::CommandLog log;
  usize inserted = 0;
  try {
    for (u64 x = 0; x < 10; ++x) {
      f.insert(key_of(x), {RuleId{static_cast<u32>(x)}, 0, 0}, log);
      ++inserted;
    }
    FAIL() << "expected CapacityError";
  } catch (const CapacityError&) {
    EXPECT_LE(inserted, 2u);
  }
}

TEST(RuleFilter, FieldWidthGuards) {
  RuleFilter f("f", 8, 4, 1);
  hw::CommandLog log;
  EXPECT_THROW(f.insert(key_of(1), {RuleId{0x10000}, 0, 0}, log),
               ConfigError);
  EXPECT_THROW(f.insert(key_of(1), {RuleId{1}, 0x10000, 0}, log),
               ConfigError);
  EXPECT_THROW(f.insert(key_of(1), {RuleId{1}, 0, 0x10000}, log),
               ConfigError);
}

TEST(RuleFilter, ClearResets) {
  RuleFilter f("f", 16, 8, 1);
  hw::CommandLog log;
  f.insert(key_of(1), {RuleId{1}, 0, 0}, log);
  f.insert(key_of(2), {RuleId{2}, 0, 0}, log);
  f.clear(log);
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.tombstones(), 0u);
  EXPECT_FALSE(f.lookup(key_of(1), nullptr).has_value());
}

TEST(RuleFilter, LoadFactorTracksLiveAndTombstones) {
  RuleFilter f("f", 10, 10, 1);
  hw::CommandLog log;
  f.insert(key_of(1), {RuleId{1}, 0, 0}, log);
  f.insert(key_of(2), {RuleId{2}, 0, 0}, log);
  EXPECT_DOUBLE_EQ(f.load_factor(), 0.2);
  f.remove(key_of(1), log);
  EXPECT_DOUBLE_EQ(f.load_factor(), 0.2);  // tombstone still occupies
}

TEST(RuleFilter, KeyBitsRoundTripThroughMemory) {
  RuleFilter f("f", 16, 8, 1);
  hw::CommandLog log;
  const Key68 k{0xF, 0xFFFFFFFFFFFFFFFFull};  // all 68 bits set
  f.insert(k, {RuleId{7}, 9, 11}, log);
  const auto hit = f.lookup(k, nullptr);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rule.value, 7u);
  // A key differing only in the top nibble must miss.
  EXPECT_FALSE(f.lookup(Key68{0x7, 0xFFFFFFFFFFFFFFFFull}, nullptr));
}

TEST(RuleFilter, ConstructionValidation) {
  EXPECT_THROW(RuleFilter("f", 8, 0, 1), ConfigError);
  EXPECT_THROW(RuleFilter("f", 8, 9, 1), ConfigError);
}

TEST(ProbeMemo, SlotNormalization) {
  // Slot rounding is the constructor's rule, exposed so geometry checks
  // elsewhere (the scratch rebuild in classify_batch) cannot desync.
  for (const u32 want : {0u, 1u, 15u, 16u, 17u, 500u, 512u, 513u}) {
    EXPECT_EQ(ProbeMemo(want).slots(), ProbeMemo::normalized_slots(want));
  }
  EXPECT_EQ(ProbeMemo::normalized_slots(0), 16u);
  EXPECT_EQ(ProbeMemo::normalized_slots(17), 32u);
}
