// Unit + property tests for the multi-bit trie engine: lookups are
// checked against a naive covering-prefix oracle over random prefix
// sets, incremental updates against from-scratch rebuilds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "alg/multibit_trie.hpp"
#include "baseline/linear_search.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "core/classifier.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/trace_gen.hpp"

using namespace pclass;
using namespace pclass::alg;
using pclass::ruleset::SegmentPrefix;

namespace {

/// Test fixture: a trie + list store + a priority map driving the
/// prio_of callback (labels sorted by priority, then value).
struct Rig {
  std::map<u16, Priority> prio;  // label value -> priority
  LabelListStore lists{"lists", 2048, kIpLabelBits};
  MbtConfig cfg;
  std::unique_ptr<MultiBitTrie> trie;
  hw::CommandLog log;

  explicit Rig(MbtConfig c = {}) : cfg(std::move(c)) {
    trie = std::make_unique<MultiBitTrie>(
        "t", cfg, lists,
        [this](Label l) {
          const auto it = prio.find(l.value);
          return it == prio.end() ? kNoPriority : it->second;
        });
  }

  void insert(u16 value, u8 len, u16 label, Priority p) {
    prio[label] = p;
    trie->insert(SegmentPrefix::make(value, len), Label{label}, log);
  }
  void remove(u16 value, u8 len) {
    trie->remove(SegmentPrefix::make(value, len), log);
  }

  /// Device writes into the trie's level memories so far.
  u64 node_writes() const {
    u64 n = 0;
    for (usize k = 0; k < trie->levels(); ++k) {
      n += trie->level_memory(k).stats().writes;
    }
    return n;
  }

  std::vector<u16> lookup(u16 key) {
    hw::CycleRecorder rec;
    const ListRef r = trie->lookup(key, &rec);
    std::vector<u16> out;
    for (Label l : lists.read_list(r, &rec)) {
      out.push_back(l.value);
    }
    return out;
  }
};

/// Naive oracle: all (prefix, label) pairs covering key, sorted by
/// (priority, label).
struct Oracle {
  struct Entry {
    SegmentPrefix p;
    u16 label;
    Priority prio;
  };
  std::vector<Entry> entries;

  std::vector<u16> lookup(u16 key) const {
    std::vector<Entry> hit;
    for (const Entry& e : entries) {
      if (e.p.matches(key)) hit.push_back(e);
    }
    std::sort(hit.begin(), hit.end(), [](const Entry& a, const Entry& b) {
      return a.prio != b.prio ? a.prio < b.prio : a.label < b.label;
    });
    std::vector<u16> out;
    for (const Entry& e : hit) out.push_back(e.label);
    return out;
  }
};

}  // namespace

TEST(Mbt, EmptyTrieMissesEverything) {
  Rig rig;
  EXPECT_TRUE(rig.lookup(0).empty());
  EXPECT_TRUE(rig.lookup(0xFFFF).empty());
}

TEST(Mbt, SinglePrefixCoversItsSpan) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 0);
  EXPECT_EQ(rig.lookup(0xAB12), std::vector<u16>{1});
  EXPECT_EQ(rig.lookup(0xABFF), std::vector<u16>{1});
  EXPECT_TRUE(rig.lookup(0xAC00).empty());
}

TEST(Mbt, WildcardReachesAllKeys) {
  Rig rig;
  rig.insert(0, 0, 7, 3);
  EXPECT_EQ(rig.lookup(0x1234), std::vector<u16>{7});
  EXPECT_EQ(rig.lookup(0), std::vector<u16>{7});
}

TEST(Mbt, NestedPrefixesInPriorityOrder) {
  Rig rig;
  rig.insert(0, 0, 10, 5);          // wildcard, prio 5
  rig.insert(0xAB00, 8, 11, 2);     // /8, prio 2
  rig.insert(0xABC0, 12, 12, 8);    // /12, prio 8
  // Key covered by all three; order by priority: 11(2), 10(5), 12(8).
  EXPECT_EQ(rig.lookup(0xABC5), (std::vector<u16>{11, 10, 12}));
  // Key covered by wildcard + /8 only.
  EXPECT_EQ(rig.lookup(0xAB00), (std::vector<u16>{11, 10}));
}

TEST(Mbt, LeafPushedListAtDeepestEntry) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);   // anchored at level 1 (5 < 8 <= 10)
  rig.insert(0xABCD, 16, 2, 2);  // anchored at level 2
  hw::CycleRecorder rec;
  const ListRef r = rig.trie->lookup(0xABCD, &rec);
  // Deepest entry's list carries the ancestor label too.
  const auto labels = rig.lists.read_list(r, nullptr);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].value, 1u);
  EXPECT_EQ(labels[1].value, 2u);
  // Lookup visited 3 levels at 2 cycles each.
  EXPECT_EQ(rec.memory_accesses(), 3u);
  EXPECT_EQ(rec.cycles(), 6u);
}

TEST(Mbt, LookupStopsEarlyWithoutChildren) {
  Rig rig;
  rig.insert(0x8000, 1, 3, 0);  // level-0 anchored only
  hw::CycleRecorder rec;
  (void)rig.trie->lookup(0x8000, &rec);
  EXPECT_EQ(rec.memory_accesses(), 1u);  // root only, no children
}

TEST(Mbt, RemoveRestoresPreviousAnswers) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);
  rig.insert(0xABCD, 16, 2, 2);
  rig.remove(0xABCD, 16);
  EXPECT_EQ(rig.lookup(0xABCD), std::vector<u16>{1});
  rig.remove(0xAB00, 8);
  EXPECT_TRUE(rig.lookup(0xABCD).empty());
}

TEST(Mbt, PruneReclaimsNodesAndLists) {
  Rig rig;
  const usize base_nodes1 = rig.trie->node_count(1);
  rig.insert(0xABCD, 16, 1, 0);
  EXPECT_GT(rig.trie->node_count(1), base_nodes1);
  EXPECT_GT(rig.lists.live_words(), 0u);
  rig.remove(0xABCD, 16);
  EXPECT_EQ(rig.trie->node_count(1), base_nodes1);
  EXPECT_EQ(rig.trie->node_count(2), 0u);
  EXPECT_EQ(rig.lists.live_words(), 0u);  // every list released
}

TEST(Mbt, RefreshReordersAfterPriorityChange) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 5);
  rig.insert(0, 0, 2, 9);
  EXPECT_EQ(rig.lookup(0xAB42), (std::vector<u16>{1, 2}));
  // The wildcard's label becomes highest priority.
  rig.prio[2] = 1;
  rig.trie->refresh(SegmentPrefix::make(0, 0), rig.log);
  EXPECT_EQ(rig.lookup(0xAB42), (std::vector<u16>{2, 1}));
}

TEST(Mbt, DuplicateInsertAndUnknownRemoveThrow) {
  Rig rig;
  rig.insert(0x1200, 8, 1, 0);
  EXPECT_THROW(
      rig.trie->insert(SegmentPrefix::make(0x1200, 8), Label{9}, rig.log),
      InternalError);
  EXPECT_THROW(rig.trie->remove(SegmentPrefix::make(0x3400, 8), rig.log),
               InternalError);
}

TEST(Mbt, ClearEmptiesEverything) {
  Rig rig;
  rig.insert(0xABCD, 16, 1, 0);
  rig.insert(0, 0, 2, 1);
  rig.trie->clear(rig.log);
  EXPECT_TRUE(rig.lookup(0xABCD).empty());
  EXPECT_EQ(rig.lists.live_words(), 0u);
  EXPECT_EQ(rig.trie->prefix_count(), 0u);
  // Reusable after clear.
  rig.insert(0xABCD, 16, 3, 0);
  EXPECT_EQ(rig.lookup(0xABCD), std::vector<u16>{3});
}

TEST(Mbt, ConfigValidation) {
  LabelListStore lists("l", 64, kIpLabelBits);
  auto cb = [](Label) { return Priority{0}; };
  MbtConfig bad1;
  bad1.strides = {5, 5, 5};  // sums to 15
  EXPECT_THROW(MultiBitTrie("t", bad1, lists, cb), ConfigError);
  MbtConfig bad2;
  bad2.level_capacity = {1, 2};  // size mismatch
  EXPECT_THROW(MultiBitTrie("t", bad2, lists, cb), ConfigError);
  MbtConfig ok;
  EXPECT_THROW(MultiBitTrie("t", ok, lists, nullptr), ConfigError);
}

TEST(Mbt, CapacityErrorWhenPoolExhausted) {
  MbtConfig tiny;
  tiny.level_capacity = {1, 1, 1};
  Rig rig(tiny);
  rig.insert(0x0100, 16, 1, 0);  // uses the single L1+L2 node chain
  // A 16-bit prefix under a different root entry needs a second L1 node.
  EXPECT_THROW(rig.insert(0xFF00, 16, 2, 0), CapacityError);
}

TEST(Mbt, MemoryAccounting) {
  Rig rig;
  EXPECT_GT(rig.trie->capacity_bits(), 0u);
  const u64 empty_bits = rig.trie->live_node_bits();
  rig.insert(0xABCD, 16, 1, 0);
  EXPECT_GT(rig.trie->live_node_bits(), empty_bits);
  EXPECT_LE(rig.trie->live_node_bits(), rig.trie->capacity_bits());
}

TEST(Mbt, NewNodesAreNotWritten) {
  // A /16 under an empty root needs a level-1 and a level-2 node. Their
  // entries inherit (null pointer), so the add writes the two
  // child-pointer entries and the anchor entry — not both nodes in full.
  Rig rig;
  rig.insert(0xABCD, 16, 1, 0);
  EXPECT_EQ(rig.trie->node_count(1), 1u);
  EXPECT_EQ(rig.trie->node_count(2), 1u);
  EXPECT_EQ(rig.trie->level_memory(0).stats().writes, 1u);
  EXPECT_EQ(rig.trie->level_memory(1).stats().writes, 1u);
  EXPECT_EQ(rig.trie->level_memory(2).stats().writes, 1u);
  EXPECT_EQ(rig.lookup(0xABCD), std::vector<u16>{1});
  EXPECT_TRUE(rig.lookup(0xABCC).empty());

  // A short prefix above it rewrites only its own anchor entry: the
  // entries below inherit the new list without a write, and the /16
  // entry (own coverage) moves to the longer list.
  const u64 before = rig.node_writes();
  rig.insert(0xA800, 5, 2, 1);
  EXPECT_EQ(rig.node_writes() - before, 2u);
  EXPECT_EQ(rig.lookup(0xABCD), (std::vector<u16>{1, 2}));
  EXPECT_EQ(rig.lookup(0xABCC), std::vector<u16>{2});
  EXPECT_EQ(rig.lookup(0xAF00), std::vector<u16>{2});
}

TEST(Mbt, PrunedNodeWordsReadZero) {
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);   // level-1 node under root entry 21
  rig.insert(0xABCD, 16, 2, 2);  // level-2 node 0 under it
  rig.remove(0xABCD, 16);
  ASSERT_EQ(rig.trie->node_count(2), 0u);
  const hw::Memory& l2 = rig.trie->level_memory(2);
  for (u32 a = 0; a < 64; ++a) {
    EXPECT_EQ(l2.read(a, nullptr), hw::Word{}) << "level-2 word " << a;
  }
  rig.remove(0xAB00, 8);
  ASSERT_EQ(rig.trie->node_count(1), 0u);
  const hw::Memory& l1 = rig.trie->level_memory(1);
  for (u32 a = 0; a < 32; ++a) {
    EXPECT_EQ(l1.read(a, nullptr), hw::Word{}) << "level-1 word " << a;
  }
  // The clean slots are reused without rewriting them.
  const u64 before = rig.node_writes();
  rig.insert(0xABCD, 16, 3, 0);
  EXPECT_EQ(rig.node_writes() - before, 3u);
  EXPECT_EQ(rig.lookup(0xABCD), std::vector<u16>{3});
}

TEST(Mbt, ClearedSlotsAreRewrittenOnReuse) {
  // clear() frees nodes without wiping their words; the next node placed
  // in such a slot must overwrite every entry.
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);
  rig.insert(0xABCD, 16, 2, 2);
  rig.trie->clear(rig.log);
  u64 w0 = rig.trie->level_memory(0).stats().writes;
  u64 w1 = rig.trie->level_memory(1).stats().writes;
  u64 w2 = rig.trie->level_memory(2).stats().writes;
  rig.insert(0x1234, 16, 3, 0);  // reuses level-1 slot 0, level-2 slot 0
  EXPECT_EQ(rig.trie->level_memory(0).stats().writes - w0, 1u);
  EXPECT_EQ(rig.trie->level_memory(1).stats().writes - w1, 32u + 1u);
  EXPECT_EQ(rig.trie->level_memory(2).stats().writes - w2, 64u + 1u);
  for (u32 k = 0; k <= 0xFFFF; ++k) {
    const auto got = rig.lookup(static_cast<u16>(k));
    ASSERT_EQ(got, k == 0x1234 ? std::vector<u16>{3} : std::vector<u16>{})
        << "key=" << k;
  }
  // Once rewritten and pruned clean, a slot is reused for free again.
  rig.remove(0x1234, 16);
  w1 = rig.trie->level_memory(1).stats().writes;
  w2 = rig.trie->level_memory(2).stats().writes;
  rig.insert(0x1234, 16, 4, 0);
  EXPECT_EQ(rig.trie->level_memory(1).stats().writes - w1, 1u);
  EXPECT_EQ(rig.trie->level_memory(2).stats().writes - w2, 1u);
}

TEST(Mbt, UpdateCommandsAreLocal) {
  // A host (/16) insert under an existing subtree must touch only the
  // covered entries, not the whole trie.
  Rig rig;
  rig.insert(0xAB00, 8, 1, 1);
  const usize before = rig.log.size();
  rig.insert(0xABCD, 16, 2, 2);  // creates one L3 node + 1 entry update
  const usize delta = rig.log.size() - before;
  // L3 node init (64 entries) + parent pointer + covered entry + lists.
  EXPECT_LE(delta, 64u + 8u + 4u);
}

// ---- Property sweep: random prefix sets vs the oracle ----

class MbtProperty : public ::testing::TestWithParam<u64> {};

TEST_P(MbtProperty, MatchesCoveringOracleWithChurn) {
  Rng rng(GetParam());
  Rig rig;
  Oracle oracle;
  u16 next_label = 0;

  // Random inserts with occasional removals.
  for (int step = 0; step < 120; ++step) {
    if (!oracle.entries.empty() && rng.chance(0.25)) {
      const usize idx = rng.below(oracle.entries.size());
      rig.trie->remove(oracle.entries[idx].p, rig.log);
      oracle.entries.erase(oracle.entries.begin() +
                           static_cast<i64>(idx));
      continue;
    }
    const u8 len = static_cast<u8>(rng.below(17));
    const auto p =
        SegmentPrefix::make(static_cast<u16>(rng.next()), len);
    bool dup = false;
    for (const auto& e : oracle.entries) {
      dup |= e.p == p;
    }
    if (dup) continue;
    const u16 label = next_label++;
    const Priority prio = static_cast<Priority>(rng.below(50));
    rig.insert(p.value, p.length, label, prio);
    oracle.entries.push_back({p, label, prio});
  }

  // Probe random keys plus every prefix boundary.
  std::vector<u16> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(static_cast<u16>(rng.next()));
  }
  for (const auto& e : oracle.entries) {
    keys.push_back(e.p.value);
    keys.push_back(static_cast<u16>(
        e.p.value | mask_low(16u - e.p.length)));
  }
  for (u16 k : keys) {
    EXPECT_EQ(rig.lookup(k), oracle.lookup(k)) << "key=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbtProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- Exhaustive: every key after insert/remove/refresh churn ----

class MbtChurnExhaustive : public ::testing::TestWithParam<u64> {};

TEST_P(MbtChurnExhaustive, EveryKeyMatchesReference) {
  Rng rng(GetParam());
  Rig rig;
  Oracle oracle;
  u16 next_label = 0;
  for (int step = 0; step < 400; ++step) {
    const double roll = rng.uniform();
    if (!oracle.entries.empty() && roll < 0.25) {
      const usize idx = rng.below(oracle.entries.size());
      rig.trie->remove(oracle.entries[idx].p, rig.log);
      oracle.entries.erase(oracle.entries.begin() + static_cast<i64>(idx));
      continue;
    }
    if (!oracle.entries.empty() && roll < 0.40) {
      // A label's best priority moved (a rule sharing it came or went).
      Oracle::Entry& e = oracle.entries[rng.below(oracle.entries.size())];
      e.prio = static_cast<Priority>(rng.below(50));
      rig.prio[e.label] = e.prio;
      rig.trie->refresh(e.p, rig.log);
      continue;
    }
    // Short prefixes are rarer so most keys stay covered by few lists.
    const u8 len = static_cast<u8>(rng.chance(0.2) ? rng.below(17)
                                                   : 6 + rng.below(11));
    const auto p = SegmentPrefix::make(static_cast<u16>(rng.next()), len);
    bool dup = false;
    for (const auto& e : oracle.entries) dup |= e.p == p;
    if (dup) continue;
    const u16 label = next_label++;
    const Priority prio = static_cast<Priority>(rng.below(50));
    rig.insert(p.value, p.length, label, prio);
    oracle.entries.push_back({p, label, prio});
  }

  for (u32 k = 0; k <= 0xFFFF; ++k) {
    ASSERT_EQ(rig.lookup(static_cast<u16>(k)),
              oracle.lookup(static_cast<u16>(k)))
        << "key=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbtChurnExhaustive,
                         ::testing::Values(11, 12, 13));

// ---- Backend switches leave dirty MBT slots behind ----

TEST(MbtSwitch, ChurnAfterSwitchesMatchesLinearSearch) {
  const ruleset::RuleSet rs =
      ruleset::make_classbench_like(ruleset::FilterType::kFw, 1000, 5);
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(rs.size());
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  ASSERT_TRUE(cfg.share_ip_memory);  // level 1 is the Fig. 5 shared block
  core::ConfigurableClassifier clf(cfg);
  const auto trace =
      ruleset::TraceGenerator(rs, {.headers = 600, .seed = 9}).generate();

  std::map<u32, ruleset::Rule> live;
  usize next = 0;
  Rng rng(21);
  auto add_some = [&](usize n) {
    for (usize i = 0; i < n && next < rs.size(); ++i, ++next) {
      clf.add_rule(rs[next]);
      live.emplace(rs[next].id.value, rs[next]);
    }
  };
  auto remove_some = [&](usize n) {
    for (usize i = 0; i < n && !live.empty(); ++i) {
      auto it = live.begin();
      std::advance(it, static_cast<i64>(rng.below(live.size())));
      clf.remove_rule(it->second.id);
      live.erase(it);
    }
  };
  auto verify = [&](const char* stage) {
    ruleset::RuleSet set("live");
    for (const auto& [id, r] : live) set.add_verbatim(r);
    baseline::LinearSearch oracle(set);
    for (const auto& e : trace) {
      const auto got = clf.classify(e.header);
      const auto* want = oracle.classify(e.header, nullptr);
      ASSERT_EQ(got.match.has_value(), want != nullptr) << stage;
      if (want != nullptr) {
        ASSERT_EQ(got.match->rule, want->id) << stage;
      }
    }
  };

  add_some(400);
  verify("installed");
  for (const auto other : {core::IpAlgorithm::kBst, core::IpAlgorithm::kRvh}) {
    clf.set_ip_algorithm(other);
    remove_some(60);
    add_some(60);
    clf.set_ip_algorithm(core::IpAlgorithm::kMbt);
    verify("switched back");
    remove_some(120);
    add_some(80);
    verify("churn after switch");
  }
}
