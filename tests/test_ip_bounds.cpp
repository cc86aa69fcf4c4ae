// Priority bounds in the IP label lists, on all three IP backends (MBT,
// BST, RVH). Every label-list word stores to_bound of its label's best
// priority when the list was written, so the phase-3 combine can cut an
// IP list's tail as it cuts the port and protocol lists.
//
//   * after every update of a seeded churn (base-rule removals and
//     re-adds at new priorities, plus an update storm's priority-0 adds
//     and their deletes), every live list's stored bounds ascend and
//     none exceeds the best priority of an installed rule holding its
//     label, and verdicts match LinearSearch;
//   * an IP bound cuts a probe: the exact probe count falls to 1, and an
//     equal bound is not cut (the lower rule id still wins);
//   * the lazy update rule: a delete that only worsens a label's best
//     priority writes no list word (the stored bound stays, stale-low),
//     and an add that improves it rewrites exactly the lists holding
//     the label.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "baseline/linear_search.hpp"
#include "common/random.hpp"
#include "core/classifier.hpp"
#include "ruleset/trace_gen.hpp"
#include "workload/profile.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;
using ruleset::IpPrefix;
using ruleset::PortRange;
using ruleset::ProtoMatch;
using ruleset::Rule;

namespace {

constexpr u8 kTcp = 6;
constexpr usize kDstIpHi = 2;  // engine-array index of dst_ip_hi

Rule make_rule(u32 id, Priority prio, PortRange sport, IpPrefix src,
               IpPrefix dst) {
  Rule r;
  r.id = RuleId{id};
  r.priority = prio;
  r.src_port = sport;
  r.dst_port = PortRange::wildcard();
  r.proto = ProtoMatch::exact(kTcp);
  r.src_ip = src;
  r.dst_ip = dst;
  r.action = ruleset::Action{id};
  return r;
}

net::FiveTuple header(u32 sip, u32 dip, u16 sport) {
  net::FiveTuple h;
  h.src_ip = sip;
  h.dst_ip = dip;
  h.src_port = sport;
  h.dst_port = 80;
  h.protocol = kTcp;
  return h;
}

core::ClassifierConfig cross_config(core::IpAlgorithm alg) {
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  cfg.ip_algorithm = alg;
  return cfg;
}

/// One live label list, read back through the uncounted peek.
struct StoredList {
  std::vector<Label> labels;
  std::vector<PriorityBound> bounds;
};

std::vector<StoredList> stored_lists(const core::ConfigurableClassifier& clf,
                                     usize ip_dim) {
  const alg::LabelListStore& store = clf.label_store(ip_dim);
  std::vector<StoredList> out;
  for (const alg::ListRef ref : store.live_lists()) {
    LabelVec labels;
    BoundVec bounds;
    store.read_bounded_into(ref, nullptr, labels, bounds);
    out.push_back({{labels.begin(), labels.end()},
                   {bounds.begin(), bounds.end()}});
  }
  return out;
}

/// Every live list's bounds ascend, and each is at most the best
/// priority of an installed rule holding its label.
void expect_sound_bounds(const core::ConfigurableClassifier& clf) {
  const std::vector<Rule> rules = clf.installed_rules();
  for (usize i = 0; i < 4; ++i) {
    std::map<u16, Priority> best;  // label -> best installed priority
    for (const Rule& r : rules) {
      const std::optional<Label> l = clf.ip_label(i, r);
      ASSERT_TRUE(l.has_value());
      const auto [it, fresh] = best.try_emplace(l->value, r.priority);
      if (!fresh) it->second = std::min(it->second, r.priority);
    }
    for (const StoredList& list : stored_lists(clf, i)) {
      for (usize j = 0; j < list.labels.size(); ++j) {
        if (j > 0) {
          ASSERT_LE(list.bounds[j - 1], list.bounds[j]) << "dim " << i;
        }
        const auto it = best.find(list.labels[j].value);
        ASSERT_NE(it, best.end()) << "dim " << i << ": dead label listed";
        ASSERT_LE(list.bounds[j], to_bound(it->second)) << "dim " << i;
      }
    }
  }
}

void expect_oracle(const core::ConfigurableClassifier& clf,
                   const std::vector<net::FiveTuple>& headers) {
  ruleset::RuleSet set;
  for (const Rule& r : clf.installed_rules()) set.add(r);
  const baseline::LinearSearch oracle(set);
  for (usize i = 0; i < headers.size(); ++i) {
    const core::ClassifyResult got = clf.classify(headers[i]);
    const Rule* want = oracle.classify(headers[i], nullptr);
    ASSERT_EQ(got.match.has_value(), want != nullptr) << "header " << i;
    if (want != nullptr) {
      ASSERT_EQ(got.match->rule, want->id) << "header " << i;
    }
  }
}

/// Label-memory words written so far, per IP dimension.
std::array<u64, 4> list_writes(const core::ConfigurableClassifier& clf) {
  std::array<u64, 4> w{};
  for (usize i = 0; i < 4; ++i) {
    w[i] = clf.label_store(i).memory().stats().writes;
  }
  return w;
}

class IpBounds : public ::testing::TestWithParam<core::IpAlgorithm> {};

}  // namespace

TEST_P(IpBounds, ChurnKeepsStoredBoundsSound) {
  const ruleset::RuleSet base =
      workload::synthesize(workload::RulesetProfile::fw(300, 41));
  const workload::UpdateStorm storm =
      workload::make_update_storm(base, 120, 1000, 7);
  ruleset::TraceOptions opts;
  opts.headers = 400;
  opts.seed = 9;
  std::vector<net::FiveTuple> headers;
  for (const auto& e : ruleset::TraceGenerator(base, opts).generate()) {
    headers.push_back(e.header);
  }

  core::ConfigurableClassifier clf(cross_config(GetParam()));
  clf.add_rules(base);
  expect_sound_bounds(clf);

  Rng rng(2026);
  std::vector<Rule> removed;
  usize next_storm = 0;
  for (int step = 0; step < 240; ++step) {
    const u64 pick = rng.below(3);
    if (pick == 0 && next_storm < storm.schedule.size()) {
      const auto& fm = std::get<sdn::FlowMod>(storm.schedule[next_storm++]);
      if (fm.command == sdn::FlowMod::Command::kAdd) {
        ASSERT_EQ(fm.match.priority, 0u);
        clf.add_rule(fm.match);
      } else {
        clf.remove_rule(fm.cookie);
      }
    } else if (pick == 1 && !removed.empty()) {
      // Re-add a removed base rule at a new priority: its labels' best
      // priorities improve or worsen.
      const usize k = rng.below(removed.size());
      Rule r = removed[k];
      removed.erase(removed.begin() + static_cast<i64>(k));
      r.priority = static_cast<Priority>(1 + rng.below(600));
      clf.add_rule(r);
    } else {
      std::vector<Rule> live;
      for (const Rule& r : clf.installed_rules()) {
        if (r.id.value < 1000) live.push_back(r);
      }
      const Rule victim = live[rng.below(live.size())];
      clf.remove_rule(victim.id);
      removed.push_back(victim);
    }
    expect_sound_bounds(clf);
    if (HasFatalFailure()) FAIL() << "step " << step;
    if (step % 40 == 39) {
      expect_oracle(clf, headers);
      if (HasFatalFailure()) FAIL() << "step " << step;
    }
  }
  EXPECT_GT(next_storm, 20u);
}

TEST_P(IpBounds, IpBoundCutsAProbe) {
  // R1 and R2 differ only in dst_ip: any vs 20.0.0.0/8. The header
  // matches both, so its dst_ip_hi list holds any (bound 10) and 20/8
  // (bound = R2's priority). When R2 is worse, R1's hit at 10 cuts
  // R2's tail unprobed; at an equal priority both are probed and the
  // lower id still wins.
  const IpPrefix src = IpPrefix::make(0x0A010203, 32);
  const net::FiveTuple h = header(0x0A010203, 0x14010101, 1000);
  for (const Priority r2_prio : {Priority{20}, Priority{10}}) {
    const Rule r1 = make_rule(1, 10, PortRange::wildcard(), src, {});
    const Rule r2 = make_rule(2, r2_prio, PortRange::wildcard(), src,
                              IpPrefix::make(0x14000000, 8));
    core::ConfigurableClassifier clf(cross_config(GetParam()));
    clf.add_rule(r1);
    clf.add_rule(r2);
    const core::ClassifyResult res = clf.classify(h);
    ASSERT_TRUE(res.match.has_value());
    EXPECT_EQ(res.match->rule, r1.id);
    EXPECT_EQ(res.filter_checks, 1u);
    EXPECT_EQ(res.crossproduct_probes, r2_prio > 10 ? 1u : 2u)
        << "R2 priority " << r2_prio;
    expect_oracle(clf, {h});
  }
}

TEST_P(IpBounds, WorsenIsFreeAndImproveRewritesTheHoldingLists) {
  // R0 holds the wildcard dst_ip at the best priority, so the
  // dst_ip_hi lists under 20/8 read [any, 20/8] whatever 20/8's best.
  const IpPrefix w = IpPrefix::make(0x0A090909, 32);
  const IpPrefix x = IpPrefix::make(0x0A010203, 32);
  const IpPrefix net20 = IpPrefix::make(0x14000000, 8);
  const Rule r0 = make_rule(10, 5, PortRange::wildcard(), w, {});
  const Rule r1 = make_rule(11, 10, PortRange::exact(1000), x, net20);
  const Rule r2 = make_rule(12, 20, PortRange::exact(2000), x, net20);
  const Rule r3 = make_rule(13, 7, PortRange::exact(3000), w, net20);
  core::ConfigurableClassifier clf(cross_config(GetParam()));
  clf.add_rule(r0);
  clf.add_rule(r1);
  clf.add_rule(r2);
  const Label l20 = *clf.ip_label(kDstIpHi, r1);
  auto bound_of_20 = [&] {
    std::vector<PriorityBound> seen;
    for (const StoredList& list : stored_lists(clf, kDstIpHi)) {
      for (usize j = 0; j < list.labels.size(); ++j) {
        if (list.labels[j] == l20) seen.push_back(list.bounds[j]);
      }
    }
    return seen;
  };
  ASSERT_FALSE(bound_of_20().empty());
  for (const PriorityBound b : bound_of_20()) EXPECT_EQ(b, 10u);

  // Deleting R1 worsens x's labels and 20/8 (10 -> 20) without
  // reordering any list: no list word is written, and 20/8 keeps its
  // stale-low bound.
  const std::array<u64, 4> before_delete = list_writes(clf);
  clf.remove_rule(r1.id);
  EXPECT_EQ(list_writes(clf), before_delete);
  for (const PriorityBound b : bound_of_20()) EXPECT_EQ(b, 10u);
  expect_sound_bounds(clf);

  // Adding R3 improves 20/8 to 7, below the stored 10: exactly the
  // lists holding 20/8 are rewritten, every word once, and nothing in
  // the other three dimensions.
  const std::array<u64, 4> before_add = list_writes(clf);
  clf.add_rule(r3);
  u64 holding_words = 0;
  for (const StoredList& list : stored_lists(clf, kDstIpHi)) {
    if (std::find(list.labels.begin(), list.labels.end(), l20) !=
        list.labels.end()) {
      holding_words += list.labels.size();
    }
  }
  const std::array<u64, 4> after_add = list_writes(clf);
  EXPECT_GT(holding_words, 0u);
  for (usize i = 0; i < 4; ++i) {
    EXPECT_EQ(after_add[i] - before_add[i], i == kDstIpHi ? holding_words : 0)
        << "dim " << i;
  }
  for (const PriorityBound b : bound_of_20()) EXPECT_EQ(b, 7u);
  expect_sound_bounds(clf);
  expect_oracle(clf, {header(0x0A090909, 0x14010101, 3000),
                      header(0x0A010203, 0x14010101, 2000),
                      header(0x0A090909, 0x15010101, 3000)});
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, IpBounds,
    ::testing::Values(core::IpAlgorithm::kMbt, core::IpAlgorithm::kBst,
                      core::IpAlgorithm::kRvh),
    [](const ::testing::TestParamInfo<core::IpAlgorithm>& info) {
      return std::string(core::to_string(info.param));
    });
