// The partial-combination filter of the phase-3 combine: one entry per
// (source port, destination port, protocol, src_ip_hi) label prefix that
// some installed rule holds, storing the prefix's best priority.
//
//   * a prefix no rule holds costs one filter check and no Rule Filter
//     probe below it;
//   * equal-priority rules on both sides of a filter cut still resolve to
//     the lower rule id;
//   * update costs are exact: a new prefix or a changed bound is one hash
//     + one write, the last rule leaving a prefix one tombstone write;
//   * after add/remove churn the filter holds exactly what a fresh device
//     built from the installed rules holds;
//   * the batch entry point issues the scalar path's probes, checks,
//     accesses and cycles;
//   * a tiny probe bound re-seeds the filter and verdicts stay exact.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "baseline/linear_search.hpp"
#include "common/random.hpp"
#include "core/classifier.hpp"
#include "ruleset/generator.hpp"
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
constexpr u8 kUdp = 17;

Rule make_rule(u32 id, Priority prio, PortRange sport, PortRange dport,
               ProtoMatch proto, IpPrefix src = {}, IpPrefix dst = {}) {
  Rule r;
  r.id = RuleId{id};
  r.priority = prio;
  r.src_port = sport;
  r.dst_port = dport;
  r.proto = proto;
  r.src_ip = src;
  r.dst_ip = dst;
  r.action = ruleset::Action{id};
  return r;
}

net::FiveTuple header(u32 sip, u32 dip, u16 sport, u16 dport, u8 proto) {
  net::FiveTuple h;
  h.src_ip = sip;
  h.dst_ip = dip;
  h.src_port = sport;
  h.dst_port = dport;
  h.protocol = proto;
  return h;
}

core::ClassifierConfig cross_config(usize max_rules = 512) {
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(max_rules);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  return cfg;
}

ruleset::RuleSet set_of(const std::vector<Rule>& rules) {
  ruleset::RuleSet set;
  for (const Rule& r : rules) set.add(r);
  return set;
}

/// Every header's verdict equals a LinearSearch built fresh from \p rules.
void expect_oracle(const core::ConfigurableClassifier& clf,
                   const std::vector<Rule>& rules,
                   std::span<const net::FiveTuple> headers) {
  const ruleset::RuleSet set = set_of(rules);
  const baseline::LinearSearch oracle(set);
  for (usize i = 0; i < headers.size(); ++i) {
    const core::ClassifyResult got = clf.classify(headers[i]);
    const Rule* want = oracle.classify(headers[i], nullptr);
    ASSERT_EQ(got.match.has_value(), want != nullptr) << "header " << i;
    if (want != nullptr) {
      EXPECT_EQ(got.match->rule, want->id) << "header " << i;
    }
  }
}

std::vector<net::FiveTuple> headers_of(const net::Trace& trace) {
  std::vector<net::FiveTuple> h;
  h.reserve(trace.size());
  for (const auto& e : trace) h.push_back(e.header);
  return h;
}

}  // namespace

// ---- lookup path ----

TEST(PartialFilter, AbsentPartialTupleIssuesNoProbesBelowIt) {
  // R1 holds (any, 80, tcp, 10.1); R2 holds (1000, 443, tcp, 11.4) and
  // gives source port 1000 the better port bound, so the walk tries
  // (1000, 80, tcp, 10.1) first. No rule holds that prefix: one check,
  // and none of the 2 IP-tail combinations below it is probed.
  const IpPrefix src = IpPrefix::make(0x0A010203, 32);
  const Rule r1 = make_rule(1, 10, PortRange::wildcard(), PortRange::exact(80),
                            ProtoMatch::exact(kTcp), src);
  const Rule r2 = make_rule(2, 5, PortRange::exact(1000),
                            PortRange::exact(443), ProtoMatch::exact(kTcp),
                            IpPrefix::make(0x0B040506, 32));
  const Rule r3 = make_rule(3, 20, PortRange::wildcard(), PortRange::exact(80),
                            ProtoMatch::exact(kTcp), src,
                            IpPrefix::make(0x14000000, 8));
  core::ConfigurableClassifier clf(cross_config());
  clf.add_rules(set_of({r1, r2, r3}));

  Rule absent = r1;
  absent.src_port = PortRange::exact(1000);
  ASSERT_FALSE(clf.partial_filter_bound(absent).has_value());
  ASSERT_EQ(clf.partial_filter_bound(r1), std::optional<PriorityBound>(10));

  const net::FiveTuple h = header(0x0A010203, 0x14010101, 1000, 80, kTcp);
  const core::ClassifyResult res = clf.classify(h);
  ASSERT_TRUE(res.match.has_value());
  EXPECT_EQ(res.match->rule, r1.id);
  EXPECT_EQ(res.filter_checks, 2u);
  // The one probe sits under the held prefix: R1's tail. R3's tail
  // follows it in the dst_ip_hi list with bound 20, worse than R1's 10,
  // so the list's bound cuts it unprobed.
  EXPECT_EQ(res.crossproduct_probes, 1u);
}

TEST(PartialFilter, EqualPriorityAcrossFilterCutResolvesToLowerId) {
  // A and B match the header at the same priority under different
  // prefixes. D gives the wildcard source port the loosest port bound
  // without matching, so only the filter's stored bound can cut the
  // second-visited prefix — and an equal bound must not.
  const IpPrefix src = IpPrefix::make(0x0A010203, 32);
  for (const bool a_lower : {true, false}) {
    for (const bool reversed : {false, true}) {
      const u32 a_id = a_lower ? 3 : 7;
      const u32 b_id = a_lower ? 7 : 3;
      const Rule a = make_rule(a_id, 5, PortRange::exact(1000),
                               PortRange::exact(80), ProtoMatch::exact(kTcp),
                               src);
      const Rule b = make_rule(b_id, 5, PortRange::wildcard(), PortRange::exact(80),
                               ProtoMatch::exact(kTcp), src);
      const Rule d = make_rule(9, 1, PortRange::wildcard(), PortRange::exact(443),
                               ProtoMatch::exact(kUdp),
                               IpPrefix::make(0x0B000000, 8));
      std::vector<Rule> order = {a, b, d};
      if (reversed) order = {d, b, a};
      core::ConfigurableClassifier clf(cross_config());
      for (const Rule& r : order) clf.add_rule(r);

      const net::FiveTuple h = header(0x0A010203, 0x01020304, 1000, 80, kTcp);
      const core::ClassifyResult res = clf.classify(h);
      ASSERT_TRUE(res.match.has_value());
      EXPECT_EQ(res.match->rule, RuleId{3})
          << "a_lower " << a_lower << ", reversed " << reversed;
      EXPECT_EQ(res.filter_checks, 2u);
      expect_oracle(clf, order, std::span(&h, 1));
    }
  }
}

// ---- update path ----

TEST(PartialFilter, UpdateCostsAreExact) {
  // Every rule below reuses labels the first three created, and R4/R6
  // are worse than every label's best priority, so the only update work
  // beyond the Rule Filter's 1 hash + 2 writes is the partial filter's.
  const PortRange s1 = PortRange::exact(1000);
  const PortRange s2 = PortRange::exact(2000);
  const PortRange d1 = PortRange::exact(80);
  const PortRange d2 = PortRange::exact(81);
  const ProtoMatch p = ProtoMatch::exact(kTcp);
  const IpPrefix x = IpPrefix::make(0x0A010203, 32);
  const IpPrefix dst1 = IpPrefix::make(0x14010203, 32);
  const IpPrefix dst2 = IpPrefix::make(0x15040506, 32);
  const IpPrefix dst3 = IpPrefix::make(0x14010506, 32);  // dst1 hi, dst2 lo
  const Rule r2 = make_rule(2, 2, s1, d2, p, x, dst2);
  const Rule r5 = make_rule(5, 3, s2, d1, p, x, dst1);
  const Rule r1 = make_rule(1, 20, s1, d1, p, x, dst1);
  const Rule r4 = make_rule(4, 10, s1, d1, p, x, dst3);
  const Rule r6 = make_rule(6, 40, s2, d2, p, x, dst2);
  const std::vector<net::FiveTuple> headers = {
      header(0x0A010203, 0x14010203, 1000, 80, kTcp),
      header(0x0A010203, 0x14010506, 1000, 80, kTcp),
      header(0x0A010203, 0x15040506, 2000, 81, kTcp),
      header(0x0A010203, 0x15040506, 1000, 81, kTcp),
      header(0x0A010203, 0x14010203, 2000, 80, kTcp),
  };

  core::ConfigurableClassifier clf(cross_config());
  core::ConfigurableClassifier twin(cross_config());
  for (const Rule& r : {r2, r5, r1}) {
    clf.add_rule(r);
    twin.add_rule(r);
  }
  ASSERT_EQ(clf.partial_filter_bound(r1), std::optional<PriorityBound>(20));

  // A better-priority add to an existing prefix: 1 hash + 1 write more
  // than its worse-priority twin, which leaves the bound alone.
  const hw::UpdateStats better = clf.add_rule(r4);
  EXPECT_EQ(better.hash_computes, 2u);
  EXPECT_EQ(better.memory_writes, 3u);
  EXPECT_EQ(better.register_writes, 0u);
  EXPECT_EQ(better.cycles, 5u);
  Rule r4_worse = r4;
  r4_worse.priority = 30;
  const hw::UpdateStats worse = twin.add_rule(r4_worse);
  EXPECT_EQ(worse.hash_computes, 1u);
  EXPECT_EQ(worse.memory_writes, 2u);
  EXPECT_EQ(worse.cycles, 3u);
  EXPECT_EQ(clf.partial_filter_bound(r1), std::optional<PriorityBound>(10));
  EXPECT_EQ(twin.partial_filter_bound(r1), std::optional<PriorityBound>(20));
  expect_oracle(clf, {r2, r5, r1, r4}, headers);

  // A new prefix: 1 hash + 1 write.
  const hw::UpdateStats fresh = clf.add_rule(r6);
  EXPECT_EQ(fresh.hash_computes, 2u);
  EXPECT_EQ(fresh.memory_writes, 3u);
  EXPECT_EQ(fresh.register_writes, 0u);
  EXPECT_EQ(fresh.cycles, 5u);
  EXPECT_EQ(clf.partial_filter_bound(r6), std::optional<PriorityBound>(40));
  EXPECT_EQ(clf.partial_filter().size(), 4u);
  expect_oracle(clf, {r2, r5, r1, r4, r6}, headers);

  // The last rule leaving a prefix: one tombstone write, no hash.
  const hw::UpdateStats last = clf.remove_rule(r6.id);
  EXPECT_EQ(last.hash_computes, 0u);
  EXPECT_EQ(last.memory_writes, 2u);
  EXPECT_EQ(last.register_writes, 0u);
  EXPECT_EQ(last.cycles, 2u);
  EXPECT_FALSE(clf.partial_filter_bound(r6).has_value());
  EXPECT_EQ(clf.partial_filter().size(), 3u);

  // The best rule leaving a shared prefix: the bound moves back, one
  // hash + one write.
  const hw::UpdateStats moved = clf.remove_rule(r4.id);
  EXPECT_EQ(moved.hash_computes, 1u);
  EXPECT_EQ(moved.memory_writes, 2u);
  EXPECT_EQ(moved.cycles, 3u);
  EXPECT_EQ(clf.partial_filter_bound(r1), std::optional<PriorityBound>(20));
  expect_oracle(clf, {r2, r5, r1}, headers);

  // A bulk install writes each entry once, at its final bound: three
  // prefixes, although R4 lowers the bound R1 set.
  core::ConfigurableClassifier bulk(cross_config());
  const hw::UpdateStats all = bulk.add_rules(set_of({r2, r5, r1, r4}));
  hw::UpdateStats singles;
  core::ConfigurableClassifier one_by_one(cross_config());
  for (const Rule& r : {r2, r5, r1, r4}) singles += one_by_one.add_rule(r);
  EXPECT_EQ(bulk.partial_filter().size(), 3u);
  EXPECT_EQ(bulk.partial_filter_bound(r1), std::optional<PriorityBound>(10));
  EXPECT_EQ(singles.hash_computes - all.hash_computes, 1u);
  EXPECT_EQ(singles.memory_writes - all.memory_writes, 1u);
}

TEST(PartialFilter, ChurnedContentsEqualAFreshDevice) {
  const ruleset::RuleSet pool =
      workload::synthesize(workload::RulesetProfile::fw(400, 5));
  core::ConfigurableClassifier clf(cross_config(pool.size()));
  std::vector<Rule> initial;
  for (usize i = 0; i < pool.size() / 2; ++i) initial.push_back(pool[i]);
  clf.add_rules(set_of(initial));
  std::vector<bool> in(pool.size(), false);
  for (usize i = 0; i < initial.size(); ++i) in[i] = true;

  Rng rng(0x5EED);
  for (int step = 0; step < 1500; ++step) {
    const usize i = rng.below(pool.size());
    if (in[i]) {
      clf.remove_rule(pool[i].id);
    } else {
      clf.add_rule(pool[i]);
    }
    in[i] = !in[i];
  }

  const std::vector<Rule> installed = clf.installed_rules();
  core::ConfigurableClassifier fresh(cross_config(pool.size()));
  fresh.add_rules(set_of(installed));

  // The expected bound of every prefix, from the field values alone.
  using Prefix = std::tuple<PortRange, PortRange, ProtoMatch,
                            ruleset::SegmentPrefix>;
  std::map<Prefix, Priority> best;
  for (const Rule& r : installed) {
    const Prefix k{r.src_port, r.dst_port, r.proto, r.src_ip.hi_segment()};
    const auto it = best.find(k);
    if (it == best.end() || r.priority < it->second) best[k] = r.priority;
  }
  EXPECT_EQ(clf.partial_filter().size(), best.size());
  EXPECT_EQ(fresh.partial_filter().size(), best.size());
  for (const Rule& r : installed) {
    const Prefix k{r.src_port, r.dst_port, r.proto, r.src_ip.hi_segment()};
    const std::optional<PriorityBound> want = to_bound(best.at(k));
    EXPECT_EQ(clf.partial_filter_bound(r), want) << "rule " << r.id.value;
    EXPECT_EQ(fresh.partial_filter_bound(r), want) << "rule " << r.id.value;
  }

  const ruleset::RuleSet live = set_of(installed);
  workload::TraceSynthesizer ts(live, workload::TraceProfile::standard(400, 9));
  expect_oracle(clf, installed, headers_of(ts.generate()));
}

// ---- batch path ----

TEST(PartialFilter, BatchMatchesScalarChecksProbesAndAccesses) {
  const ruleset::RuleSet rules =
      workload::synthesize(workload::RulesetProfile::fw(300, 41));
  core::ConfigurableClassifier clf(cross_config());
  clf.add_rules(rules);
  workload::TraceSynthesizer ts(
      rules, workload::TraceProfile::standard(1024, 41));
  const std::vector<net::FiveTuple> in = headers_of(ts.generate());

  core::BatchScratch scratch;
  std::vector<core::ClassifyResult> out(in.size());
  for (usize off = 0; off < in.size(); off += 32) {
    const usize len = std::min<usize>(32, in.size() - off);
    clf.classify_batch(std::span(in).subspan(off, len),
                       std::span(out).subspan(off, len), scratch);
  }
  u64 checks = 0;
  for (usize i = 0; i < in.size(); ++i) {
    const core::ClassifyResult ref = clf.classify(in[i]);
    checks += ref.filter_checks;
    EXPECT_EQ(out[i].match, ref.match) << "packet " << i;
    EXPECT_EQ(out[i].crossproduct_probes, ref.crossproduct_probes)
        << "packet " << i;
    EXPECT_EQ(out[i].filter_checks, ref.filter_checks) << "packet " << i;
    EXPECT_EQ(out[i].memory_accesses, ref.memory_accesses) << "packet " << i;
    EXPECT_EQ(out[i].cycles, ref.cycles) << "packet " << i;
  }
  EXPECT_GT(checks, 0u);
}

// ---- re-seed ----

TEST(PartialFilter, TinyProbeBoundReseedsAndStaysExact) {
  core::ClassifierConfig cfg = cross_config(1000);
  cfg.rule_filter_max_probes = 4;
  const core::ConfigurableClassifier untouched(cfg);
  const ruleset::RuleSet rs =
      ruleset::make_classbench_like(ruleset::FilterType::kIpc, 1000);

  core::ConfigurableClassifier one_by_one(cfg);
  for (const Rule& r : rs) one_by_one.add_rule(r);
  core::ConfigurableClassifier bulk(cfg);
  bulk.add_rules(rs);

  const std::vector<Rule> rules(rs.begin(), rs.end());
  ruleset::TraceGenerator tg(rs, {.headers = 500, .seed = 23});
  const std::vector<net::FiveTuple> headers = headers_of(tg.generate());
  for (const core::ConfigurableClassifier* clf : {&one_by_one, &bulk}) {
    EXPECT_NE(clf->partial_filter().table().seed(),
              untouched.partial_filter().table().seed());
    EXPECT_EQ(clf->rule_count(), rs.size());
    expect_oracle(*clf, rules, headers);
  }
}
