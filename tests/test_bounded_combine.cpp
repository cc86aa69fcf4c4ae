// The bounded phase-3 combine: port and protocol labels carry a
// device-resident priority bound, and the exact combine cuts every label
// combination whose bound is strictly worse than its best hit.
//
//   * tie-break: equal-priority rules found in different branches still
//     resolve to the lower rule id;
//   * update path: a label's bound is rewritten (one register write)
//     when its best priority moves, and bulk install writes each word
//     once;
//   * probes never exceed the exhaustive product of the seven label
//     list lengths, and fall below it on a firewall-shaped set;
//   * the batch entry point issues exactly the scalar path's probes,
//     accesses and cycles.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <span>
#include <vector>

#include "alg/port_registers.hpp"
#include "alg/protocol_lut.hpp"
#include "baseline/linear_search.hpp"
#include "core/classifier.hpp"
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

/// Every header's verdict equals a LinearSearch built fresh from \p rules.
void expect_oracle(const core::ConfigurableClassifier& clf,
                   const std::vector<Rule>& rules,
                   std::span<const net::FiveTuple> headers) {
  ruleset::RuleSet set;
  for (const Rule& r : rules) set.add(r);
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

/// The exhaustive combine's probe count for \p h: the product of the
/// seven label-list lengths, each the number of distinct field values
/// of \p rules matching that dimension's key.
u64 label_product(const ruleset::RuleSet& rules, const net::FiveTuple& h) {
  std::array<std::set<ruleset::SegmentPrefix>, 4> ip;
  std::set<PortRange> sport;
  std::set<PortRange> dport;
  std::set<ProtoMatch> proto;
  const std::array<Dimension, 4> ip_dims = {
      Dimension::kSrcIpHi, Dimension::kSrcIpLo, Dimension::kDstIpHi,
      Dimension::kDstIpLo};
  for (const Rule& r : rules) {
    const std::array<ruleset::SegmentPrefix, 4> segs = {
        r.src_ip.hi_segment(), r.src_ip.lo_segment(), r.dst_ip.hi_segment(),
        r.dst_ip.lo_segment()};
    for (usize i = 0; i < 4; ++i) {
      if (segs[i].matches(
              static_cast<u16>(net::dimension_key(h, ip_dims[i])))) {
        ip[i].insert(segs[i]);
      }
    }
    if (r.src_port.contains(h.src_port)) sport.insert(r.src_port);
    if (r.dst_port.contains(h.dst_port)) dport.insert(r.dst_port);
    if (r.proto.matches(h.protocol)) proto.insert(r.proto);
  }
  u64 product = u64{sport.size()} * dport.size() * proto.size();
  for (const auto& s : ip) product *= s.size();
  return product;
}

std::vector<net::FiveTuple> headers_of(const net::Trace& trace) {
  std::vector<net::FiveTuple> h;
  h.reserve(trace.size());
  for (const auto& e : trace) h.push_back(e.header);
  return h;
}

}  // namespace

// ---- the bound fields ----

TEST(BoundedCombine, PortLookupOrdersByAscendingBound) {
  alg::PortRegisterFile regs("p");
  hw::CommandLog log;
  regs.insert(PortRange::wildcard(), Label{0}, log, 3);
  regs.insert(PortRange::exact(80), Label{1}, log, 40);
  regs.insert(PortRange::make(0, 1023), Label{2}, log, 3);
  LabelVec labels;
  BoundVec bounds;
  hw::CycleRecorder rec;
  regs.lookup_bounded_into(80, &rec, labels, bounds);
  // Bound first; equal bounds keep Table IV order (tighter range first).
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0].value, 2);
  EXPECT_EQ(labels[1].value, 0);
  EXPECT_EQ(labels[2].value, 1);
  EXPECT_EQ(bounds[0], 3);
  EXPECT_EQ(bounds[2], 40);
  EXPECT_EQ(rec.cycles(), 2u);  // the same fixed parallel compare
  EXPECT_EQ(rec.memory_accesses(), 0u);
  // Table IV order is untouched for the FirstLabel winner.
  EXPECT_EQ(regs.lookup_first(80, nullptr).value, 1);

  const usize before = log.size();
  regs.set_bound(PortRange::exact(80), 1, log);
  EXPECT_EQ(log.size(), before + 1);
  labels.clear();
  bounds.clear();
  regs.lookup_bounded_into(80, nullptr, labels, bounds);
  EXPECT_EQ(labels[0].value, 1);
  EXPECT_EQ(bounds[0], 1);
}

TEST(BoundedCombine, ProtocolLookupOrdersByAscendingBound) {
  alg::ProtocolLut lut("pr");
  hw::CommandLog log;
  lut.insert(ProtoMatch::exact(kTcp), Label{1}, log, 30);
  lut.insert(ProtoMatch::any(), Label{2}, log, 4);
  LabelVec labels;
  BoundVec bounds;
  hw::CycleRecorder rec;
  lut.lookup_bounded_into(kTcp, &rec, labels, bounds);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].value, 2);  // the wildcard's bound is better
  EXPECT_EQ(bounds[0], 4);
  EXPECT_EQ(labels[1].value, 1);
  EXPECT_EQ(rec.memory_accesses(), 1u);  // still one LUT read
  EXPECT_EQ(lut.lookup_first(kTcp, nullptr).value, 1);

  lut.set_bound(ProtoMatch::exact(kTcp), 4, log);
  labels.clear();
  bounds.clear();
  lut.lookup_bounded_into(kTcp, nullptr, labels, bounds);
  EXPECT_EQ(labels[0].value, 1);  // tie: exact first
  EXPECT_EQ(bounds[0], 4);
}

TEST(BoundedCombine, BoundSaturatesAsALowerBound) {
  EXPECT_EQ(to_bound(7), 7);
  EXPECT_EQ(to_bound(0xFFFF), 0xFFFF);
  EXPECT_EQ(to_bound(0x12345), 0xFFFF);
}

// ---- exactness ----

TEST(BoundedCombine, EqualPriorityAcrossPrunedBranchesPicksLowerRuleId) {
  // A and B tie at priority 5 from different source-port branches; C and
  // D are only reachable through branches whose bound (9, 12) is worse
  // than the first hit, so the combine cuts them. Run with the lower id
  // on either side of the walk.
  for (const bool lower_id_first : {false, true}) {
    const u32 a_id = lower_id_first ? 3 : 7;
    const u32 b_id = lower_id_first ? 7 : 3;
    const std::vector<Rule> rules = {
        make_rule(a_id, 5, PortRange::exact(1000), PortRange::wildcard(),
                  ProtoMatch::any()),
        make_rule(b_id, 5, PortRange::wildcard(), PortRange::exact(80),
                  ProtoMatch::any()),
        make_rule(1, 9, PortRange::make(900, 1100), PortRange::wildcard(),
                  ProtoMatch::any()),
        make_rule(2, 12, PortRange::wildcard(), PortRange::make(0, 1000),
                  ProtoMatch::exact(kTcp)),
    };
    core::ConfigurableClassifier clf(cross_config());
    for (const Rule& r : rules) clf.add_rule(r);

    const net::FiveTuple h = header(0x0A000001, 0x14000001, 1000, 80, kTcp);
    const core::ClassifyResult res = clf.classify(h);
    ASSERT_TRUE(res.match.has_value());
    EXPECT_EQ(res.match->rule, RuleId{3});
    EXPECT_EQ(res.match->priority, 5u);
    // 3 source-port x 3 destination-port x 2 protocol labels, one label
    // per IP segment: the exhaustive combine probes 18 combinations.
    EXPECT_LT(res.crossproduct_probes, 18u);
    expect_oracle(clf, rules, std::span(&h, 1));
  }
}

// ---- update path ----

TEST(BoundedCombine, SharedPortRangeBoundRewrittenOnAddAndRemove) {
  // R1 owns source port 1000. R2 shares it with a better priority (the
  // bound moves 10 -> 5 and back); R3 is R2's twin at a worse priority
  // (the bound stays 10). All other fields are distinct, so the twins'
  // costs differ by exactly the one bound rewrite.
  const Rule r1 = make_rule(1, 10, PortRange::exact(1000),
                            PortRange::exact(80), ProtoMatch::exact(kTcp),
                            IpPrefix::make(0x0A010203, 32),
                            IpPrefix::make(0x14010203, 32));
  const Rule r2 = make_rule(2, 5, PortRange::exact(1000),
                            PortRange::exact(81), ProtoMatch::exact(kUdp),
                            IpPrefix::make(0x0B040506, 32),
                            IpPrefix::make(0x15040506, 32));
  Rule r3 = r2;
  r3.priority = 50;

  const std::vector<net::FiveTuple> headers = {
      header(0x0A010203, 0x14010203, 1000, 80, kTcp),
      header(0x0B040506, 0x15040506, 1000, 81, kUdp),
      header(0x0B040506, 0x15040506, 1000, 80, kUdp),
      header(0x0A010203, 0x14010203, 1001, 80, kTcp),
  };

  core::ConfigurableClassifier hi(cross_config());
  core::ConfigurableClassifier lo(cross_config());
  hi.add_rule(r1);
  lo.add_rule(r1);
  expect_oracle(hi, {r1}, headers);

  const hw::UpdateStats add_hi = hi.add_rule(r2);
  const hw::UpdateStats add_lo = lo.add_rule(r3);
  EXPECT_EQ(add_hi.register_writes, add_lo.register_writes + 1);
  EXPECT_EQ(add_hi.memory_writes, add_lo.memory_writes);
  EXPECT_EQ(add_hi.cycles, add_lo.cycles + 1);
  expect_oracle(hi, {r1, r2}, headers);
  expect_oracle(lo, {r1, r3}, headers);

  const hw::UpdateStats rm_hi = hi.remove_rule(r2.id);
  const hw::UpdateStats rm_lo = lo.remove_rule(r3.id);
  EXPECT_EQ(rm_hi.register_writes, rm_lo.register_writes + 1);
  EXPECT_EQ(rm_hi.memory_writes, rm_lo.memory_writes);
  expect_oracle(hi, {r1}, headers);
  expect_oracle(lo, {r1}, headers);

  // Bulk install writes each port word once, already at its final
  // bound: one register per distinct port range (1000; 80 and 81),
  // whichever rule lowers the shared bound.
  ruleset::RuleSet bulk;
  bulk.add(r1);
  bulk.add(r2);
  core::ConfigurableClassifier fresh(cross_config());
  EXPECT_EQ(fresh.add_rules(bulk).register_writes, 3u);
  expect_oracle(fresh, {r1, r2}, headers);
}

// ---- probe economy ----

TEST(BoundedCombine, ProbesNeverExceedTheLabelProductAndFallOnFw) {
  const ruleset::RuleSet rules =
      workload::synthesize(workload::RulesetProfile::fw(1500));
  core::ConfigurableClassifier clf(cross_config(rules.size() + 512));
  clf.add_rules(rules);
  const baseline::LinearSearch oracle(rules);
  const std::vector<net::FiveTuple> in = headers_of(
      workload::make_cache_thrash_trace(rules, 1500, 1500, 11));

  u64 probes = 0;
  u64 product = 0;
  for (usize i = 0; i < in.size(); ++i) {
    const core::ClassifyResult res = clf.classify(in[i]);
    const u64 bound = label_product(rules, in[i]);
    ASSERT_LE(res.crossproduct_probes, bound) << "header " << i;
    probes += res.crossproduct_probes;
    product += bound;
    const Rule* want = oracle.classify(in[i], nullptr);
    ASSERT_EQ(res.match.has_value(), want != nullptr) << "header " << i;
    if (want != nullptr) {
      ASSERT_EQ(res.match->rule, want->id) << "header " << i;
    }
  }
  EXPECT_LT(probes, product);
}

TEST(BoundedCombine, BatchMatchesScalarProbesAndAccesses) {
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
  for (usize i = 0; i < in.size(); ++i) {
    const core::ClassifyResult ref = clf.classify(in[i]);
    EXPECT_EQ(out[i].match, ref.match) << "packet " << i;
    EXPECT_EQ(out[i].crossproduct_probes, ref.crossproduct_probes)
        << "packet " << i;
    EXPECT_EQ(out[i].memory_accesses, ref.memory_accesses) << "packet " << i;
    EXPECT_EQ(out[i].cycles, ref.cycles) << "packet " << i;
  }
}
