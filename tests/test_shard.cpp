/// Tests for the RSS-style sharded runtime: steering determinism and
/// uniformity, and the sum-of-shards == engine-totals invariant —
/// including geometries where the shard count exceeds the worker count.
#include <gtest/gtest.h>

#include <vector>

#include "baseline/linear_search.hpp"
#include "common/error.hpp"
#include "dataplane/engine.hpp"
#include "dataplane/flow_steer.hpp"
#include "ruleset/generator.hpp"
#include "ruleset/trace_gen.hpp"
#include "workload/scenario.hpp"

using namespace pclass;
using namespace pclass::dataplane;

namespace {

core::ClassifierConfig exact_config(usize scale) {
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(scale);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  return cfg;
}

net::FiveTuple tuple_of(u32 a, u32 b, u16 sp, u16 dp, u8 proto) {
  net::FiveTuple t;
  t.src_ip = a;
  t.dst_ip = b;
  t.src_port = sp;
  t.dst_port = dp;
  t.protocol = proto;
  return t;
}

}  // namespace

// ---- steering hash --------------------------------------------------------

TEST(FlowSteer, SameTupleAlwaysSameShard) {
  Rng rng(7);
  for (usize nshards : {1u, 2u, 3u, 4u, 7u, 16u}) {
    for (int i = 0; i < 500; ++i) {
      const net::FiveTuple t =
          tuple_of(static_cast<u32>(rng.next()), static_cast<u32>(rng.next()),
                   static_cast<u16>(rng.next()),
                   static_cast<u16>(rng.next()),
                   rng.next() % 2 == 0 ? net::kProtoTcp : net::kProtoUdp);
      const usize s = shard_of(t, nshards);
      EXPECT_LT(s, nshards);
      EXPECT_EQ(s, shard_of(t, nshards));  // deterministic
    }
  }
}

TEST(FlowSteer, SymmetricHashSteersBothDirectionsTogether) {
  Rng rng(13);
  usize differed_asymmetric = 0;
  for (int i = 0; i < 400; ++i) {
    const net::FiveTuple fwd =
        tuple_of(static_cast<u32>(rng.next()), static_cast<u32>(rng.next()),
                 static_cast<u16>(rng.next()),
                 static_cast<u16>(rng.next()), net::kProtoTcp);
    net::FiveTuple rev = fwd;
    std::swap(rev.src_ip, rev.dst_ip);
    std::swap(rev.src_port, rev.dst_port);
    EXPECT_EQ(shard_of(fwd, 8, /*symmetric=*/true),
              shard_of(rev, 8, /*symmetric=*/true));
    if (shard_of(fwd, 8) != shard_of(rev, 8)) ++differed_asymmetric;
  }
  // The plain hash must NOT be accidentally symmetric (that would hide
  // a broken canonicalization path): most reversed flows land elsewhere.
  EXPECT_GT(differed_asymmetric, 200u);
}

TEST(FlowSteer, ShardHistogramRoughlyUniformOverFlows) {
  // Steering is per-flow, so uniformity is a property of distinct
  // tuples (packet counts follow flow popularity, which may be skewed).
  Rng rng(2026);
  constexpr usize kShards = 4;
  constexpr usize kFlows = 8000;
  std::array<usize, kShards> hist{};
  for (usize i = 0; i < kFlows; ++i) {
    const net::FiveTuple t =
        tuple_of(static_cast<u32>(rng.next()), static_cast<u32>(rng.next()),
                 static_cast<u16>(rng.next()),
                 static_cast<u16>(rng.next()), net::kProtoTcp);
    ++hist[shard_of(t, kShards)];
  }
  // Expected 2000 per shard; a mix64 avalanche keeps every bucket well
  // within +/- 20% at this sample size.
  for (usize s = 0; s < kShards; ++s) {
    EXPECT_GT(hist[s], kFlows / kShards * 8 / 10) << "shard " << s;
    EXPECT_LT(hist[s], kFlows / kShards * 12 / 10) << "shard " << s;
  }
}

TEST(FlowSteer, SteerSplitPreservesEveryEntryOnItsHashedShard) {
  auto rules = ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);
  ruleset::TraceGenerator tg(rules, {.headers = 3000, .seed = 9});
  const net::Trace trace = tg.generate();
  TrafficPool pool = TrafficPool::from_trace(trace, /*materialize=*/false);

  const std::vector<TrafficPool> parts = steer_split(pool, 4);
  ASSERT_EQ(parts.size(), 4u);
  usize total = 0;
  for (usize s = 0; s < parts.size(); ++s) {
    total += parts[s].size();
    for (const net::FiveTuple& t : parts[s].tuples()) {
      EXPECT_EQ(shard_of(t, 4), s);
    }
  }
  EXPECT_EQ(total, trace.size());
  EXPECT_THROW((void)steer_split(pool, 0), ConfigError);
}

// ---- sharded engine -------------------------------------------------------

TEST(ReplicaEngine, SumOfShardsEqualsEngineTotals) {
  auto rules = ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);
  ruleset::TraceGenerator tg(rules, {.headers = 4000, .seed = 17});
  const net::Trace trace = tg.generate();
  RuleProgramPublisher programs(exact_config(rules.size()));
  programs.install_ruleset(rules);

  // Unsharded reference for the verdict totals.
  baseline::LinearSearch oracle(rules);
  usize want_matched = 0;
  for (const auto& e : trace) {
    if (oracle.classify(e.header, nullptr) != nullptr) ++want_matched;
  }

  // Deliberately more shards than workers: shard 3 rides on thread 0.
  TrafficPool pool = TrafficPool::from_trace(trace, /*materialize=*/false);
  Engine engine({.workers = 3,
                 .batch_size = 32,
                 .flow_cache_depth = 256,
                 .shards = 4},
                programs);
  const EngineReport rep = engine.run(pool);

  ASSERT_TRUE(rep.first_error().empty()) << rep.first_error();
  ASSERT_EQ(rep.workers.size(), 3u);  // per-thread merged rows
  ASSERT_EQ(rep.shards.size(), 4u);   // raw per-shard rows
  EXPECT_EQ(rep.packets(), trace.size());
  EXPECT_EQ(rep.matched(), want_matched);

  u64 sp = 0, sm = 0, sb = 0, sl = 0, sc = 0, sd = 0;
  u64 wp = 0, wm = 0, wb = 0, wl = 0, wc = 0, wd = 0;
  for (const WorkerReport& s : rep.shards) {
    sp += s.packets;
    sm += s.matched;
    sb += s.batches;
    sl += s.classifier_lookups;
    sc += s.cache_hits;
    sd += s.dropped;
  }
  for (const WorkerReport& w : rep.workers) {
    wp += w.packets;
    wm += w.matched;
    wb += w.batches;
    wl += w.classifier_lookups;
    wc += w.cache_hits;
    wd += w.dropped;
  }
  EXPECT_EQ(sp, wp);
  EXPECT_EQ(sm, wm);
  EXPECT_EQ(sb, wb);
  EXPECT_EQ(sl, wl);
  EXPECT_EQ(sc, wc);
  EXPECT_EQ(sd, wd);
  EXPECT_EQ(sp, trace.size());

  // The steering invariant end-to-end: merged latency count == packets.
  EXPECT_EQ(rep.merged_latency().count(), trace.size());
}

TEST(ReplicaEngine, CaptureStreamsHonorSteering) {
  auto rules = ruleset::make_classbench_like(ruleset::FilterType::kAcl, 1000);
  ruleset::TraceGenerator tg(rules, {.headers = 1500, .seed = 23});
  const net::Trace trace = tg.generate();
  RuleProgramPublisher programs(exact_config(rules.size()));
  programs.install_ruleset(rules);

  TrafficPool pool = TrafficPool::from_trace(trace, /*materialize=*/false);
  Engine engine({.workers = 2,
                 .batch_size = 16,
                 .telemetry = false,
                 .shards = 4,
                 .capture_verdicts = true},
                programs);
  const EngineReport rep = engine.run(pool);
  ASSERT_EQ(rep.captured.size(), 4u);
  usize total = 0;
  for (usize s = 0; s < rep.captured.size(); ++s) {
    total += rep.captured[s].size();
    for (const CapturedVerdict& cv : rep.captured[s]) {
      EXPECT_EQ(shard_of(cv.tuple, 4), s);
    }
  }
  EXPECT_EQ(total, trace.size());
}

// ---- ScenarioRunner geometry ----------------------------------------------

TEST(ScenarioShards, ReplicaScenarioKeepsSumOfShardsInvariant) {
  workload::ScenarioOptions opts;
  opts.workers = 2;
  opts.scale = 0.05;
  opts.shards = 3;  // != workers on purpose
  workload::ScenarioRunner runner(opts);
  const workload::ScenarioResult r = runner.run("acl-like");
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.shard_reports.size(), 3u);
  u64 sp = 0, sm = 0;
  for (const WorkerReport& s : r.shard_reports) {
    sp += s.packets;
    sm += s.matched;
  }
  EXPECT_EQ(sp, r.packets_processed);  // nothing double-counted
  EXPECT_EQ(sm, r.matched);
  EXPECT_EQ(r.oracle_mismatches, 0u);
}
