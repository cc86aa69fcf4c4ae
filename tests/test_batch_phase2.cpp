// Batch-vs-scalar equivalence for the phase-2 lookup engine.
//
// The contract under test (see ClassifyResult's doc comment):
//   * phase-2 results (match/priority/probes) and per-packet
//     memory_accesses are identical to the scalar path — always;
//   * with the probe memo off, per-packet cycles are identical too;
//   * with the probe memo on, cycles are <= the scalar path's;
//   * both agree with the baseline::LinearSearch oracle (CrossProduct);
// across every workload family, both IP engines, both combine modes and
// batch sizes straddling the default capacity.
//
// Plus per-structure checks: each lookup_batch_into variant replays the
// scalar lookup's result and modeled cost for random (duplicate-heavy)
// key sequences.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <vector>

#include "alg/batch_keys.hpp"
#include "alg/multibit_trie.hpp"
#include "baseline/linear_search.hpp"
#include "common/random.hpp"
#include "core/classifier.hpp"
#include "dataplane/rule_program.hpp"
#include "sdn/flow_mod.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;

namespace {

constexpr usize kBatchSizes[] = {1, 31, 32, 33, 256};

struct ScalarRef {
  std::vector<core::ClassifyResult> results;
};

std::vector<net::FiveTuple> headers_of(const net::Trace& trace) {
  std::vector<net::FiveTuple> h;
  h.reserve(trace.size());
  for (const auto& e : trace) h.push_back(e.header);
  return h;
}

ScalarRef scalar_reference(const core::ConfigurableClassifier& clf,
                           std::span<const net::FiveTuple> in) {
  ScalarRef ref;
  ref.results.reserve(in.size());
  for (const auto& t : in) ref.results.push_back(clf.classify(t));
  return ref;
}

void run_batched(const core::ConfigurableClassifier& clf,
                 std::span<const net::FiveTuple> in, usize batch,
                 std::vector<core::ClassifyResult>& out) {
  out.assign(in.size(), {});
  core::BatchScratch scratch;
  for (usize off = 0; off < in.size(); off += batch) {
    const usize len = std::min(batch, in.size() - off);
    clf.classify_batch(in.subspan(off, len),
                       std::span(out).subspan(off, len), scratch);
  }
}

void expect_verdicts_equal(const core::ClassifyResult& got,
                           const core::ClassifyResult& want, usize i) {
  ASSERT_EQ(got.match.has_value(), want.match.has_value()) << "packet " << i;
  if (got.match) {
    EXPECT_EQ(got.match->rule, want.match->rule) << "packet " << i;
    EXPECT_EQ(got.match->priority, want.match->priority) << "packet " << i;
    EXPECT_EQ(got.match->action, want.match->action) << "packet " << i;
  }
  EXPECT_EQ(got.crossproduct_probes, want.crossproduct_probes)
      << "packet " << i;
  EXPECT_EQ(got.memory_accesses, want.memory_accesses) << "packet " << i;
}

/// The full matrix for one device configuration + workload.
void check_equivalence(core::ClassifierConfig cfg,
                       const ruleset::RuleSet& rules,
                       std::span<const net::FiveTuple> in) {
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);
  const ScalarRef ref = scalar_reference(clf, in);

  const baseline::LinearSearch oracle(rules);
  if (cfg.combine_mode == core::CombineMode::kCrossProduct) {
    for (usize i = 0; i < in.size(); ++i) {
      const ruleset::Rule* want = oracle.classify(in[i], nullptr);
      ASSERT_EQ(ref.results[i].match.has_value(), want != nullptr)
          << "scalar vs oracle, packet " << i;
      if (want != nullptr) {
        EXPECT_EQ(ref.results[i].match->rule, want->id);
      }
    }
  }

  std::vector<core::ClassifyResult> out;
  for (const usize batch : kBatchSizes) {
    // Memo off: bit-exact replay of the scalar cost model.
    clf.set_batch_path_policy(cfg.batch_path_policy);
    clf.set_batch_probe_memo(false);
    run_batched(clf, in, batch, out);
    for (usize i = 0; i < in.size(); ++i) {
      expect_verdicts_equal(out[i], ref.results[i], i);
      EXPECT_EQ(out[i].cycles, ref.results[i].cycles)
          << "memo off, batch " << batch << ", packet " << i;
      EXPECT_EQ(out[i].memo_hits, 0u);
    }

    // Memo on: identical verdicts and accesses, cycles never higher.
    clf.set_batch_probe_memo(true);
    run_batched(clf, in, batch, out);
    for (usize i = 0; i < in.size(); ++i) {
      expect_verdicts_equal(out[i], ref.results[i], i);
      EXPECT_LE(out[i].cycles, ref.results[i].cycles)
          << "memo on, batch " << batch << ", packet " << i;
    }

    // Forced scalar loop: trivially the scalar path.
    clf.set_batch_path_policy(core::PathPolicy::kForceScalarLoop);
    run_batched(clf, in, batch, out);
    for (usize i = 0; i < in.size(); ++i) {
      expect_verdicts_equal(out[i], ref.results[i], i);
      EXPECT_EQ(out[i].cycles, ref.results[i].cycles);
    }
  }
}

struct FamilyCase {
  const char* family;
  core::IpAlgorithm alg;
  core::CombineMode mode;
};

class BatchPhase2 : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(BatchPhase2, MatchesScalarAndOracle) {
  const FamilyCase& fc = GetParam();
  const ruleset::RuleSet rules = workload::synthesize(
      workload::RulesetProfile::by_family(fc.family, 200, 77));
  workload::TraceSynthesizer ts(
      rules, workload::TraceProfile::standard(1200, 77 ^ 0xABCD));
  const net::Trace trace = ts.generate();
  const auto in = headers_of(trace);

  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
  cfg.ip_algorithm = fc.alg;
  cfg.combine_mode = fc.mode;
  check_equivalence(cfg, rules, in);
}

INSTANTIATE_TEST_SUITE_P(
    Families, BatchPhase2,
    ::testing::Values(
        FamilyCase{"acl", core::IpAlgorithm::kMbt,
                   core::CombineMode::kCrossProduct},
        FamilyCase{"fw", core::IpAlgorithm::kMbt,
                   core::CombineMode::kCrossProduct},
        FamilyCase{"ipc", core::IpAlgorithm::kMbt,
                   core::CombineMode::kCrossProduct},
        FamilyCase{"acl", core::IpAlgorithm::kBst,
                   core::CombineMode::kCrossProduct},
        FamilyCase{"fw", core::IpAlgorithm::kBst,
                   core::CombineMode::kCrossProduct},
        FamilyCase{"acl", core::IpAlgorithm::kMbt,
                   core::CombineMode::kFirstLabel},
        FamilyCase{"fw", core::IpAlgorithm::kMbt,
                   core::CombineMode::kFirstLabel}),
    [](const auto& info) {
      const FamilyCase& fc = info.param;
      return std::string(fc.family) + "_" +
             (fc.alg == core::IpAlgorithm::kMbt ? "mbt" : "bst") + "_" +
             (fc.mode == core::CombineMode::kCrossProduct ? "cross"
                                                          : "first");
    });

// Adversarial trace shapes: depth-heavy and thrash-heavy key patterns
// stress the MBT path cache and the adaptive gates respectively.
TEST(BatchPhase2, AdversarialTraces) {
  const ruleset::RuleSet rules = workload::synthesize(
      workload::RulesetProfile::acl(200, 99));
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
  cfg.combine_mode = core::CombineMode::kCrossProduct;

  const net::Trace depth = workload::make_trie_depth_trace(rules, 800, 13);
  check_equivalence(cfg, rules, headers_of(depth));

  const net::Trace thrash =
      workload::make_cache_thrash_trace(rules, 800, 512, 13);
  check_equivalence(cfg, rules, headers_of(thrash));
}

// Controller-forced-path matrix: every PathPolicy x memo eligibility
// combination must reproduce the scalar verdicts and per-packet
// accesses; cycles stay exact whenever the memo cannot
// engage and never exceed scalar when it can.
TEST(BatchPhase2, ControllerForcedPathMatrix) {
  const ruleset::RuleSet rules = workload::synthesize(
      workload::RulesetProfile::fw(150, 31));
  workload::TraceSynthesizer ts(
      rules, workload::TraceProfile::standard(900, 31 ^ 0xABCD));
  const auto in = headers_of(ts.generate());

  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);
  const ScalarRef ref = scalar_reference(clf, in);

  std::vector<core::ClassifyResult> out;
  for (const core::PathPolicy policy :
       {core::PathPolicy::kAdaptive, core::PathPolicy::kForcePhase2,
        core::PathPolicy::kForceScalarLoop}) {
    for (const bool memo : {false, true}) {
      clf.set_batch_path_policy(policy);
      clf.set_batch_probe_memo(memo);
      run_batched(clf, in, 32, out);
      const bool memo_can_engage =
          memo && policy != core::PathPolicy::kForceScalarLoop;
      for (usize i = 0; i < in.size(); ++i) {
        expect_verdicts_equal(out[i], ref.results[i], i);
        if (memo_can_engage) {
          EXPECT_LE(out[i].cycles, ref.results[i].cycles)
              << "policy " << to_string(policy) << ", packet " << i;
        } else {
          EXPECT_EQ(out[i].cycles, ref.results[i].cycles)
              << "policy " << to_string(policy) << ", packet " << i;
          EXPECT_EQ(out[i].memo_hits, 0u);
        }
      }
    }
  }
}

// Every classify_batch() call that carries a header counts on exactly
// one path, whatever its size: a one-header batch is a scalar-loop batch
// (untimed, so it never enters the cost fit), an empty call counts on
// none.
TEST(BatchPhase2, PathCountersCountEveryNonEmptyBatch) {
  const ruleset::RuleSet rules = workload::synthesize(
      workload::RulesetProfile::acl(120, 5));
  workload::TraceSynthesizer ts(
      rules, workload::TraceProfile::standard(200, 5 ^ 0x77));
  const auto in = headers_of(ts.generate());

  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);

  for (const core::PathPolicy policy :
       {core::PathPolicy::kAdaptive, core::PathPolicy::kForcePhase2,
        core::PathPolicy::kForceScalarLoop}) {
    clf.set_batch_path_policy(policy);
    core::BatchScratch scratch;
    std::vector<core::ClassifyResult> out(in.size());
    u64 non_empty_calls = 0;
    u64 one_header_calls = 0;
    usize off = 0;
    for (const usize len : {0u, 1u, 1u, 32u, 0u, 1u, 7u, 1u, 64u, 1u}) {
      clf.classify_batch(std::span(in).subspan(off, len),
                         std::span(out).subspan(off, len), scratch);
      off += len;
      non_empty_calls += len > 0;
      one_header_calls += len == 1;
    }
    u64 counted = 0;
    for (usize p = 0; p < core::kNumBatchPaths; ++p) {
      counted += scratch.controller.batches(static_cast<core::BatchPath>(p));
    }
    EXPECT_EQ(counted, non_empty_calls) << to_string(policy);
    EXPECT_GE(scratch.controller.batches(core::BatchPath::kScalarLoop),
              one_header_calls)
        << to_string(policy);
    if (policy == core::PathPolicy::kForcePhase2) {
      // Only the one-header batches took the scalar loop, and none of
      // them fed the fit.
      EXPECT_EQ(scratch.controller.batches(core::BatchPath::kScalarLoop),
                one_header_calls);
      EXPECT_EQ(
          scratch.controller.observations(core::BatchPath::kScalarLoop), 0u);
    }
  }
}

// The persistent memo must compound across batches of an unchanged
// device: classifying the same flow-heavy trace twice with one scratch,
// the second pass (memo warm from the first) serves strictly more memo
// hits than the first while staying verdict/access-identical to scalar.
TEST(BatchPhase2, PersistentMemoCompoundsAcrossBatches) {
  const ruleset::RuleSet rules = workload::synthesize(
      workload::RulesetProfile::fw(150, 47));
  workload::TraceSynthesizer ts(
      rules, workload::TraceProfile::zipf_heavy(600, 47 ^ 0x21BF));
  const auto in = headers_of(ts.generate());

  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  cfg.batch_path_policy = core::PathPolicy::kForcePhase2;
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);
  const ScalarRef ref = scalar_reference(clf, in);

  core::BatchScratch scratch;
  std::vector<core::ClassifyResult> out(in.size());
  auto pass = [&] {
    u64 hits = 0;
    for (usize off = 0; off < in.size(); off += 32) {
      const usize len = std::min<usize>(32, in.size() - off);
      clf.classify_batch(std::span(in).subspan(off, len),
                         std::span(out).subspan(off, len), scratch);
    }
    for (usize i = 0; i < in.size(); ++i) {
      expect_verdicts_equal(out[i], ref.results[i], i);
      EXPECT_LE(out[i].cycles, ref.results[i].cycles);
      hits += out[i].memo_hits;
    }
    return hits;
  };
  const u64 first = pass();
  const u64 second = pass();
  EXPECT_GT(second, first)
      << "a warm persistent memo must serve more hits than a cold one";
  // One bind at first use; never again while the device is unchanged.
  EXPECT_EQ(scratch.memo_invalidations, 1u);
}

// Stale entries must never serve across an in-place device update: the
// memo is warmed, the rule a hot flow matches is removed (then a new
// one added), and the same headers are re-classified with the same
// scratch — verdicts must match a fresh scalar reference of the
// *mutated* device, not the cached ones.
TEST(BatchPhase2, PersistentMemoInvalidatesOnInPlaceUpdate) {
  ruleset::RuleSet rules("wc");
  for (u16 i = 0; i < 8; ++i) {
    ruleset::Rule r;
    r.src_ip = ruleset::IpPrefix::make(
        (u32{10} << 24) | (u32{i} << 16), 16);
    r.proto = ruleset::ProtoMatch::exact(net::kProtoTcp);
    rules.add(r);
  }
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(64);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  cfg.batch_path_policy = core::PathPolicy::kForcePhase2;
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);

  std::vector<net::FiveTuple> in;
  for (u16 k = 0; k < 64; ++k) {
    net::FiveTuple t;
    t.src_ip = (u32{10} << 24) | ((u32{k} % 8) << 16) | k;
    t.dst_ip = 0xC0A80001;
    t.src_port = 1000;
    t.dst_port = 80;
    t.protocol = net::kProtoTcp;
    in.push_back(t);
  }
  core::BatchScratch scratch;
  std::vector<core::ClassifyResult> out(in.size());

  auto classify_and_check = [&] {
    clf.classify_batch(in, out, scratch);
    const ScalarRef ref = scalar_reference(clf, in);
    for (usize i = 0; i < in.size(); ++i) {
      expect_verdicts_equal(out[i], ref.results[i], i);
    }
  };
  classify_and_check();  // warm the memo on rules that will disappear
  const auto victim = clf.installed_rules().front();
  clf.remove_rule(victim.id);
  classify_and_check();  // cached match for the removed rule must not serve
  ruleset::Rule back = victim;
  back.id = RuleId{500};
  back.priority = 99;
  clf.add_rule(back);
  classify_and_check();  // and the re-added rule must be visible
  // Initial bind + one invalidation per mutation (each epoch bump).
  EXPECT_EQ(scratch.memo_invalidations, 3u);
}

// The dataplane analogue: one worker scratch classifying across
// publisher snapshot swaps (A -> B -> A replica rotation). Every swap
// rebinds the memo; results always match a scalar reference taken on
// the snapshot being classified against — including when the worker
// deliberately keeps classifying an *old* acquired snapshot after a
// newer one was published.
TEST(BatchPhase2, PersistentMemoInvalidatesOnSnapshotSwap) {
  const ruleset::RuleSet rules = workload::synthesize(
      workload::RulesetProfile::acl(120, 53));
  workload::TraceSynthesizer ts(
      rules, workload::TraceProfile::zipf_heavy(256, 53 ^ 0x21BF));
  const auto in = headers_of(ts.generate());

  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  cfg.batch_path_policy = core::PathPolicy::kForcePhase2;
  dataplane::RuleProgramPublisher programs(cfg);
  programs.install_ruleset(rules);

  const workload::UpdateStorm storm =
      workload::make_update_storm(rules, 6, /*first_id=*/60'000, 77);

  core::BatchScratch scratch;
  std::vector<core::ClassifyResult> out(in.size());
  auto classify_on = [&](const dataplane::RuleProgram& snap) {
    const auto& dev = snap.classifier();
    for (usize off = 0; off < in.size(); off += 32) {
      const usize len = std::min<usize>(32, in.size() - off);
      dev.classify_batch(std::span(in).subspan(off, len),
                         std::span(out).subspan(off, len), scratch);
    }
    const ScalarRef ref = scalar_reference(dev, in);
    for (usize i = 0; i < in.size(); ++i) {
      expect_verdicts_equal(out[i], ref.results[i], i);
      EXPECT_LE(out[i].cycles, ref.results[i].cycles);
    }
  };

  classify_on(*programs.acquire());
  for (const sdn::Message& msg : storm.schedule) {
    // Hold the snapshot being retired across the swap (one-swap window:
    // holding it longer would stall the writer's grace period, which is
    // exactly the publisher's documented reader contract).
    const auto held = programs.acquire();
    programs.apply(msg);  // swap: the other replica becomes current
    classify_on(*programs.acquire());  // new replica -> memo rebinds
    classify_on(*held);  // the stale-held snapshot -> rebinds again,
                         // and must still match *its* scalar reference
  }
  // Every classify_on() call above switched devices, so each one (after
  // the first) invalidated exactly once: 1 initial + 2 per update.
  EXPECT_EQ(scratch.memo_invalidations, 1u + 2 * storm.schedule.size());
}

// Content-hash combine dedup: when every port/proto dimension is pure
// wildcard, distinct dport/sport keys map to identical one-label lists,
// so headers differing only in ports must share one combine-memo group
// (span identity would give each distinct key its own span and
// under-group). Observable directly in the scratch.
TEST(BatchPhase2, ContentHashDedupGroupsIdenticalLists) {
  ruleset::RuleSet rules("wc-ports");
  for (u16 i = 0; i < 4; ++i) {
    ruleset::Rule r;
    r.src_ip = ruleset::IpPrefix::make(
        (u32{10} << 24) | (u32{i} << 16), 16);
    rules.add(r);  // ports and protocol wildcard
  }
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(64);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  cfg.batch_path_policy = core::PathPolicy::kForcePhase2;
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);

  std::vector<net::FiveTuple> in;
  for (u16 k = 0; k < 16; ++k) {
    net::FiveTuple t;
    t.src_ip = (u32{10} << 24) | (u32{2} << 16) | 7;  // one flow's IPs
    t.dst_ip = 0xC0A80001;
    t.src_port = static_cast<u16>(1000 + 3 * k);  // 16 distinct sports
    t.dst_port = static_cast<u16>(2000 + 5 * k);  // 16 distinct dports
    t.protocol = net::kProtoTcp;
    in.push_back(t);
  }
  core::BatchScratch scratch;
  std::vector<core::ClassifyResult> out(in.size());
  clf.classify_batch(in, out, scratch);
  // All 16 packets: identical IP lists (same ips) and identical
  // *contents* of the port/proto lists (only the wildcard label), so
  // one odometer run serves the whole batch.
  EXPECT_EQ(scratch.combine_memo.size(), 1u);
  const ScalarRef ref = scalar_reference(clf, in);
  for (usize i = 0; i < in.size(); ++i) {
    expect_verdicts_equal(out[i], ref.results[i], i);
  }
}

// Per-structure contract: MultiBitTrie::lookup_batch_into replays the
// scalar lookup result + cost lane-for-lane on duplicate-heavy sorted
// key sequences (exercising both the shared-prefix reuse and the
// duplicate-run replay).
TEST(BatchPhase2, MultiBitTrieBatchMatchesScalar) {
  std::map<u16, Priority> prio;
  alg::LabelListStore lists("lists", 2048, kIpLabelBits);
  alg::MultiBitTrie trie(
      "t", alg::MbtConfig{}, lists,
      [&prio](Label l) {
        const auto it = prio.find(l.value);
        return it == prio.end() ? kNoPriority : it->second;
      });
  hw::CommandLog log;
  Rng rng(4242);
  for (u16 i = 0; i < 120; ++i) {
    const u8 len = static_cast<u8>(1 + rng.below(16));
    const u16 value =
        static_cast<u16>(rng.below(65536)) & static_cast<u16>(~0u << (16 - len));
    const u16 label = static_cast<u16>(i + 1);
    prio[label] = rng.below(1000);
    try {
      trie.insert(ruleset::SegmentPrefix::make(value, len), Label{label},
                  log);
    } catch (const InternalError&) {
      // duplicate prefix draw — skip
    }
  }

  // Duplicate-heavy key set: a few hot keys plus uniform noise.
  std::vector<alg::BatchKey> lanes;
  for (u32 slot = 0; slot < 512; ++slot) {
    const u32 key = slot % 3 == 0 ? 0xABCD
                                  : static_cast<u32>(rng.below(65536));
    lanes.push_back({key, slot});
  }
  std::vector<alg::BatchKey> sorted = lanes;
  alg::sort_batch_keys(sorted);

  std::vector<alg::ListRef> refs(lanes.size());
  std::vector<hw::CycleRecorder> recs(lanes.size());
  trie.lookup_batch_into(sorted, refs, recs);

  for (const alg::BatchKey& lane : lanes) {
    hw::CycleRecorder want_rec;
    const alg::ListRef want =
        trie.lookup(static_cast<u16>(lane.key), &want_rec);
    EXPECT_EQ(refs[lane.slot].addr, want.addr) << "key " << lane.key;
    EXPECT_EQ(recs[lane.slot].cycles(), want_rec.cycles())
        << "key " << lane.key;
    EXPECT_EQ(recs[lane.slot].memory_accesses(), want_rec.memory_accesses())
        << "key " << lane.key;
  }
}

}  // namespace
