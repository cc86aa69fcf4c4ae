// The batch entry point of phases 2-4, ConfigurableClassifier::
// classify_batch(). The contract under test (see ClassifyResult's doc
// comment): the batch is deduplicated by exact 5-tuple, classify() runs
// once per distinct tuple, and every packet's result equals scalar
// classify() field for field — verdict, cycles, memory accesses, probes
// and filter checks. Checked across every workload family, the three IP
// engines, both combine modes, batch sizes straddling the default
// capacity and the dedup table's growth, and against the
// baseline::LinearSearch oracle (CrossProduct).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <span>
#include <vector>

#include "baseline/linear_search.hpp"
#include "common/error.hpp"
#include "core/classifier.hpp"
#include "dataplane/rule_program.hpp"
#include "sdn/flow_mod.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;

namespace {

constexpr usize kBatchSizes[] = {1, 31, 32, 33, 256, 257};

std::vector<net::FiveTuple> headers_of(const net::Trace& trace) {
  std::vector<net::FiveTuple> h;
  h.reserve(trace.size());
  for (const auto& e : trace) h.push_back(e.header);
  return h;
}

/// Field-for-field equality of a batch result with the scalar one.
void expect_same(const core::ClassifyResult& got,
                 const core::ClassifyResult& want, usize i) {
  EXPECT_EQ(got.match, want.match) << "packet " << i;
  EXPECT_EQ(got.cycles, want.cycles) << "packet " << i;
  EXPECT_EQ(got.memory_accesses, want.memory_accesses) << "packet " << i;
  EXPECT_EQ(got.crossproduct_probes, want.crossproduct_probes)
      << "packet " << i;
  EXPECT_EQ(got.filter_checks, want.filter_checks) << "packet " << i;
}

/// Classify \p in in batches of \p batch through one reused scratch and
/// compare every packet with scalar classify().
void expect_batches_match_scalar(const core::ConfigurableClassifier& clf,
                                 std::span<const net::FiveTuple> in,
                                 usize batch, core::BatchScratch& scratch) {
  std::vector<core::ClassifyResult> out(in.size());
  for (usize off = 0; off < in.size(); off += batch) {
    const usize len = std::min(batch, in.size() - off);
    clf.classify_batch(in.subspan(off, len),
                       std::span(out).subspan(off, len), scratch);
  }
  for (usize i = 0; i < in.size(); ++i) {
    expect_same(out[i], clf.classify(in[i]), i);
  }
}

/// The full matrix for one device configuration + workload.
void check_equivalence(const core::ClassifierConfig& cfg,
                       const ruleset::RuleSet& rules,
                       std::span<const net::FiveTuple> in) {
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);

  if (cfg.combine_mode == core::CombineMode::kCrossProduct) {
    const baseline::LinearSearch oracle(rules);
    for (usize i = 0; i < in.size(); ++i) {
      const ruleset::Rule* want = oracle.classify(in[i], nullptr);
      const core::ClassifyResult got = clf.classify(in[i]);
      ASSERT_EQ(got.match.has_value(), want != nullptr)
          << "scalar vs oracle, packet " << i;
      if (want != nullptr) {
        EXPECT_EQ(got.match->rule, want->id);
      }
    }
  }

  core::BatchScratch scratch;
  for (const usize batch : kBatchSizes) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    expect_batches_match_scalar(clf, in, batch, scratch);
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
  const auto in = headers_of(ts.generate());

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
        FamilyCase{"acl", core::IpAlgorithm::kRvh,
                   core::CombineMode::kCrossProduct},
        FamilyCase{"acl", core::IpAlgorithm::kMbt,
                   core::CombineMode::kFirstLabel},
        FamilyCase{"fw", core::IpAlgorithm::kMbt,
                   core::CombineMode::kFirstLabel}),
    [](const auto& info) {
      const FamilyCase& fc = info.param;
      std::string alg = core::to_string(fc.alg);
      for (char& c : alg) c = static_cast<char>(std::tolower(c));
      return std::string(fc.family) + "_" + alg + "_" +
             (fc.mode == core::CombineMode::kCrossProduct ? "cross"
                                                          : "first");
    });

// Adversarial trace shapes: depth-heavy key patterns and an all-distinct
// thrash trace (nothing to dedup).
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

// ---- the dedup contract ---------------------------------------------------

/// Named batch shapes over a pool of distinct headers.
struct DedupShape {
  const char* name;
  std::vector<net::FiveTuple> batch;
};

std::vector<DedupShape> dedup_shapes(const std::vector<net::FiveTuple>& pool) {
  std::vector<DedupShape> shapes;
  shapes.push_back({"all-duplicate", std::vector<net::FiveTuple>(32, pool[0])});
  std::vector<net::FiveTuple> mixed;
  for (usize i = 0; i < 48; ++i) mixed.push_back(pool[(i * i + 3 * i) % 7]);
  shapes.push_back({"mixed", mixed});
  shapes.push_back(
      {"all-distinct", std::vector<net::FiveTuple>(pool.begin(),
                                                   pool.begin() + 32)});
  shapes.push_back({"one-key", {pool[1]}});
  shapes.push_back({"empty", {}});
  // 257 keys with duplicates spread across the whole batch: the table
  // grows past its 512-slot size for 256 keys.
  std::vector<net::FiveTuple> big;
  for (usize i = 0; i < 257; ++i) big.push_back(pool[(i * 37) % 200]);
  shapes.push_back({"257-keys", big});
  return shapes;
}

usize distinct_count(const std::vector<net::FiveTuple>& batch) {
  return std::set<net::FiveTuple>(batch.begin(), batch.end()).size();
}

/// Two snapshots of one publisher: the installed set, then the same set
/// without the rule pool[0] matches (so verdicts differ between the two
/// for that header). One scratch serves every batch on both.
TEST(BatchPhase2, DedupMatchesScalarOnEveryShapeAndSnapshot) {
  const ruleset::RuleSet rules = workload::synthesize(
      workload::RulesetProfile::acl(150, 41));
  workload::TraceSynthesizer ts(
      rules, workload::TraceProfile::standard(4000, 41 ^ 0xABCD));
  std::vector<net::FiveTuple> pool = headers_of(ts.generate());
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  ASSERT_GE(pool.size(), 200u);

  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  dataplane::RuleProgramPublisher programs(cfg);
  programs.install_ruleset(rules);
  const auto first = programs.acquire();

  // Move a matched header to the front, then delete its rule.
  const auto matched = std::find_if(pool.begin(), pool.end(), [&](auto& h) {
    return first->classifier().classify(h).match.has_value();
  });
  ASSERT_NE(matched, pool.end());
  std::iter_swap(pool.begin(), matched);
  sdn::FlowMod del;
  del.command = sdn::FlowMod::Command::kDelete;
  del.cookie = first->classifier().classify(pool[0]).match->rule;
  programs.apply(del);
  const auto second = programs.acquire();
  ASSERT_NE(first->classifier().classify(pool[0]).match,
            second->classifier().classify(pool[0]).match);

  core::BatchScratch scratch;
  for (const DedupShape& shape : dedup_shapes(pool)) {
    for (const auto& snap : {first, second}) {
      SCOPED_TRACE(std::string(shape.name) + " on snapshot v" +
                   std::to_string(snap->version()));
      const core::ConfigurableClassifier& clf = snap->classifier();
      std::vector<core::ClassifyResult> out(shape.batch.size());
      clf.classify_batch(shape.batch, out, scratch);
      for (usize i = 0; i < shape.batch.size(); ++i) {
        expect_same(out[i], clf.classify(shape.batch[i]), i);
      }
      // One classify() per distinct tuple: the table's distinct count
      // is exact.
      EXPECT_EQ(scratch.distinct, distinct_count(shape.batch));
    }
  }
}

TEST(BatchPhase2, ShortOutputSpanThrows) {
  const ruleset::RuleSet rules = workload::synthesize(
      workload::RulesetProfile::acl(50, 3));
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(512);
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);
  const std::vector<net::FiveTuple> in(4);
  std::vector<core::ClassifyResult> out(3);
  EXPECT_THROW(clf.classify_batch(in, out), ConfigError);
}

}  // namespace
