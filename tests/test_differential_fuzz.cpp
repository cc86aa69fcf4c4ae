// Seeded randomized differential harness for the whole batch hot path.
//
// Each iteration draws one configuration from the cross of
//   {acl,fw,ipc} RulesetProfile draws x synthesized traces
//   x IP lookup backends {mbt, bst, rvh}
//   x batch sizes {1, 32, 256}
//   x probe-memo {on, off}
//   x memo slot counts {16, 64, 512} (tiny memos force eviction churn)
//   x all PathPolicy pins (adaptive / phase2 / scalar-loop)
// and drives the trace through classify_batch() with ONE long-lived
// BatchScratch (the dataplane-worker lifetime: the persistent memo and
// the controller survive across batches). Every packet is checked three
// ways:
//
//   * verdict  == baseline::LinearSearch over the installed rules
//                 (semantic ground truth);
//   * verdict  == the scalar classify() path (batch-engine parity);
//   * memory_accesses and crossproduct_probes == the scalar path's
//                 (the cycle-charging contract: the memo and the batch
//                 engine must never change modeled accesses).
//
// Half the iterations interleave random update-path mutations
// (remove / re-add / modify) at batch boundaries, then keep classifying
// with the same scratch: the persistent memo's epoch invalidation is
// what keeps the next batch's verdicts correct, so any stale entry
// served under the 2-way geometry shows up as a verdict or access
// mismatch against the freshly-rebuilt oracle.
//
// Determinism: the default run uses a fixed seed (what CI's main job
// runs); PCLASS_FUZZ_SEED / PCLASS_FUZZ_ITERS override it for the
// random-seed smoke (CI echoes the seed into the log so any failure is
// reproducible by exporting the same value).
//
// The second half of the file is the *sharded-engine* differential
// fuzzer: real multi-worker Engines (2-4 shards, 1..S threads) with
// verdict capture on, while a concurrent
// mutator streams rule updates through the RuleProgramPublisher
// mid-classification. Every captured verdict is checked against a
// LinearSearch oracle reconstructed at exactly the rule-program
// version the verdict was stamped with, plus the steering invariant
// (each verdict's tuple hashes to the shard that logged it).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/linear_search.hpp"
#include "common/random.hpp"
#include "core/classifier.hpp"
#include "dataplane/engine.hpp"
#include "dataplane/flow_steer.hpp"
#include "sdn/flow_mod.hpp"
#include "workload/profile.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;

namespace {

constexpr u64 kDefaultSeed = 0xC1A551F1;
constexpr usize kDefaultIters = 200;

u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 0);
}

/// One drawn configuration, loggable for reproduction.
struct FuzzConfig {
  std::string family;
  usize rules_n = 0;
  usize packets = 0;
  bool zipf_trace = false;
  core::IpAlgorithm alg = core::IpAlgorithm::kMbt;
  usize batch = 0;
  bool memo_on = true;
  u32 memo_slots = 512;
  core::PathPolicy policy = core::PathPolicy::kAdaptive;
  bool updates = false;
  u64 seed = 0;

  [[nodiscard]] std::string describe() const {
    return "family=" + family + " rules=" + std::to_string(rules_n) +
           " packets=" + std::to_string(packets) +
           (zipf_trace ? " trace=zipf" : " trace=standard") +
           " alg=" + std::string(to_string(alg)) +
           " batch=" + std::to_string(batch) +
           " memo=" + (memo_on ? "on" : "off") +
           " slots=" + std::to_string(memo_slots) +
           " policy=" + std::string(to_string(policy)) +
           (updates ? " updates=yes" : " updates=no") +
           " seed=" + std::to_string(seed);
  }
};

FuzzConfig draw_config(Rng& rng, u64 seed) {
  FuzzConfig c;
  c.seed = seed;
  c.family = std::array{"acl", "fw", "ipc"}[rng.below(3)];
  c.rules_n = 40 + static_cast<usize>(rng.below(90));
  c.packets = 192 + static_cast<usize>(rng.below(192));
  c.zipf_trace = rng.below(2) == 0;
  c.alg = std::array{core::IpAlgorithm::kMbt, core::IpAlgorithm::kBst,
                     core::IpAlgorithm::kRvh}[rng.below(3)];
  c.batch = std::array<usize, 3>{1, 32, 256}[rng.below(3)];
  c.memo_on = rng.below(8) != 0;  // mostly on — it is the system under test
  c.memo_slots = std::array<u32, 3>{16, 64, 512}[rng.below(3)];
  c.policy = std::array{core::PathPolicy::kAdaptive,
                        core::PathPolicy::kForcePhase2,
                        core::PathPolicy::kForceScalarLoop}[rng.below(3)];
  c.updates = rng.below(2) == 0;
  return c;
}

/// Rebuild the linear-search oracle from what the classifier actually
/// has installed (priorities verbatim — no back-fill).
std::unique_ptr<baseline::LinearSearch> make_oracle(
    const core::ConfigurableClassifier& clf) {
  ruleset::RuleSet rs("oracle");
  for (const ruleset::Rule& r : clf.installed_rules()) {
    rs.add_verbatim(r);
  }
  return std::make_unique<baseline::LinearSearch>(rs);
}

/// Apply 1..4 random update-path mutations: remove an installed rule,
/// re-add a previously removed one, or rewrite an action in place.
/// Every mutation bumps the device epoch, so the persistent memo must
/// drop its entries before the next batch.
void mutate(core::ConfigurableClassifier& clf, Rng& rng,
            std::vector<ruleset::Rule>& removed) {
  const usize kMutations = 1 + rng.below(4);
  for (usize m = 0; m < kMutations; ++m) {
    const auto installed = clf.installed_rules();
    const u64 kind = rng.below(3);
    if (kind == 0 && installed.size() > 8) {
      const ruleset::Rule victim = installed[rng.below(installed.size())];
      clf.remove_rule(victim.id);
      removed.push_back(victim);
    } else if (kind == 1 && !removed.empty()) {
      const usize k = rng.below(removed.size());
      clf.add_rule(removed[k]);
      removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (!installed.empty()) {
      const ruleset::Rule& r = installed[rng.below(installed.size())];
      clf.modify_rule(r.id,
                      ruleset::Action{static_cast<u32>(rng.below(0xFFFF))});
    }
  }
}

/// Run one drawn configuration end to end; every EXPECT carries the
/// config description so a failure is reproducible from the log alone.
void run_config(const FuzzConfig& c) {
  Rng rng(c.seed ^ 0x5EED5EEDULL);

  workload::RulesetProfile rp =
      workload::RulesetProfile::by_family(c.family, c.rules_n, c.seed);
  ruleset::RuleSet rules = workload::synthesize(rp);
  workload::TraceProfile tp =
      c.zipf_trace ? workload::TraceProfile::zipf_heavy(c.packets, c.seed ^ 1)
                   : workload::TraceProfile::standard(c.packets, c.seed ^ 1);
  net::Trace trace;
  {
    workload::TraceSynthesizer ts(rules, tp);
    trace = ts.generate();
  }

  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(rules.size() + 64);
  cfg.combine_mode = core::CombineMode::kCrossProduct;  // exact => oracle
  cfg.ip_algorithm = c.alg;
  cfg.batch_probe_memo = c.memo_on;
  cfg.batch_memo_slots = c.memo_slots;
  cfg.batch_path_policy = c.policy;
  core::ConfigurableClassifier clf(cfg);
  clf.add_rules(rules);

  std::unique_ptr<baseline::LinearSearch> oracle = make_oracle(clf);
  std::vector<ruleset::Rule> removed;

  // One scratch for the whole trace: the dataplane-worker lifetime the
  // persistent memo and controller are designed around.
  core::BatchScratch scratch;
  std::vector<net::FiveTuple> in;
  std::vector<core::ClassifyResult> out;

  usize off = 0;
  usize checked = 0;
  while (off < trace.size()) {
    const usize len = std::min(c.batch, trace.size() - off);
    in.clear();
    for (usize k = 0; k < len; ++k) in.push_back(trace[off + k].header);
    out.assign(len, {});
    clf.classify_batch(in, out, scratch);

    for (usize k = 0; k < len; ++k) {
      // Batch-engine parity: verdict, modeled accesses and probe count
      // must equal the scalar path's, memo or not.
      const core::ClassifyResult ref = clf.classify(in[k]);
      const bool batch_match = out[k].match.has_value();
      ASSERT_EQ(batch_match, ref.match.has_value())
          << c.describe() << " pkt " << off + k;
      if (batch_match) {
        ASSERT_EQ(out[k].match->rule, ref.match->rule)
            << c.describe() << " pkt " << off + k;
        ASSERT_EQ(out[k].match->priority, ref.match->priority)
            << c.describe() << " pkt " << off + k;
      }
      ASSERT_EQ(out[k].memory_accesses, ref.memory_accesses)
          << c.describe() << " pkt " << off + k
          << " (a memoized probe charged the wrong replaced-read count "
             "— stale or mis-tagged memo entry)";
      ASSERT_EQ(out[k].crossproduct_probes, ref.crossproduct_probes)
          << c.describe() << " pkt " << off + k;

      // Semantic ground truth.
      const ruleset::Rule* want = oracle->classify(in[k], nullptr);
      if (want == nullptr) {
        ASSERT_FALSE(batch_match) << c.describe() << " pkt " << off + k;
      } else {
        ASSERT_TRUE(batch_match) << c.describe() << " pkt " << off + k;
        ASSERT_EQ(out[k].match->rule, want->id)
            << c.describe() << " pkt " << off + k;
      }
      ++checked;
    }
    off += len;

    // Epoch-invalidation fuzz: mutate at some batch boundaries, then
    // keep going with the same scratch. If a stale memo entry survived
    // the epoch bump, the next batch diverges from the rebuilt oracle.
    if (c.updates && off < trace.size() && rng.below(4) == 0) {
      mutate(clf, rng, removed);
      oracle = make_oracle(clf);
    }
  }
  ASSERT_EQ(checked, trace.size()) << c.describe();
}

}  // namespace

TEST(DifferentialFuzz, RandomConfigsAgreeWithLinearSearch) {
  const u64 seed = env_u64("PCLASS_FUZZ_SEED", kDefaultSeed);
  const usize iters = static_cast<usize>(
      env_u64("PCLASS_FUZZ_ITERS", kDefaultIters));
  std::cerr << "[fuzz] seed=" << seed << " iters=" << iters
            << " (override via PCLASS_FUZZ_SEED / PCLASS_FUZZ_ITERS)\n";

  Rng meta(seed);
  for (usize i = 0; i < iters; ++i) {
    const u64 cseed = meta.next();
    Rng rng(cseed);
    const FuzzConfig c = draw_config(rng, cseed);
    SCOPED_TRACE("iter " + std::to_string(i) + ": " + c.describe());
    run_config(c);
    if (::testing::Test::HasFatalFailure()) {
      std::cerr << "[fuzz] FAILED at iter " << i << ": " << c.describe()
                << "\n";
      return;
    }
  }
}

// A focused stale-serve hunt: tiny memo, maximal collision pressure,
// updates every batch — the geometry where a broken 2-way epoch check
// would actually serve a stale verdict.
TEST(DifferentialFuzz, UpdateStormNeverServesStaleUnderTinyMemo) {
  const u64 seed = env_u64("PCLASS_FUZZ_SEED", kDefaultSeed) ^ 0xA11CE;
  Rng meta(seed);
  // Both backend families: the trie's rebuild-style updates and the
  // RVH's in-place bucket updates must bump the device epoch alike —
  // either one skipping it would serve a stale memo entry here.
  for (const core::IpAlgorithm alg :
       {core::IpAlgorithm::kMbt, core::IpAlgorithm::kRvh}) {
    for (usize round = 0; round < 2; ++round) {  // two seeds per backend
      const u64 cseed = meta.next();
      FuzzConfig c;
      c.seed = cseed;
      c.family = "fw";  // wildcard-heavy: repeated combinations, hot memo
      c.rules_n = 80;
      c.packets = 512;
      c.zipf_trace = true;
      c.alg = alg;
      c.batch = 32;
      c.memo_on = true;
      c.memo_slots = 16;  // minimum geometry: every set under pressure
      c.policy = core::PathPolicy::kForcePhase2;  // memo always engaged
      c.updates = true;
      SCOPED_TRACE(c.describe());
      run_config(c);
    }
  }
}

// ===========================================================================
// Sharded-engine differential fuzz: real Engines, real worker threads,
// live publisher mutations. Where the harness above exercises one
// classifier on one thread, this one exercises the full sharded runtime
// — steering, per-shard replicas and RCU snapshot acquisition —
// against per-version LinearSearch oracles.
// ===========================================================================

namespace {

/// One drawn sharded-engine configuration, loggable for reproduction.
struct ShardFuzzConfig {
  std::string family;
  usize rules_n = 0;
  usize packets = 0;
  bool zipf_trace = false;
  core::IpAlgorithm alg = core::IpAlgorithm::kMbt;
  usize shards = 2;
  usize workers = 1;   ///< worker threads (may be < shards: multi-shard threads)
  usize batch = 32;
  bool symmetric = false;
  bool mutations = false;   ///< concurrent publisher mutator
  u32 cache_depth = 0;
  u64 seed = 0;

  [[nodiscard]] std::string describe() const {
    return "family=" + family + " rules=" + std::to_string(rules_n) +
           " packets=" + std::to_string(packets) +
           (zipf_trace ? " trace=zipf" : " trace=standard") +
           " alg=" + std::string(to_string(alg)) +
           " shards=" + std::to_string(shards) +
           " workers=" + std::to_string(workers) +
           " batch=" + std::to_string(batch) +
           (symmetric ? " steer=symmetric" : " steer=plain") +
           (mutations ? " mutations=yes" : " mutations=no") +
           " cache=" + std::to_string(cache_depth) +
           " seed=" + std::to_string(seed);
  }
};

ShardFuzzConfig draw_shard_config(Rng& rng, u64 seed) {
  ShardFuzzConfig c;
  c.seed = seed;
  c.family = std::array{"acl", "fw", "ipc"}[rng.below(3)];
  c.rules_n = 40 + static_cast<usize>(rng.below(81));
  c.packets = 256 + static_cast<usize>(rng.below(513));
  c.zipf_trace = rng.below(2) == 0;
  c.alg = std::array{core::IpAlgorithm::kMbt, core::IpAlgorithm::kBst,
                     core::IpAlgorithm::kRvh}[rng.below(3)];
  c.shards = 2 + static_cast<usize>(rng.below(3));           // 2..4
  c.workers = 1 + static_cast<usize>(rng.below(c.shards));   // 1..S
  c.batch = std::array<usize, 3>{8, 32, 64}[rng.below(3)];
  c.symmetric = rng.below(2) == 0;
  c.mutations = rng.below(2) == 0;
  // The flow cache's one-batch stale window is by design; the
  // per-version oracle check demands exact verdicts, so the cache stays
  // off whenever the mutator runs.
  c.cache_depth = c.mutations ? 0 : (rng.below(2) == 0 ? 0 : 64);
  return c;
}

/// Version -> LinearSearch oracle over the rules that were installed at
/// exactly that published version. The single mutator thread record()s
/// after every publish (and once for the initial install), so by join
/// time every version a worker could have stamped a verdict with has an
/// entry. Oracles build lazily — most versions are only ever hit by a
/// few batches.
class VersionedOracles {
 public:
  void record(const dataplane::RuleProgramPublisher& pub) {
    const std::shared_ptr<const dataplane::RuleProgram> prog = pub.acquire();
    ruleset::RuleSet rs("v" + std::to_string(prog->version()));
    for (const ruleset::Rule& r : prog->classifier().installed_rules()) {
      rs.add_verbatim(r);
    }
    rules_.insert_or_assign(prog->version(), std::move(rs));
  }

  /// Oracle for \p version, or nullptr if that version was never
  /// published (a stamped verdict with an unknown version is itself a
  /// bug — it means a worker saw a torn or fabricated snapshot).
  [[nodiscard]] const baseline::LinearSearch* at(u64 version) {
    const auto built = oracles_.find(version);
    if (built != oracles_.end()) return built->second.get();
    const auto it = rules_.find(version);
    if (it == rules_.end()) return nullptr;
    auto oracle = std::make_unique<baseline::LinearSearch>(it->second);
    return oracles_.emplace(version, std::move(oracle)).first->second.get();
  }

 private:
  std::map<u64, ruleset::RuleSet> rules_;
  std::map<u64, std::unique_ptr<baseline::LinearSearch>> oracles_;
};

/// One random southbound mutation through the publisher — delete an
/// installed rule, re-add a previously deleted one (verbatim, same id
/// and priority), or rewrite an action in place — followed by a
/// snapshot record at the new version.
void mutate_publisher(dataplane::RuleProgramPublisher& pub, Rng& rng,
                      std::vector<ruleset::Rule>& removed,
                      VersionedOracles& oracles) {
  const std::vector<ruleset::Rule> installed =
      pub.acquire()->classifier().installed_rules();
  sdn::FlowMod fm;
  const u64 kind = rng.below(3);
  if (kind == 0 && installed.size() > 8) {
    const ruleset::Rule victim = installed[rng.below(installed.size())];
    fm.command = sdn::FlowMod::Command::kDelete;
    fm.cookie = victim.id;
    pub.apply(fm);
    removed.push_back(victim);
  } else if (kind == 1 && !removed.empty()) {
    const usize k = rng.below(removed.size());
    fm.command = sdn::FlowMod::Command::kAdd;
    fm.cookie = removed[k].id;
    fm.match = removed[k];
    fm.action = sdn::ActionSpec::decode(removed[k].action.token);
    pub.apply(fm);
    removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(k));
  } else if (!installed.empty()) {
    fm.command = sdn::FlowMod::Command::kModify;
    fm.cookie = installed[rng.below(installed.size())].id;
    fm.action = sdn::ActionSpec::output(static_cast<u16>(1 + rng.below(1000)));
    pub.apply(fm);
  } else {
    return;  // nothing to mutate (fully drained set)
  }
  oracles.record(pub);
}

/// Drive one drawn configuration through a real Engine and check every
/// captured verdict against the oracle at its stamped version.
void run_shard_config(const ShardFuzzConfig& c) {
  workload::RulesetProfile rp =
      workload::RulesetProfile::by_family(c.family, c.rules_n, c.seed);
  ruleset::RuleSet rules = workload::synthesize(rp);
  workload::TraceProfile tp =
      c.zipf_trace ? workload::TraceProfile::zipf_heavy(c.packets, c.seed ^ 1)
                   : workload::TraceProfile::standard(c.packets, c.seed ^ 1);
  net::Trace trace;
  {
    workload::TraceSynthesizer ts(rules, tp);
    trace = ts.generate();
  }
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);

  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(rules.size() + 64);
  cfg.combine_mode = core::CombineMode::kCrossProduct;  // exact => oracle
  cfg.ip_algorithm = c.alg;

  // One publisher, steered slices, optional live mutator racing the
  // workers.
  dataplane::RuleProgramPublisher pub(cfg);
  pub.install_ruleset(rules);
  VersionedOracles oracles;
  oracles.record(pub);

  // Workers drain a few hundred packets in tens of microseconds — far
  // faster than a wall-clock-paced mutator (each publish pays an RCU
  // grace period) could interleave. So the two sides gate on each
  // other's *progress*: the per-batch hook bumps `batches_seen` and
  // waits for the mutator to reach that batch's share of the mutation
  // budget, while mutation m waits for the m-th slice of the expected
  // batch count before publishing. The wait conditions are
  // complementary (a worker blocks only past B(d+1)/n batches, the
  // mutator only before B(d+1)/(n+1) — disjoint for every d), so the
  // lockstep cannot deadlock, and every run interleaves publishes
  // densely through the packet stream: workers re-acquire the snapshot
  // per batch, so successive batches observe successive versions.
  // `drained` / `mutations_done == n` break the coupling when either
  // side finishes early (leftover mutations publish after the run,
  // harmlessly).
  std::atomic<u64> batches_seen{0};
  std::atomic<u64> mutations_done{0};
  std::atomic<bool> drained{false};
  Rng mrng(c.seed ^ 0x0DDBA11ULL);
  const u64 n_mut =
      c.mutations ? 8 + static_cast<u64>(mrng.below(25)) : 0;  // 8..32
  const u64 expected_batches =
      static_cast<u64>((trace.size() + c.batch - 1) / c.batch);

  dataplane::EngineConfig ecfg{
      .workers = c.workers,
      .batch_size = c.batch,
      .flow_cache_depth = c.cache_depth,
      .telemetry = false,
      .shards = c.shards,
      .steer_symmetric = c.symmetric,
      .capture_verdicts = true};
  if (c.mutations) {
    ecfg.worker_fault_hook = [&batches_seen, &mutations_done, n_mut,
                              expected_batches](usize) {
      const u64 b = batches_seen.fetch_add(1, std::memory_order_relaxed) + 1;
      const u64 want = std::min(n_mut, b * n_mut / expected_batches);
      while (mutations_done.load(std::memory_order_relaxed) < want) {
        std::this_thread::yield();
      }
    };
  }
  dataplane::Engine engine(ecfg, pub);

  // The mutator is the only writer; it records the installed-rule
  // snapshot after every publish, and is joined before any oracle read,
  // so VersionedOracles needs no locking.
  std::thread mutator;
  if (c.mutations) {
    mutator = std::thread([&pub, &oracles, &batches_seen, &mutations_done,
                           &drained, n_mut, expected_batches, mrng]() mutable {
      std::vector<ruleset::Rule> removed;
      for (u64 m = 0; m < n_mut; ++m) {
        const u64 gate = (m + 1) * expected_batches / (n_mut + 1);
        while (batches_seen.load(std::memory_order_relaxed) < gate &&
               !drained.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
        mutate_publisher(pub, mrng, removed, oracles);
        mutations_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const dataplane::EngineReport rep = engine.run(pool);
  drained.store(true, std::memory_order_relaxed);
  if (mutator.joinable()) mutator.join();

  ASSERT_TRUE(rep.first_error().empty())
      << c.describe() << ": " << rep.first_error();
  EXPECT_TRUE(rep.versions_monotonic()) << c.describe();
  ASSERT_EQ(rep.captured.size(), c.shards) << c.describe();
  ASSERT_EQ(rep.shards.size(), c.shards) << c.describe();

  usize total = 0;
  for (usize s = 0; s < c.shards; ++s) {
    total += rep.captured[s].size();
    EXPECT_EQ(rep.captured[s].size(), rep.shards[s].packets)
        << c.describe() << " shard " << s;
    for (usize k = 0; k < rep.captured[s].size(); ++k) {
      const dataplane::CapturedVerdict& cv = rep.captured[s][k];
      ASSERT_FALSE(cv.parse_error) << c.describe() << " shard " << s;
      // Steering invariant: the verdict's flow hashes to the shard that
      // logged it.
      ASSERT_EQ(dataplane::shard_of(cv.tuple, c.shards, c.symmetric), s)
          << c.describe() << " pkt " << k;
      const baseline::LinearSearch* oracle = oracles.at(cv.version);
      ASSERT_NE(oracle, nullptr)
          << c.describe() << " shard " << s << " pkt " << k
          << ": verdict stamped with never-published version " << cv.version;
      const ruleset::Rule* want = oracle->classify(cv.tuple, nullptr);
      ASSERT_EQ(cv.matched, want != nullptr)
          << c.describe() << " shard " << s << " pkt " << k << " version "
          << cv.version;
      if (want != nullptr) {
        ASSERT_EQ(cv.rule, want->id)
            << c.describe() << " shard " << s << " pkt " << k << " version "
            << cv.version;
        ASSERT_EQ(cv.priority, want->priority)
            << c.describe() << " shard " << s << " pkt " << k;
        // Action tokens pin kModify visibility: a verdict carrying the
        // pre-modify action at a post-modify version is a stale serve.
        ASSERT_EQ(cv.action_token, want->action.token)
            << c.describe() << " shard " << s << " pkt " << k << " version "
            << cv.version;
      }
    }
  }
  EXPECT_EQ(total, trace.size()) << c.describe();
  EXPECT_EQ(rep.packets(), trace.size()) << c.describe();
}

}  // namespace

TEST(ShardedDifferentialFuzz, MultiWorkerEnginesAgreeWithVersionedOracles) {
  const u64 seed = env_u64("PCLASS_FUZZ_SEED", kDefaultSeed) ^ 0x5AADED;
  const usize iters =
      static_cast<usize>(env_u64("PCLASS_FUZZ_ITERS", kDefaultIters));
  std::cerr << "[shard-fuzz] seed=" << seed << " iters=" << iters
            << " (override via PCLASS_FUZZ_SEED / PCLASS_FUZZ_ITERS)\n";

  Rng meta(seed);
  for (usize i = 0; i < iters; ++i) {
    const u64 cseed = meta.next();
    Rng rng(cseed);
    const ShardFuzzConfig c = draw_shard_config(rng, cseed);
    SCOPED_TRACE("iter " + std::to_string(i) + ": " + c.describe());
    run_shard_config(c);
    if (::testing::Test::HasFatalFailure()) {
      std::cerr << "[shard-fuzz] FAILED at iter " << i << ": " << c.describe()
                << "\n";
      return;
    }
  }
}

// A focused cross-shard update storm: max shard fan-out, every worker
// thread busy, long trace so the mutator's 8..32 publishes land *during*
// classification — the geometry where a worker pinning an old snapshot
// (or stamping the wrong version on a batch) actually shows up.
TEST(ShardedDifferentialFuzz, UpdateStormAcrossShardsNeverServesStaleVerdict) {
  const u64 base = env_u64("PCLASS_FUZZ_SEED", kDefaultSeed) ^ 0x57EE1;
  Rng meta(base);
  // Both backend families under the storm: the RVH leg pins its
  // incremental bucket updates against per-version oracles on the real
  // multi-worker RCU path, not just the single-thread harness above.
  for (const core::IpAlgorithm alg :
       {core::IpAlgorithm::kMbt, core::IpAlgorithm::kRvh}) {
    for (const bool symmetric : {false, true}) {
      ShardFuzzConfig c;
      c.seed = meta.next();
      c.family = "fw";  // wildcard-heavy: verdicts shift under mutation
      c.rules_n = 96;
      c.packets = 2048;
      c.zipf_trace = true;
      c.alg = alg;
      c.shards = 4;
      c.workers = 4;
      c.batch = 16;  // many snapshot acquisitions per run
      c.symmetric = symmetric;
      c.mutations = true;
      c.cache_depth = 0;
      SCOPED_TRACE(c.describe());
      run_shard_config(c);
    }
  }
}
