/// \file pclass_classify.cpp
/// Offline classification driver: load a ClassBench filter file and a
/// trace, run them through the configurable classifier, and report the
/// measured performance — the workflow of the paper's evaluation, on
/// your own rule sets.
///
///   pclass_classify <rules_file> <trace_file> [--alg mbt|bst|rvh]
///                   [--mode first|cross] [--verify]
///                   [--memo persistent|off]
///                   [--path-policy adaptive|phase2|scalar-loop]
///                   [--workers N] [--batch B] [--cache DEPTH]
///                   [--shards N] [--steer-symmetric]
///                   [--stats-interval-ms N] [--trace-out FILE]
///                   [--metrics-out FILE]
///
/// With --workers the trace runs through the batched dataplane engine
/// (N worker threads, per-worker flow caches, lock-free rule snapshots)
/// instead of the single-threaded classify loop. The engine path also
/// exposes the telemetry exporters: --stats-interval-ms runs the
/// background StatsSampler, --trace-out writes per-batch spans as
/// chrome://tracing JSON (one track per worker) and --metrics-out dumps
/// end-of-run counters in Prometheus text format. All three require
/// --workers, as do the sharding knobs: --shards N steers packets to N
/// RSS-style shards by 5-tuple flow hash (--steer-symmetric
/// canonicalizes endpoint order so both flow directions co-locate).
///
/// --memo controls the combination-probe memo: persistent (default,
/// snapshot-keyed, survives batch boundaries) or off. --path-policy
/// pins the execution path (scalar-loop = packet-at-a-time, phase2 =
/// sorted-key batch engine) instead of letting the per-worker
/// cost-model controller pick it per batch. Both apply to the engine
/// path and to the single-threaded loop (which classifies in batches of
/// --batch and reports host throughput, so the paths can be compared
/// directly).
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "baseline/linear_search.hpp"
#include "common/build_info.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/classifier.hpp"
#include "core/cycle_model.hpp"
#include "dataplane/engine.hpp"
#include "net/trace.hpp"
#include "ruleset/classbench.hpp"
#include "telemetry/export.hpp"

using namespace pclass;

namespace {

int usage() {
  std::cerr << "usage: pclass_classify <rules_file> <trace_file> "
               "[--alg mbt|bst|rvh] [--mode first|cross] [--verify]\n"
               "                       [--memo persistent|off] "
               "[--path-policy adaptive|phase2|scalar-loop]\n"
               "                       [--workers N [--batch B] "
               "[--cache DEPTH]\n"
               "                        [--shards N] [--steer-symmetric]\n"
               "                        [--stats-interval-ms N] "
               "[--trace-out FILE] [--metrics-out FILE]]\n"
               "(--batch/--cache, the shard knobs and the telemetry flags "
               "configure the dataplane engine and require --workers)\n";
  return 2;
}

/// Per-packet agreement of \p clf with the linear-search oracle.
struct OracleVerify {
  usize agree = 0;  ///< headers where clf and oracle return the same rule
  usize want = 0;   ///< headers the oracle matches
};

OracleVerify verify_against_oracle(const core::ConfigurableClassifier& clf,
                                   const ruleset::RuleSet& rules,
                                   const net::Trace& trace) {
  baseline::LinearSearch oracle(rules);
  OracleVerify v;
  for (const auto& e : trace) {
    const auto got = clf.classify(e.header);
    const auto* w = oracle.classify(e.header, nullptr);
    if (w != nullptr) ++v.want;
    if (w == nullptr ? !got.match.has_value()
                     : got.match && got.match->rule == w->id) {
      ++v.agree;
    }
  }
  return v;
}

/// Telemetry export options for the engine path.
struct TelemetryOut {
  u64 stats_interval_ms = 0;
  std::string trace_path;
  std::string metrics_path;
};

/// Dataplane-engine path: the whole trace, batched, across N workers.
int run_engine(const ruleset::RuleSet& rules, const net::Trace& trace,
               core::ClassifierConfig cfg, usize workers, usize batch,
               u32 cache_depth, usize shards, bool steer_symmetric, bool verify, const TelemetryOut& tout) {
  dataplane::RuleProgramPublisher programs(cfg);
  const hw::UpdateStats load = programs.install_ruleset(rules);
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);

  const dataplane::EngineConfig ecfg{
      .workers = workers,
      .batch_size = batch,
      .flow_cache_depth = cache_depth,
      .stats_interval_ms = tout.stats_interval_ms,
      .collect_trace = !tout.trace_path.empty(),
      .shards = shards,
      .steer_symmetric = steer_symmetric};
  dataplane::Engine engine(ecfg, programs);
  // The engine clamps degenerate values (0 workers/batch); report the
  // effective geometry, not the requested one.
  workers = engine.config().workers;
  batch = engine.config().batch_size;
  const dataplane::EngineReport rep = engine.run(pool);
  if (const std::string err = rep.first_error(); !err.empty()) {
    std::cerr << "error: dataplane worker failed: " << err << "\n";
    return 1;
  }

  TextTable t({"worker", "packets", "matched", "cache hit%", "p50 cyc",
               "p99 cyc", "Mpps"});
  for (const auto& w : rep.workers) {
    t.add_row({std::to_string(w.worker), std::to_string(w.packets),
               std::to_string(w.matched),
               TextTable::num(w.cache_hit_rate() * 100.0, 1),
               std::to_string(w.latency.percentile(50)),
               std::to_string(w.latency.percentile(99)),
               TextTable::num(w.mpps(), 3)});
  }
  t.print(std::cout);

  if (!rep.shards.empty()) {
    TextTable st({"shard", "packets", "matched", "cache hit%", "p50 cyc",
                  "p99 cyc"});
    for (const auto& s : rep.shards) {
      st.add_row({std::to_string(s.worker), std::to_string(s.packets),
                  std::to_string(s.matched),
                  TextTable::num(s.cache_hit_rate() * 100.0, 1),
                  std::to_string(s.latency.percentile(50)),
                  std::to_string(s.latency.percentile(99))});
    }
    st.print(std::cout);
  }

  const auto lat = rep.merged_latency();
  u64 memo_hits = 0, memo_inval = 0, b_scalar = 0, b_p2 = 0, b_p2m = 0;
  for (const auto& w : rep.workers) {
    memo_hits += w.probe_memo_hits;
    memo_inval += w.probe_memo_invalidations;
    b_scalar += w.path_scalar_loop_batches;
    b_p2 += w.path_phase2_batches;
    b_p2m += w.path_phase2_memo_batches;
  }
  TextTable a({"metric", "value"});
  a.add_row({"engine", std::to_string(workers) + " workers x batch " +
                           std::to_string(batch) + " (" +
                           to_string(cfg.batch_path_policy) + ")"});
  if (shards > 0) {
    a.add_row({"shards", std::to_string(shards) +
                             (steer_symmetric ? " (symmetric steering)"
                                              : "")});
  }
  a.add_row({"probe memo hits", std::to_string(memo_hits) + " (" +
                                    std::to_string(memo_inval) +
                                    " invalidations)"});
  a.add_row({"controller paths",
             "scalar-loop " + std::to_string(b_scalar) + " / phase2 " +
                 std::to_string(b_p2) + " / phase2+memo " +
                 std::to_string(b_p2m) + " batches"});
  a.add_row({"load cost", std::to_string(load.cycles) + " bus cycles (1 "
                          "coalesced snapshot)"});
  a.add_row({"packets", std::to_string(rep.packets())});
  a.add_row({"matched", std::to_string(rep.matched())});
  a.add_row({"aggregate throughput",
             TextTable::num(rep.aggregate_mpps(), 3) + " Mpps (host)"});
  a.add_row({"lookup cycles p50/p99/max",
             std::to_string(lat.percentile(50)) + " / " +
                 std::to_string(lat.percentile(99)) + " / " +
                 std::to_string(lat.max())});
  a.add_row({"snapshot versions monotonic",
             rep.versions_monotonic() ? "yes" : "NO"});
  if (tout.stats_interval_ms > 0) {
    a.add_row({"timeseries samples", std::to_string(rep.timeseries.size()) +
                                         " (every " +
                                         std::to_string(tout.stats_interval_ms) +
                                         " ms)"});
  }
  if (rep.trace_events_dropped() > 0) {
    a.add_row({"trace events dropped",
               std::to_string(rep.trace_events_dropped())});
  }
  a.print(std::cout);

  if (!tout.trace_path.empty()) {
    const std::array<telemetry::TraceProcess, 1> procs = {
        telemetry::TraceProcess{"pclass_classify", rep.trace_events}};
    std::ofstream os(tout.trace_path);
    if (!os) {
      std::cerr << "error: cannot open " << tout.trace_path << "\n";
      return 1;
    }
    telemetry::write_chrome_trace(os, procs);
    std::cerr << "wrote " << tout.trace_path << "\n";
  }
  if (!tout.metrics_path.empty()) {
    std::ofstream os(tout.metrics_path);
    if (!os) {
      std::cerr << "error: cannot open " << tout.metrics_path << "\n";
      return 1;
    }
    telemetry::MetricsWriter m(os);
    using Label = telemetry::MetricsWriter::Label;
    const std::array<Label, 1> ls = {Label{"tool", "pclass_classify"}};
    m.counter("pclass_packets_total", "Packets processed", ls,
              static_cast<double>(rep.packets()));
    m.counter("pclass_matched_total", "Packets matched by a rule", ls,
              static_cast<double>(rep.matched()));
    m.gauge("pclass_throughput_mpps", "End-of-run aggregate Mpps", ls,
            rep.aggregate_mpps());
    m.gauge("pclass_lookup_cycles_p50", "Modelled lookup cycles, p50", ls,
            static_cast<double>(lat.percentile(50)));
    m.gauge("pclass_lookup_cycles_p99", "Modelled lookup cycles, p99", ls,
            static_cast<double>(lat.percentile(99)));
    m.counter("pclass_probe_memo_hits_total", "Probe-memo hits", ls,
              static_cast<double>(memo_hits));
    m.counter("pclass_trace_events_dropped_total",
              "Trace-ring events lost to overwrite", ls,
              static_cast<double>(rep.trace_events_dropped()));
    const auto vis = rep.update_visibility();
    m.gauge("pclass_update_visibility_mean_ns",
            "Mean publish->worker-visible latency", ls, vis.mean_ns);
    std::cerr << "wrote " << tout.metrics_path << "\n";
  }

  if (verify) {
    // Two checks: (1) per-packet agreement of the published snapshot's
    // classifier with the linear-search oracle (exact — workers all
    // classify through this same frozen device); (2) the engine's
    // aggregate match total against the oracle's, which catches
    // batching/claiming bugs that per-packet replay cannot.
    const auto snap = programs.acquire();
    const OracleVerify v =
        verify_against_oracle(snap->classifier(), rules, trace);
    std::cout << "verify: " << v.agree << "/" << trace.size()
              << " per-packet agree with the oracle; engine matched "
              << rep.matched() << ", oracle matched " << v.want << "\n";
    if (cfg.combine_mode == core::CombineMode::kCrossProduct &&
        (v.agree != trace.size() || rep.matched() != v.want)) {
      return 1;
    }
  }
  return rep.versions_monotonic() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--version") {
    std::cout << common::version_line("pclass_classify") << "\n";
    return 0;
  }
  if (argc < 3) {
    return usage();
  }
  core::IpAlgorithm alg = core::IpAlgorithm::kMbt;
  core::CombineMode mode = core::CombineMode::kCrossProduct;
  core::PathPolicy path_policy = core::PathPolicy::kAdaptive;
  bool probe_memo = true;
  bool verify = false;
  usize workers = 0;  // 0 = classic single-threaded loop
  usize batch = net::kDefaultBatchCapacity;
  u32 cache_depth = 0;
  usize shards = 0;
  bool steer_symmetric = false;
  TelemetryOut tout;
  u64 n = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workers" && i + 1 < argc) {
      if (!parse_count(argv[++i], n)) return usage();
      workers = static_cast<usize>(n);
    } else if (flag == "--batch" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n == 0) return usage();
      batch = static_cast<usize>(n);
    } else if (flag == "--cache" && i + 1 < argc) {
      if (!parse_count(argv[++i], n)) return usage();
      if (n > std::numeric_limits<u32>::max()) {
        std::cerr << "error: --cache depth too large: " << n << "\n";
        return usage();
      }
      cache_depth = static_cast<u32>(n);
    } else if (flag == "--shards" && i + 1 < argc) {
      if (!parse_count(argv[++i], n)) return usage();
      shards = static_cast<usize>(n);
    } else if (flag == "--steer-symmetric") {
      steer_symmetric = true;
    } else if ((flag == "--alg" || flag == "--ip-alg") && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "mbt") alg = core::IpAlgorithm::kMbt;
      else if (v == "bst") alg = core::IpAlgorithm::kBst;
      else if (v == "rvh") alg = core::IpAlgorithm::kRvh;
      else return usage();
    } else if (flag == "--mode" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "first") mode = core::CombineMode::kFirstLabel;
      else if (v == "cross") mode = core::CombineMode::kCrossProduct;
      else return usage();
    } else if (flag == "--memo" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "persistent") probe_memo = true;
      else if (v == "off") probe_memo = false;
      else return usage();
    } else if (flag == "--path-policy" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "adaptive") path_policy = core::PathPolicy::kAdaptive;
      else if (v == "phase2") path_policy = core::PathPolicy::kForcePhase2;
      else if (v == "scalar-loop") {
        path_policy = core::PathPolicy::kForceScalarLoop;
      } else {
        return usage();
      }
    } else if (flag == "--stats-interval-ms" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n > 3'600'000) return usage();
      tout.stats_interval_ms = n;
    } else if (flag == "--trace-out" && i + 1 < argc) {
      tout.trace_path = argv[++i];
    } else if (flag == "--metrics-out" && i + 1 < argc) {
      tout.metrics_path = argv[++i];
    } else if (flag == "--verify") {
      verify = true;
    } else {
      return usage();
    }
  }
  if (workers == 0 && (tout.stats_interval_ms > 0 ||
                       !tout.trace_path.empty() ||
                       !tout.metrics_path.empty())) {
    std::cerr << "error: --stats-interval-ms/--trace-out/--metrics-out "
                 "require the dataplane engine (--workers N)\n";
    return usage();
  }
  if (workers == 0 && (shards > 0 || steer_symmetric)) {
    std::cerr << "error: --shards/--steer-symmetric require "
                 "the dataplane engine (--workers N)\n";
    return usage();
  }

  try {
    std::ifstream rf(argv[1]);
    if (!rf) throw Error(std::string("cannot open ") + argv[1]);
    const ruleset::RuleSet rules = ruleset::classbench::read(rf, argv[1]);
    std::ifstream tf(argv[2]);
    if (!tf) throw Error(std::string("cannot open ") + argv[2]);
    const net::Trace trace = net::Trace::read(tf);
    std::cout << "loaded " << rules.size() << " rules, " << trace.size()
              << " headers\n";

    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(rules.size());
    cfg.ip_algorithm = alg;
    cfg.combine_mode = mode;
    cfg.batch_probe_memo = probe_memo;
    cfg.batch_path_policy = path_policy;

    if (workers > 0) {
      return run_engine(rules, trace, cfg, workers, batch, cache_depth,
                        shards, steer_symmetric, verify, tout);
    }
    if (cache_depth != 0) {
      std::cerr << "note: --cache configures the dataplane engine "
                   "and has no effect without --workers\n";
    }

    core::ConfigurableClassifier clf(cfg);
    const auto load = clf.add_rules(rules);

    // Single-threaded loop, batched: the --path-policy A/B runs over the
    // same headers with host wall time measured around the batch calls.
    hw::CycleAggregate agg;
    usize hits = 0;
    u64 memo_hits = 0;
    u64 probes = 0;
    u64 filter_checks = 0;
    std::vector<net::FiveTuple> headers;
    headers.reserve(trace.size());
    for (const auto& e : trace) headers.push_back(e.header);
    std::vector<core::ClassifyResult> results(headers.size());
    core::BatchScratch scratch;
    const auto t0 = std::chrono::steady_clock::now();
    for (usize off = 0; off < headers.size(); off += batch) {
      const usize len = std::min(batch, headers.size() - off);
      clf.classify_batch(std::span(headers).subspan(off, len),
                         std::span(results).subspan(off, len), scratch);
    }
    const double host_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    for (const auto& res : results) {
      hw::CycleRecorder rec;
      rec.charge(res.cycles, res.memory_accesses);
      agg.add(rec);
      if (res.match) ++hits;
      memo_hits += res.memo_hits;
      probes += res.crossproduct_probes;
      filter_checks += res.filter_checks;
    }

    const core::ThroughputModel rate{cfg.fmax_mhz};
    const double ii = static_cast<double>(
        clf.lookup_pipeline().initiation_interval());
    TextTable t({"metric", "value"});
    t.add_row({"configuration", std::string(to_string(alg)) + " / " +
                                    to_string(mode) + " / path " +
                                    to_string(path_policy)});
    t.add_row({"host throughput",
               TextTable::num(host_secs <= 0
                                  ? 0.0
                                  : static_cast<double>(headers.size()) /
                                        1e6 / host_secs,
                              3) +
                   " Mpps (1 thread, batch " + std::to_string(batch) + ")"});
    if (memo_hits > 0) {
      t.add_row({"probe memo hits",
                 std::to_string(memo_hits) + " (" +
                     std::to_string(scratch.memo_invalidations) +
                     " invalidations)"});
    }
    t.add_row(
        {"controller paths",
         "scalar-loop " +
             std::to_string(
                 scratch.controller.batches(core::BatchPath::kScalarLoop)) +
             " / phase2 " +
             std::to_string(
                 scratch.controller.batches(core::BatchPath::kPhase2)) +
             " / phase2+memo " +
             std::to_string(
                 scratch.controller.batches(core::BatchPath::kPhase2Memo)) +
             " batches"});
    t.add_row({"load cost", std::to_string(load.cycles) + " bus cycles (" +
                                TextTable::num(
                                    static_cast<double>(load.cycles) /
                                        static_cast<double>(rules.size()),
                                    1) +
                                "/rule)"});
    t.add_row({"hits", std::to_string(hits) + "/" +
                           std::to_string(trace.size())});
    t.add_row({"mean cycles/lookup", TextTable::num(agg.mean_cycles())});
    auto per_lookup = [&](u64 total) {
      return TextTable::num(results.empty()
                                ? 0.0
                                : static_cast<double>(total) /
                                      static_cast<double>(results.size()));
    };
    t.add_row({"mean probes/lookup", per_lookup(probes)});
    t.add_row({"mean filter checks/lookup", per_lookup(filter_checks)});
    t.add_row({"mean accesses/lookup", TextTable::num(agg.mean_accesses())});
    t.add_row({"worst cycles", std::to_string(agg.max_cycles())});
    t.add_row({"pipelined rate", TextTable::num(
                                     rate.mega_lookups_per_sec(ii)) +
                                     " Mlps = " +
                                     TextTable::num(rate.gbps(ii, 40)) +
                                     " Gbps @40B"});
    const auto mem = clf.memory_report();
    t.add_row({"live memory", TextTable::num(
                                  static_cast<double>(mem.total_used_bits) /
                                      1e3,
                                  0) +
                                  " Kb"});
    t.print(std::cout);

    if (verify) {
      const OracleVerify v = verify_against_oracle(clf, rules, trace);
      std::cout << "verify: " << v.agree << "/" << trace.size()
                << " agree with the linear-search oracle\n";
      if (mode == core::CombineMode::kCrossProduct &&
          v.agree != trace.size()) {
        return 1;
      }
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Engine/thread/allocation failures (e.g. an absurd --workers value
    // exhausting std::thread) must exit cleanly, not std::terminate.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
