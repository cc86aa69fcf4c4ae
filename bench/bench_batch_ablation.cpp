/// \file bench_batch_ablation.cpp
/// Phase-2 batch engine ablation: scalar loop vs phase2 (memo off) vs
/// phase2 with the snapshot-keyed probe memo vs the adaptive cost-model
/// path controller, across batch sizes, on three workload shapes —
///
///   * fw-like      wildcard-heavy lists, heavy combination reuse
///                  (the probe memo's home turf);
///   * zipf-flows   flow-structured ACL traffic (combine-level dedup +
///                  cross-batch flow locality: the memo's best case);
///   * cache-thrash every packet a distinct flow at maximal repeat
///                  distance (traffic engineered against batching; the
///                  controller must degrade to ~scalar cost).
///
/// For each point: single-threaded host throughput over the whole
/// trace, modeled mean/p99 lookup cycles (exact percentiles, not the
/// histogram buckets), probe-memo hits and invalidations — on
/// byte-identical workloads when --load-workloads replays
/// scenario-saved PCR1/PCT1 files.
///
/// Correctness gate: every phase-2 verdict and per-packet access count
/// is compared against the scalar path; any mismatch exits nonzero.
///
/// --telemetry-gate runs the observability overhead gate instead of the
/// ablation matrix: the dataplane engine on a pinned single-worker
/// phase-2 config (flow cache off, so every packet takes the full
/// lookup), telemetry fully off vs live counters + trace ring +
/// background sampler on, interleaved best-of-N on the fw-like and
/// zipf shapes. Exits nonzero when the on-leg costs more than 3% Mpps —
/// the "near-zero-cost" contract CI enforces.
///
/// --supervisor-gate is the same A/B harness pointed at the robustness
/// plane (PR 9): supervisor off vs supervisor on (heartbeats, watchdog
/// thread, restart bookkeeping) with an armed empty-plan FaultInjector
/// — the drained-plan fast path every supervised production run pays.
/// Same shapes, same interleaved best-of-N, same 3% Mpps budget.
///
/// Usage: bench_batch_ablation [--packets N] [--ip-alg mbt|bst|rvh]
///                             [--load-workloads DIR]
///                             [--telemetry-gate] [--supervisor-gate]
#include <algorithm>
#include <chrono>
#include <iostream>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "common/parse.hpp"
#include "dataplane/engine.hpp"
#include "fault/fault.hpp"
#include "net/packet_batch.hpp"
#include "workload/binio.hpp"

using namespace pclass;
using namespace pclass::bench;

namespace {

struct Point {
  double mpps = 0;
  double mean_cycles = 0;
  u64 p99_cycles = 0;
  u64 memo_hits = 0;
  u64 memo_invalidations = 0;
  u64 memo_conflict_evictions = 0;
};

Point run_point(const core::ConfigurableClassifier& clf,
                std::span<const net::FiveTuple> in, usize batch,
                std::vector<core::ClassifyResult>& out) {
  out.assign(in.size(), {});
  core::BatchScratch scratch;
  const auto t0 = std::chrono::steady_clock::now();
  for (usize off = 0; off < in.size(); off += batch) {
    const usize len = std::min(batch, in.size() - off);
    clf.classify_batch(in.subspan(off, len),
                       std::span(out).subspan(off, len), scratch);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  Point p;
  p.mpps = secs <= 0 ? 0.0 : static_cast<double>(in.size()) / 1e6 / secs;
  p.memo_invalidations = scratch.memo_invalidations;
  p.memo_conflict_evictions = scratch.memo.conflict_evictions();
  u64 total = 0;
  std::vector<u64> cycles;
  cycles.reserve(out.size());
  for (const auto& r : out) {
    total += r.cycles;
    p.memo_hits += r.memo_hits;
    cycles.push_back(r.cycles);
  }
  std::sort(cycles.begin(), cycles.end());
  p.mean_cycles = static_cast<double>(total) /
                  static_cast<double>(out.size());
  p.p99_cycles = cycles[cycles.size() * 99 / 100];
  return p;
}

/// Verdict, access, probe and filter-check parity of a phase-2 run
/// against the scalar results.
bool equivalent(const std::vector<core::ClassifyResult>& got,
                const std::vector<core::ClassifyResult>& want) {
  for (usize i = 0; i < got.size(); ++i) {
    const bool same_match =
        got[i].match.has_value() == want[i].match.has_value() &&
        (!got[i].match || (got[i].match->rule == want[i].match->rule &&
                           got[i].match->priority == want[i].match->priority));
    if (!same_match || got[i].memory_accesses != want[i].memory_accesses ||
        got[i].crossproduct_probes != want[i].crossproduct_probes ||
        got[i].filter_checks != want[i].filter_checks) {
      return false;
    }
  }
  return true;
}

struct Shape {
  const char* name;
  Workload w;
};

/// One timed engine pass: single pinned worker, no flow cache (every
/// packet takes the full 4-phase lookup), telemetry per \p telemetry.
double gate_leg_mpps(const dataplane::RuleProgramPublisher& programs,
                     const net::Trace& trace, bool telemetry) {
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);
  dataplane::Engine engine(
      {.workers = 1,
       .flow_cache_depth = 0,
       .telemetry = telemetry,
       // The gate measures the full shipping configuration: rings
       // written per batch *and* the background sampler reading them.
       .stats_interval_ms = telemetry ? u64{10} : u64{0}},
      programs);
  const dataplane::EngineReport rep = engine.run(pool);
  return rep.aggregate_mpps();
}

/// The telemetry overhead gate described in the file header. Interleaved
/// best-of-\p reps per leg: alternating off/on passes shares slow-host
/// noise between the legs instead of letting it land on one of them.
int run_telemetry_gate(const std::vector<Shape>& shapes, usize reps,
                       double max_overhead) {
  bool ok = true;
  TextTable t({"shape", "off Mpps", "on Mpps", "overhead", "budget"});
  for (const Shape& shape : shapes) {
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(shape.w.rules.size());
    cfg.combine_mode = core::CombineMode::kCrossProduct;
    cfg.batch_path_policy = core::PathPolicy::kForcePhase2;
    dataplane::RuleProgramPublisher programs(cfg);
    programs.install_ruleset(shape.w.rules);

    // Warmup (page in the trace, fault the structures), then measure.
    (void)gate_leg_mpps(programs, shape.w.trace, false);
    (void)gate_leg_mpps(programs, shape.w.trace, true);
    double best_off = 0;
    double best_on = 0;
    for (usize r = 0; r < reps; ++r) {
      best_off = std::max(best_off,
                          gate_leg_mpps(programs, shape.w.trace, false));
      best_on = std::max(best_on,
                         gate_leg_mpps(programs, shape.w.trace, true));
    }
    const double overhead =
        best_off <= 0 ? 0.0 : (best_off - best_on) / best_off;
    if (overhead > max_overhead) ok = false;
    t.add_row({shape.name, TextTable::num(best_off, 3),
               TextTable::num(best_on, 3),
               TextTable::num(overhead * 100, 2) + "%",
               TextTable::num(max_overhead * 100, 0) + "%"});
  }
  header("Telemetry overhead gate",
         "1 worker, phase2 pinned, flow cache off, best of " +
             std::to_string(reps) + " interleaved reps per leg.");
  t.print(std::cout);
  if (!ok) {
    std::cerr << "FAIL: telemetry overhead exceeds the "
              << max_overhead * 100 << "% Mpps budget\n";
    return 1;
  }
  std::cout << "OK: telemetry (counters + ring + sampler) within the "
            << max_overhead * 100 << "% Mpps budget\n";
  return 0;
}

/// One timed engine pass for the supervisor gate: the same pinned
/// geometry as the telemetry gate (telemetry itself off in both legs,
/// so the delta isolates the robustness plane), baseline vs supervisor
/// enabled with an armed empty-plan FaultInjector — heartbeat stores,
/// the per-sweep injector fast path, and a live watchdog thread.
double supervisor_leg_mpps(const dataplane::RuleProgramPublisher& programs,
                           const net::Trace& trace, bool supervised) {
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);
  fault::FaultInjector injector{fault::FaultPlan{}};
  dataplane::EngineConfig cfg;
  cfg.workers = 1;
  cfg.flow_cache_depth = 0;
  cfg.telemetry = false;
  if (supervised) {
    cfg.fault_injector = &injector;
    cfg.supervisor.enabled = true;  // defaults: the shipping knobs
  }
  dataplane::Engine engine(cfg, programs);
  const dataplane::EngineReport rep = engine.run(pool);
  return rep.aggregate_mpps();
}

/// The supervisor overhead gate: same interleaved best-of-\p reps
/// protocol as the telemetry gate, same budget.
int run_supervisor_gate(const std::vector<Shape>& shapes, usize reps,
                        double max_overhead) {
  bool ok = true;
  TextTable t({"shape", "off Mpps", "on Mpps", "overhead", "budget"});
  for (const Shape& shape : shapes) {
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(shape.w.rules.size());
    cfg.combine_mode = core::CombineMode::kCrossProduct;
    cfg.batch_path_policy = core::PathPolicy::kForcePhase2;
    dataplane::RuleProgramPublisher programs(cfg);
    programs.install_ruleset(shape.w.rules);

    (void)supervisor_leg_mpps(programs, shape.w.trace, false);
    (void)supervisor_leg_mpps(programs, shape.w.trace, true);
    double best_off = 0;
    double best_on = 0;
    for (usize r = 0; r < reps; ++r) {
      best_off = std::max(best_off,
                          supervisor_leg_mpps(programs, shape.w.trace, false));
      best_on = std::max(best_on,
                         supervisor_leg_mpps(programs, shape.w.trace, true));
    }
    const double overhead =
        best_off <= 0 ? 0.0 : (best_off - best_on) / best_off;
    if (overhead > max_overhead) ok = false;
    t.add_row({shape.name, TextTable::num(best_off, 3),
               TextTable::num(best_on, 3),
               TextTable::num(overhead * 100, 2) + "%",
               TextTable::num(max_overhead * 100, 0) + "%"});
  }
  header("Supervisor overhead gate",
         "1 worker, phase2 pinned, flow cache off, empty fault plan, "
         "best of " +
             std::to_string(reps) + " interleaved reps per leg.");
  t.print(std::cout);
  if (!ok) {
    std::cerr << "FAIL: supervisor overhead exceeds the "
              << max_overhead * 100 << "% Mpps budget\n";
    return 1;
  }
  std::cout << "OK: supervisor (heartbeats + watchdog + armed empty-plan "
               "injector) within the "
            << max_overhead * 100 << "% Mpps budget\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  usize packets = 20'000;
  bool packets_set = false;
  bool telemetry_gate = false;
  bool supervisor_gate = false;
  core::IpAlgorithm ip_alg = core::IpAlgorithm::kMbt;
  std::string load_dir;
  u64 n = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--packets" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n == 0 || n > 10'000'000) {
        std::cerr << "usage: bench_batch_ablation [--packets N] "
                     "[--ip-alg mbt|bst|rvh] [--load-workloads DIR] "
                     "[--telemetry-gate] [--supervisor-gate]\n";
        return 2;
      }
      packets = static_cast<usize>(n);
      packets_set = true;
    } else if (flag == "--ip-alg" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "mbt") ip_alg = core::IpAlgorithm::kMbt;
      else if (v == "bst") ip_alg = core::IpAlgorithm::kBst;
      else if (v == "rvh") ip_alg = core::IpAlgorithm::kRvh;
      else {
        std::cerr << "usage: bench_batch_ablation [--packets N] "
                     "[--ip-alg mbt|bst|rvh] [--load-workloads DIR] "
                     "[--telemetry-gate] [--supervisor-gate]\n";
        return 2;
      }
    } else if (flag == "--load-workloads" && i + 1 < argc) {
      load_dir = argv[++i];
    } else if (flag == "--telemetry-gate") {
      telemetry_gate = true;
    } else if (flag == "--supervisor-gate") {
      supervisor_gate = true;
    } else {
      std::cerr << "usage: bench_batch_ablation [--packets N] "
                   "[--ip-alg mbt|bst|rvh] [--load-workloads DIR] "
                   "[--telemetry-gate] [--supervisor-gate]\n";
      return 2;
    }
  }
  // Gate legs are whole-engine runs; they need enough packets for the
  // wall clock to dominate thread start/join noise.
  if ((telemetry_gate || supervisor_gate) && !packets_set) packets = 200'000;
  std::vector<Shape> shapes;
  if (!load_dir.empty()) {
    // Byte-identical replay of the scenario runner's saved workloads
    // (pclass_scenario --save-workloads DIR), so this ablation and the
    // scenario reports — and any two PRs — measure the same bytes. The
    // loaded traces are capped at --packets to keep runtimes bounded.
    for (const char* name : {"fw-like", "zipf-locality", "cache-thrash"}) {
      Workload w;
      w.rules = workload::binio::load_ruleset_file(
          load_dir + "/" + name + ".rules.pcr1");
      w.trace = workload::binio::load_trace_file(
          load_dir + "/" + name + ".trace.pct1");
      w.trace.truncate(packets);
      shapes.push_back({name, std::move(w)});
    }
  } else {
    shapes.push_back(
        {"fw-like",
         make_profile_workload(
             workload::RulesetProfile::fw(1500, 2026),
             workload::TraceProfile::standard(packets, 2026 ^ 0xABCD))});
    shapes.push_back(
        {"zipf-flows",
         make_profile_workload(
             workload::RulesetProfile::acl(1200, 2026),
             workload::TraceProfile::zipf_heavy(packets, 2026 ^ 0x21BF))});
    Workload w;
    w.rules = workload::synthesize(workload::RulesetProfile::acl(1200, 2026));
    w.trace = workload::make_cache_thrash_trace(w.rules, packets, 32'768,
                                                2026 ^ 0x7447);
    shapes.push_back({"cache-thrash", std::move(w)});
  }

  if (telemetry_gate || supervisor_gate) {
    // fw-like + zipf only: cache-thrash's engineered anti-locality
    // makes its single-run variance swamp a 3% budget.
    shapes.resize(2);
    if (telemetry_gate) {
      const int rc =
          run_telemetry_gate(shapes, /*reps=*/7, /*max_overhead=*/0.03);
      if (rc != 0 || !supervisor_gate) return rc;
    }
    return run_supervisor_gate(shapes, /*reps=*/7, /*max_overhead=*/0.03);
  }

  bool ok = true;
  for (const Shape& shape : shapes) {
    header("Batch-phase-2 ablation — " + std::string(shape.name),
           std::to_string(shape.w.rules.size()) + " rules, " +
               std::to_string(shape.w.trace.size()) +
               " headers, single thread, CrossProduct/" +
               to_string(ip_alg) + ".");

    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(shape.w.rules.size());
    cfg.combine_mode = core::CombineMode::kCrossProduct;
    cfg.ip_algorithm = ip_alg;
    core::ConfigurableClassifier clf(cfg);
    clf.add_rules(shape.w.rules);
    std::vector<net::FiveTuple> in;
    in.reserve(shape.w.trace.size());
    for (const auto& e : shape.w.trace) in.push_back(e.header);

    std::vector<core::ClassifyResult> scalar_res;
    std::vector<core::ClassifyResult> out;
    clf.set_batch_path_policy(core::PathPolicy::kForceScalarLoop);
    const Point scalar =
        run_point(clf, in, net::kDefaultBatchCapacity, scalar_res);

    // The mode matrix: forced rows isolate one mechanism each (batch
    // engine alone; + probe memo), the adaptive row is the shipping
    // configuration (cost-model controller free to pick any path per
    // batch).
    struct ModeSpec {
      const char* name;
      core::PathPolicy policy;
      bool memo;
    };
    constexpr ModeSpec kModes[] = {
        {"phase2", core::PathPolicy::kForcePhase2, false},
        {"p2+memo", core::PathPolicy::kForcePhase2, true},
        {"adaptive", core::PathPolicy::kAdaptive, true},
    };

    TextTable t({"batch", "mode", "Mpps", "vs scalar", "mean cyc",
                 "p99 cyc", "memo hits", "confl", "inval"});
    t.add_row({"-", "scalar", TextTable::num(scalar.mpps, 3), "1.00x",
               TextTable::num(scalar.mean_cycles, 1),
               std::to_string(scalar.p99_cycles), "0", "-", "-"});
    for (const usize batch : {usize{8}, usize{32}, usize{128}}) {
      for (const ModeSpec& mode : kModes) {
        clf.set_batch_path_policy(mode.policy);
        clf.set_batch_probe_memo(mode.memo);
        const Point p = run_point(clf, in, batch, out);
        if (!equivalent(out, scalar_res)) {
          std::cerr << "FAIL: " << mode.name << " (batch " << batch
                    << ") diverged from the scalar path on " << shape.name
                    << "\n";
          ok = false;
        }
        t.add_row({std::to_string(batch), mode.name,
                   TextTable::num(p.mpps, 3),
                   TextTable::num(p.mpps / scalar.mpps, 2) + "x",
                   TextTable::num(p.mean_cycles, 1),
                   std::to_string(p.p99_cycles),
                   std::to_string(p.memo_hits),
                   std::to_string(p.memo_conflict_evictions),
                   std::to_string(p.memo_invalidations)});
      }
    }
    t.print(std::cout);
  }

  if (!ok) {
    std::cerr << "FAIL: batch ablation found scalar/phase2 divergence\n";
    return 1;
  }
  std::cout << "OK: phase-2 verdicts, probes, filter checks and access "
               "counts match the scalar path on all shapes\n";
  return 0;
}
