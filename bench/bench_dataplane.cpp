/// \file bench_dataplane.cpp
/// The dataplane runtime's two headline claims:
///
///   1. Scaling curve — aggregate lookup throughput (host Mpps) of the
///      batched engine at 1/2/4/8 workers over a ClassBench-style
///      ruleset, with per-worker p50/p99 lookup-cycle latency. Speedup
///      is hardware-bound: showing 2x at 4 workers needs >= 4 cores.
///
///   2. Update storm — 10k controller updates stream through the
///      RuleProgramPublisher while 4 workers classify continuously.
///      The bench fails (nonzero exit) on any correctness violation:
///      non-monotonic snapshot versions, a torn verdict, or a stalled
///      engine (deadlock).
///
/// Usage: bench_dataplane [--duration-ms N] [--updates N]
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "common/parse.hpp"
#include "dataplane/engine.hpp"
#include "workload/trace_synth.hpp"

using namespace pclass;
using namespace pclass::bench;

namespace {

struct ScalePoint {
  usize workers = 0;
  double mpps = 0;
  double speedup = 1.0;
  u64 p50 = 0;
  u64 p99 = 0;
  double hit_rate = 0;
  u64 memo_hits = 0;
};

ScalePoint run_point(const dataplane::RuleProgramPublisher& programs,
                     dataplane::TrafficPool& pool, usize workers,
                     u32 cache_depth, int duration_ms) {
  pool.reset();
  dataplane::Engine engine(
      {.workers = workers,
       .batch_size = net::kDefaultBatchCapacity,
       .flow_cache_depth = cache_depth,
       .loop = true},
      programs);
  engine.start(pool);
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  const dataplane::EngineReport rep = engine.stop();

  ScalePoint p;
  p.workers = workers;
  p.mpps = rep.aggregate_mpps();
  const auto lat = rep.merged_latency();
  p.p50 = lat.percentile(50);
  p.p99 = lat.percentile(99);
  u64 hits = 0;
  u64 misses = 0;
  for (const auto& w : rep.workers) {
    hits += w.cache_hits;
    misses += w.cache_misses;
    p.memo_hits += w.probe_memo_hits;
  }
  p.hit_rate = hits + misses == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(hits + misses);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  int duration_ms = 400;
  u32 storm_updates = 10'000;
  const auto usage = [] {
    std::cerr << "usage: bench_dataplane [--duration-ms N] [--updates N]\n";
    return 2;
  };
  u64 n = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--duration-ms" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n > 3'600'000) return usage();
      duration_ms = static_cast<int>(n);
    } else if (flag == "--updates" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) ||
          n > std::numeric_limits<u32>::max()) {
        return usage();
      }
      storm_updates = static_cast<u32>(n);
    } else {
      return usage();
    }
  }

  header("Dataplane engine — multi-worker scaling",
         "Batched element pipeline over one shared rule program; "
         "host has " +
             std::to_string(std::thread::hardware_concurrency()) +
             " hardware threads.");

  // Structural ACL profile + flow-structured trace from the workload
  // subsystem (overlap control, correlated pairs, Zipf + bursts).
  const Workload w = make_profile_workload(
      workload::RulesetProfile::acl(4000),
      workload::TraceProfile::standard(20'000, 2014 ^ 0xABCD));
  core::ClassifierConfig cfg = core::ClassifierConfig::for_scale(
      w.rules.size() + 256 /* storm headroom */);
  cfg.combine_mode = core::CombineMode::kCrossProduct;  // exact lookups
  dataplane::RuleProgramPublisher programs(cfg);
  programs.install_ruleset(w.rules);
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(w.trace, /*materialize=*/false);

  TextTable scale({"workers", "Mpps", "speedup", "p50 cyc", "p99 cyc",
                   "cache hit%", "memo hits"});
  double base_mpps = 0;
  double speedup_at_4 = 0;
  for (const usize workers : {usize{1}, usize{2}, usize{4}, usize{8}}) {
    const ScalePoint p =
        run_point(programs, pool, workers, /*cache_depth=*/4096,
                  duration_ms);
    const double speedup = base_mpps == 0 ? 1.0 : p.mpps / base_mpps;
    if (workers == 1) base_mpps = p.mpps;
    if (workers == 4) speedup_at_4 = speedup;
    scale.add_row({std::to_string(workers), TextTable::num(p.mpps, 3),
                   TextTable::num(speedup, 2) + "x",
                   std::to_string(p.p50), std::to_string(p.p99),
                   TextTable::num(p.hit_rate * 100.0, 1),
                   std::to_string(p.memo_hits)});
  }
  scale.print(std::cout);
  std::cout << "speedup at 4 workers: " << TextTable::num(speedup_at_4, 2)
            << "x (target >= 2x; requires >= 4 free cores)\n";

  header("Batch path A/B — phase-2 engine vs scalar loop",
         "Same ruleset and traffic, 4 workers; the phase-2 engine "
         "sorts per-dimension keys per batch and memoizes repeated "
         "combinations.");
  {
    core::ClassifierConfig scalar_cfg = cfg;
    scalar_cfg.batch_path_policy = core::PathPolicy::kForceScalarLoop;
    dataplane::RuleProgramPublisher scalar_programs(scalar_cfg);
    scalar_programs.install_ruleset(w.rules);
    const ScalePoint p2 =
        run_point(programs, pool, 4, /*cache_depth=*/4096, duration_ms);
    const ScalePoint sc = run_point(scalar_programs, pool, 4,
                                    /*cache_depth=*/4096, duration_ms);
    TextTable ab({"mode", "Mpps", "p99 cyc", "memo hits"});
    ab.add_row({"phase2", TextTable::num(p2.mpps, 3),
                std::to_string(p2.p99), std::to_string(p2.memo_hits)});
    ab.add_row({"scalar", TextTable::num(sc.mpps, 3),
                std::to_string(sc.p99), "0"});
    ab.print(std::cout);
  }

  header("Update storm — lookups under concurrent rule churn",
         std::to_string(storm_updates) +
             " add/remove updates stream through the publisher while 4 "
             "workers classify.");

  pool.reset();
  dataplane::Engine engine({.workers = 4,
                            .batch_size = net::kDefaultBatchCapacity,
                            .flow_cache_depth = 4096,
                            .loop = true},
                           programs);
  const u64 version_before = programs.version();
  engine.start(pool);

  const workload::UpdateStorm storm_sched = workload::make_update_storm(
      w.rules, storm_updates & ~u32{1}, /*first_id=*/60'000, 2014);
  const auto t0 = std::chrono::steady_clock::now();
  hw::UpdateStats device_cost;
  u64 applied = 0;
  for (const sdn::Message& msg : storm_sched.schedule) {
    device_cost += programs.apply(msg);
    ++applied;
  }
  const double storm_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const dataplane::EngineReport storm = engine.stop();

  const bool monotonic = storm.versions_monotonic();
  const bool progressed =
      storm.packets() > 0 && storm.first_error().empty();
  const bool versions_ok =
      programs.version() == version_before + applied;

  TextTable st({"metric", "value"});
  st.add_row({"updates applied", std::to_string(applied)});
  st.add_row({"update rate",
              TextTable::num(static_cast<double>(applied) / storm_secs / 1e3, 1) +
                  " K updates/s"});
  st.add_row({"device update cost",
              std::to_string(device_cost.cycles) + " bus cycles"});
  st.add_row({"grace-period yields",
              std::to_string(programs.stats().grace_spins)});
  st.add_row({"lookups during storm", std::to_string(storm.packets())});
  st.add_row({"storm throughput",
              TextTable::num(storm.aggregate_mpps(), 3) + " Mpps"});
  st.add_row({"versions monotonic", monotonic ? "yes" : "NO"});
  st.add_row({"engine progressed", progressed ? "yes" : "NO (deadlock?)"});
  st.add_row({"final version == expected", versions_ok ? "yes" : "NO"});
  st.print(std::cout);

  if (!monotonic || !progressed || !versions_ok) {
    std::cerr << "FAIL: snapshot consistency violated under update storm\n";
    return 1;
  }
  std::cout << "OK: lookups sustained across " << applied
            << " concurrent updates with monotonic snapshots\n";
  return 0;
}
