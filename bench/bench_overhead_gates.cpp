/// \file bench_overhead_gates.cpp
/// The two host-overhead gates of the dataplane engine. Each is an A/B
/// of one worker, flow cache off (every packet takes the full 4-phase
/// lookup), interleaved best-of-7 passes per leg on the fw-like and
/// zipf shapes; it exits nonzero when the on-leg costs more than 3%
/// Mpps.
///
///   --telemetry-gate   telemetry fully off vs live counters + trace
///                      ring + background sampler on: the
///                      "near-zero-cost" observability contract.
///   --supervisor-gate  supervisor off vs supervisor on (heartbeats,
///                      watchdog thread, restart bookkeeping) with an
///                      armed empty-plan FaultInjector — the drained-plan
///                      fast path every supervised production run pays.
///                      Telemetry is off in both legs, so the delta
///                      isolates the robustness plane.
///
/// With neither flag both gates run.
///
/// Usage: bench_overhead_gates [--packets N] [--telemetry-gate]
///                             [--supervisor-gate]
#include <algorithm>
#include <functional>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/parse.hpp"
#include "dataplane/engine.hpp"
#include "fault/fault.hpp"

using namespace pclass;
using namespace pclass::bench;

namespace {

struct Shape {
  const char* name;
  Workload w;
};

/// One timed engine pass; \p on selects the gate's on-leg.
using Leg = std::function<double(const dataplane::RuleProgramPublisher&,
                                 const net::Trace&, bool on)>;

double engine_mpps(const dataplane::RuleProgramPublisher& programs,
                   const net::Trace& trace, dataplane::EngineConfig cfg) {
  dataplane::TrafficPool pool =
      dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);
  cfg.workers = 1;
  cfg.flow_cache_depth = 0;
  dataplane::Engine engine(cfg, programs);
  return engine.run(pool).aggregate_mpps();
}

double telemetry_leg(const dataplane::RuleProgramPublisher& programs,
                     const net::Trace& trace, bool on) {
  dataplane::EngineConfig cfg;
  cfg.telemetry = on;
  // The gate measures the full shipping configuration: rings written
  // per batch *and* the background sampler reading them.
  cfg.stats_interval_ms = on ? 10 : 0;
  return engine_mpps(programs, trace, cfg);
}

double supervisor_leg(const dataplane::RuleProgramPublisher& programs,
                      const net::Trace& trace, bool on) {
  fault::FaultInjector injector{fault::FaultPlan{}};
  dataplane::EngineConfig cfg;
  cfg.telemetry = false;
  if (on) {
    cfg.fault_injector = &injector;
    cfg.supervisor.enabled = true;  // defaults: the shipping knobs
  }
  return engine_mpps(programs, trace, cfg);
}

/// Interleaved best-of-\p reps per leg: alternating off/on passes
/// shares slow-host noise between the legs instead of letting it land
/// on one of them.
int run_gate(const std::string& title, const std::string& what,
             const std::vector<Shape>& shapes, const Leg& leg, usize reps,
             double max_overhead) {
  bool ok = true;
  TextTable t({"shape", "off Mpps", "on Mpps", "overhead", "budget"});
  for (const Shape& shape : shapes) {
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(shape.w.rules.size());
    cfg.combine_mode = core::CombineMode::kCrossProduct;
    dataplane::RuleProgramPublisher programs(cfg);
    programs.install_ruleset(shape.w.rules);

    // Warmup (page in the trace, fault the structures), then measure.
    (void)leg(programs, shape.w.trace, false);
    (void)leg(programs, shape.w.trace, true);
    double best_off = 0;
    double best_on = 0;
    for (usize r = 0; r < reps; ++r) {
      best_off = std::max(best_off, leg(programs, shape.w.trace, false));
      best_on = std::max(best_on, leg(programs, shape.w.trace, true));
    }
    const double overhead =
        best_off <= 0 ? 0.0 : (best_off - best_on) / best_off;
    if (overhead > max_overhead) ok = false;
    t.add_row({shape.name, TextTable::num(best_off, 3),
               TextTable::num(best_on, 3),
               TextTable::num(overhead * 100, 2) + "%",
               TextTable::num(max_overhead * 100, 0) + "%"});
  }
  header(title + " overhead gate",
         "1 worker, flow cache off, best of " + std::to_string(reps) +
             " interleaved reps per leg.");
  t.print(std::cout);
  if (!ok) {
    std::cerr << "FAIL: " << what << " overhead exceeds the "
              << max_overhead * 100 << "% Mpps budget\n";
    return 1;
  }
  std::cout << "OK: " << what << " within the " << max_overhead * 100
            << "% Mpps budget\n";
  return 0;
}

int usage() {
  std::cerr << "usage: bench_overhead_gates [--packets N] "
               "[--telemetry-gate] [--supervisor-gate]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Gate legs are whole-engine runs; they need enough packets for the
  // wall clock to dominate thread start/join noise.
  usize packets = 200'000;
  bool telemetry_gate = false;
  bool supervisor_gate = false;
  u64 n = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--packets" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n == 0 || n > 10'000'000) {
        return usage();
      }
      packets = static_cast<usize>(n);
    } else if (flag == "--telemetry-gate") {
      telemetry_gate = true;
    } else if (flag == "--supervisor-gate") {
      supervisor_gate = true;
    } else {
      return usage();
    }
  }
  if (!telemetry_gate && !supervisor_gate) {
    telemetry_gate = supervisor_gate = true;
  }

  std::vector<Shape> shapes;
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

  constexpr usize kReps = 7;
  constexpr double kBudget = 0.03;
  int rc = 0;
  if (telemetry_gate) {
    rc |= run_gate("Telemetry", "telemetry (counters + ring + sampler)",
                   shapes, telemetry_leg, kReps, kBudget);
  }
  if (supervisor_gate) {
    rc |= run_gate("Supervisor",
                   "supervisor (heartbeats + watchdog + armed empty-plan "
                   "injector)",
                   shapes, supervisor_leg, kReps, kBudget);
  }
  return rc;
}
