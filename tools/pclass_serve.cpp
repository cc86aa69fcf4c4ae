/// \file pclass_serve.cpp
/// Long-running dataplane daemon with a live introspection plane: the
/// engine loops over a header trace while a line-oriented control
/// socket (TCP loopback or Unix domain) serves reads (`read stats|
/// metrics|timeseries|version|verify`), writes (`rule add/remove/
/// modify`, `set <knob>`, `trace start/stop/dump`, `drain`,
/// `shutdown`) and streaming subscriptions (`subscribe stats <ms>`).
/// docs/CONTROL.md documents the wire protocol; tools/pclass_ctl.py is
/// the reference client.
///
///   pclass_serve --rules FILE --trace FILE
///                [--listen tcp:PORT | tcp:HOST:PORT | unix:PATH]
///                [--workers N] [--batch B] [--cache-depth N]
///                [--stats-interval-ms N] [--ip-alg mbt|bst|rvh]
///                [--memo persistent|off]
///                [--path-policy adaptive|phase2|scalar-loop]
///                [--shards N] [--steer-symmetric]
///                [--fault-plan SPEC] [--report FILE] [--version]
///
/// --shards N serves the loop with N RSS-style shards (per-flow steered
/// slices, one classifier replica + flow cache + probe memo per shard);
/// `read stats` then reports one row per shard.
///
/// The engine runs supervised: a watchdog thread restarts workers that
/// die (bounded retries with backoff), detects heartbeat stalls, and in
/// sharded mode reassigns an unrecoverable worker's shards to
/// survivors. --fault-plan SPEC injects deterministic faults (grammar:
/// throw:w=W@S, stall:w=W@S:ms=D, pubfail:u=K, conndrop:r=K — see
/// docs/ROBUSTNESS.md) for chaos drills; conndrop events make the
/// control server drop the matching request's connection mid-flight.
/// The exit code is nonzero iff any worker ended permanently failed
/// (post-retry); healed restarts are reported but do not fail the run.
///
/// Rule/trace files may be ClassBench text or the versioned PCR1/PCT1
/// binaries (sniffed by magic). Once serving, the first stdout line is
///
///   READY endpoint=<ep> pid=<pid> version=<v> rules=<n> workers=<k>
///
/// which scripted drivers (CI, pclass_ctl.py --wait) key on.
///
/// Shutdown: SIGINT/SIGTERM or a `write shutdown` request drains the
/// workers (final telemetry flush included), closes every subscriber
/// with a terminal record, writes the JSON report (--report, schema
/// pclass-serve-v1: totals, timeseries, server counters and the
/// socket-to-dataplane update-visibility rollup) and exits 0.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/build_info.hpp"
#include "common/parse.hpp"
#include "control/control_plane.hpp"
#include "control/server.hpp"
#include "dataplane/engine.hpp"
#include "fault/fault.hpp"
#include "net/trace.hpp"
#include "ruleset/classbench.hpp"
#include "workload/binio.hpp"
#include "workload/json_writer.hpp"

using namespace pclass;

namespace {

int usage() {
  std::cerr
      << "usage: pclass_serve --rules FILE --trace FILE\n"
         "                    [--listen tcp:PORT|tcp:HOST:PORT|unix:PATH]\n"
         "                    [--workers N] [--batch B] [--cache-depth N]\n"
         "                    [--stats-interval-ms N] "
         "[--ip-alg mbt|bst|rvh]\n"
         "                    [--memo persistent|off]\n"
         "                    [--path-policy adaptive|phase2|scalar-loop]\n"
         "                    [--shards N] [--steer-symmetric]\n"
         "                    [--fault-plan SPEC] [--report FILE] "
         "[--version]\n"
         "(rules/trace: ClassBench text or PCR1/PCT1 binaries, sniffed)\n";
  return 2;
}

/// Signal-driven and socket-driven shutdown share one flag; the handler
/// may only touch async-signal-safe state.
std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

/// Load a rule file, sniffing the PCR1 magic vs. ClassBench text.
ruleset::RuleSet load_rules(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open " + path);
  char magic[4] = {};
  is.read(magic, 4);
  const bool binary = is.gcount() == 4 && std::string_view(magic, 4) == "PCR1";
  is.close();
  if (binary) return workload::binio::load_ruleset_file(path);
  std::ifstream text(path);
  return ruleset::classbench::read(text, path);
}

/// Load a trace file, sniffing the PCT1 magic vs. text.
net::Trace load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open " + path);
  char magic[4] = {};
  is.read(magic, 4);
  const bool binary = is.gcount() == 4 && std::string_view(magic, 4) == "PCT1";
  is.close();
  if (binary) return workload::binio::load_trace_file(path);
  std::ifstream text(path);
  return net::Trace::read(text);
}

/// `tcp:PORT`, `tcp:HOST:PORT` or `unix:PATH` -> ServerConfig.
control::ServerConfig parse_listen(const std::string& spec) {
  control::ServerConfig cfg;
  if (spec.starts_with("unix:")) {
    cfg.unix_path = spec.substr(5);
    if (cfg.unix_path.empty()) throw Error("--listen unix: empty path");
    return cfg;
  }
  if (!spec.starts_with("tcp:")) {
    throw Error("--listen: expected tcp:PORT, tcp:HOST:PORT or unix:PATH");
  }
  std::string rest = spec.substr(4);
  const usize colon = rest.rfind(':');
  if (colon != std::string::npos) {
    cfg.tcp_host = rest.substr(0, colon);
    rest = rest.substr(colon + 1);
  }
  u64 port = 0;
  if (!parse_count(rest, port) || port > 0xFFFF) {
    throw Error("--listen: bad port '" + rest + "'");
  }
  cfg.tcp_port = static_cast<u16>(port);
  return cfg;
}

void write_report(std::ostream& os, const dataplane::EngineReport& rep,
                  const control::ControlPlane& cp,
                  const control::ControlServer& server) {
  const auto& build = common::build_info();
  const control::SocketVisibility sv = cp.socket_visibility();
  const dataplane::UpdateVisibility uv = rep.update_visibility();
  workload::JsonWriter j(os);
  j.begin_object();
  j.key("schema").value("pclass-serve-v1");
  j.key("meta").begin_object();
  j.key("build").begin_object();
  j.key("version").value(build.version);
  j.key("git_sha").value(build.git_sha);
  j.key("compiler").value(build.compiler);
  j.key("build_type").value(build.build_type);
  j.end_object();
  j.end_object();
  j.key("endpoint").value(server.endpoint());
  j.key("wall_seconds").value(rep.wall_seconds);

  u64 batches = 0, dropped = 0, cache_hits = 0, lookups = 0, mem = 0,
      memo_hits = 0;
  j.key("workers").begin_array();
  for (const auto& w : rep.workers) {
    batches += w.batches;
    dropped += w.dropped;
    cache_hits += w.cache_hits;
    lookups += w.classifier_lookups;
    mem += w.memory_accesses;
    memo_hits += w.probe_memo_hits;
    j.begin_object();
    j.key("worker").value(static_cast<u64>(w.worker));
    j.key("packets").value(w.packets);
    j.key("batches").value(w.batches);
    j.key("matched").value(w.matched);
    j.key("dropped").value(w.dropped);
    j.key("cache_hits").value(w.cache_hits);
    j.key("classifier_lookups").value(w.classifier_lookups);
    j.key("memory_accesses").value(w.memory_accesses);
    j.key("probe_memo_hits").value(w.probe_memo_hits);
    j.key("mpps").value(w.mpps());
    j.key("p50_cycles").value(w.latency.percentile(50));
    j.key("p99_cycles").value(w.latency.percentile(99));
    if (!w.error.empty()) j.key("error").value(w.error);
    j.end_object();
  }
  j.end_array();

  // Raw per-shard rows (empty unsharded); workers[] above stays the
  // authoritative double-count-free view.
  j.key("shards").begin_array();
  for (const auto& s : rep.shards) {
    j.begin_object();
    j.key("shard").value(static_cast<u64>(s.worker));
    j.key("packets").value(s.packets);
    j.key("batches").value(s.batches);
    j.key("matched").value(s.matched);
    j.key("dropped").value(s.dropped);
    j.key("cache_hits").value(s.cache_hits);
    j.key("classifier_lookups").value(s.classifier_lookups);
    j.key("memory_accesses").value(s.memory_accesses);
    j.key("probe_memo_hits").value(s.probe_memo_hits);
    j.key("p50_cycles").value(s.latency.percentile(50));
    j.key("p99_cycles").value(s.latency.percentile(99));
    j.end_object();
  }
  j.end_array();

  j.key("totals").begin_object();
  j.key("packets").value(rep.packets());
  j.key("batches").value(batches);
  j.key("matched").value(rep.matched());
  j.key("dropped").value(dropped);
  j.key("cache_hits").value(cache_hits);
  j.key("classifier_lookups").value(lookups);
  j.key("memory_accesses").value(mem);
  j.key("probe_memo_hits").value(memo_hits);
  j.key("aggregate_mpps").value(rep.aggregate_mpps());
  j.end_object();

  j.key("update_visibility").begin_object();
  j.key("samples").value(uv.samples);
  j.key("mean_ns").value(uv.mean_ns);
  j.key("max_ns").value(uv.max_ns);
  j.end_object();

  j.key("socket").begin_object();
  j.key("updates_accepted").value(cp.updates_accepted());
  j.key("connections_accepted").value(server.connections_accepted());
  j.key("connections_rejected").value(server.connections_rejected());
  j.key("requests_served").value(server.requests_served());
  j.key("visibility").begin_object();
  j.key("samples").value(sv.samples);
  j.key("cmd_to_first_mean_ns").value(sv.cmd_to_first_mean_ns);
  j.key("cmd_to_first_max_ns").value(sv.cmd_to_first_max_ns);
  j.key("cmd_to_all_mean_ns").value(sv.cmd_to_all_mean_ns);
  j.key("cmd_to_all_max_ns").value(sv.cmd_to_all_max_ns);
  j.key("publish_to_first_mean_ns").value(sv.publish_to_first_mean_ns);
  j.key("publish_to_first_max_ns").value(sv.publish_to_first_max_ns);
  j.key("pending").value(sv.pending);
  j.key("unresolved").value(sv.unresolved);
  j.end_object();
  j.end_object();

  j.key("supervisor").begin_object();
  j.key("worker_restarts").value(rep.worker_restarts);
  j.key("stall_detections").value(rep.stall_detections);
  j.key("shards_reassigned").value(rep.shards_reassigned);
  j.key("workers_failed").value(rep.workers_failed);
  j.end_object();

  j.key("errors").begin_array();
  for (const auto& d : rep.error_log) {
    j.begin_object();
    j.key("worker").value(static_cast<u64>(d.worker));
    j.key("restarts").value(d.restarts);
    j.key("permanent").value(d.permanent);
    j.key("message").value(d.message);
    j.end_object();
  }
  j.end_array();

  j.key("timeseries").begin_array();
  for (const auto& s : rep.timeseries) control::write_stats_sample(j, s);
  j.end_array();
  j.end_object();
  os << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string rules_path;
  std::string trace_path;
  std::string listen_spec = "tcp:0";
  std::string report_path;
  usize workers = 2;
  usize batch = net::kDefaultBatchCapacity;
  u32 cache_depth = 0;
  u64 stats_interval_ms = 100;
  core::IpAlgorithm ip_algorithm = core::IpAlgorithm::kMbt;
  core::PathPolicy path_policy = core::PathPolicy::kAdaptive;
  bool probe_memo = true;
  usize shards = 0;
  bool steer_symmetric = false;
  std::string fault_plan_spec;

  u64 n = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--version") {
      std::cout << common::version_line("pclass_serve") << "\n";
      return 0;
    } else if (flag == "--rules" && i + 1 < argc) {
      rules_path = argv[++i];
    } else if (flag == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (flag == "--listen" && i + 1 < argc) {
      listen_spec = argv[++i];
    } else if (flag == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (flag == "--workers" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n == 0 || n > 256) return usage();
      workers = static_cast<usize>(n);
    } else if (flag == "--batch" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n == 0) return usage();
      batch = static_cast<usize>(n);
    } else if (flag == "--cache-depth" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n > (u64{1} << 24)) return usage();
      cache_depth = static_cast<u32>(n);
    } else if (flag == "--stats-interval-ms" && i + 1 < argc) {
      if (!parse_count(argv[++i], n) || n > 3'600'000) return usage();
      stats_interval_ms = n;
    } else if (flag == "--ip-alg" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "mbt") ip_algorithm = core::IpAlgorithm::kMbt;
      else if (v == "bst") ip_algorithm = core::IpAlgorithm::kBst;
      else if (v == "rvh") ip_algorithm = core::IpAlgorithm::kRvh;
      else return usage();
    } else if (flag == "--memo" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "persistent") probe_memo = true;
      else if (v == "off") probe_memo = false;
      else return usage();
    } else if (flag == "--shards" && i + 1 < argc) {
      // 0 = unsharded.
      if (!parse_count(argv[++i], n) || n > 256) return usage();
      shards = static_cast<usize>(n);
    } else if (flag == "--steer-symmetric") {
      steer_symmetric = true;
    } else if (flag == "--fault-plan" && i + 1 < argc) {
      fault_plan_spec = argv[++i];
    } else if (flag == "--path-policy" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "adaptive") path_policy = core::PathPolicy::kAdaptive;
      else if (v == "phase2") path_policy = core::PathPolicy::kForcePhase2;
      else if (v == "scalar-loop") {
        path_policy = core::PathPolicy::kForceScalarLoop;
      } else {
        return usage();
      }
    } else {
      return usage();
    }
  }
  if (rules_path.empty() || trace_path.empty()) return usage();

  try {
    const ruleset::RuleSet rules = load_rules(rules_path);
    const net::Trace trace = load_trace(trace_path);
    if (trace.empty()) throw Error("trace is empty; nothing to serve");
    std::cerr << common::version_line("pclass_serve") << "\n"
              << "loaded " << rules.size() << " rules, " << trace.size()
              << " headers\n";

    // Headroom over the installed set so socket-driven `rule add`s have
    // device memory to land in.
    core::ClassifierConfig cfg =
        core::ClassifierConfig::for_scale(rules.size() + 1024);
    cfg.combine_mode = core::CombineMode::kCrossProduct;
    cfg.ip_algorithm = ip_algorithm;
    cfg.batch_probe_memo = probe_memo;
    cfg.batch_path_policy = path_policy;

    dataplane::RuleProgramPublisher programs(cfg);
    programs.install_ruleset(rules);
    dataplane::TrafficPool pool =
        dataplane::TrafficPool::from_trace(trace, /*materialize=*/false);

    // Fault injection (chaos drills): the injector must outlive the
    // engine and the control server, both of which hold pointers in.
    std::unique_ptr<fault::FaultInjector> injector;
    if (!fault_plan_spec.empty()) {
      injector = std::make_unique<fault::FaultInjector>(
          fault::FaultPlan::parse(fault_plan_spec));
      programs.set_fault_hook(
          [inj = injector.get()] { inj->on_publisher_apply(); });
      std::cerr << "fault plan armed: " << injector->plan().to_string()
                << "\n";
    }

    dataplane::EngineConfig ecfg{.workers = workers,
                                 .batch_size = batch,
                                 .flow_cache_depth = cache_depth,
                                 .loop = true,
                                 .stats_interval_ms = stats_interval_ms,
                                 .shards = shards,
                                 .steer_symmetric = steer_symmetric};
    // The daemon always runs supervised: workers that die restart with
    // bounded retries, stalls are detected, and a permanently failed
    // worker's shards move to survivors instead of wedging the loop.
    ecfg.supervisor.enabled = true;
    ecfg.fault_injector = injector.get();
    dataplane::Engine engine(ecfg, programs);
    workers = engine.config().workers;

    struct sigaction sa = {};
    sa.sa_handler = handle_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    engine.start(pool);

    control::ControlPlane::Options copts;
    copts.verify_trace = &trace;
    copts.request_shutdown = [] {
      g_stop.store(true, std::memory_order_relaxed);
    };
    control::ControlPlane cp(engine, programs, copts);
    control::ServerConfig scfg = parse_listen(listen_spec);
    if (injector) {
      scfg.drop_request_hook = [inj = injector.get()](u64 request_index) {
        return inj->should_drop_request(request_index);
      };
    }
    control::ControlServer server(std::move(scfg), &cp.registry(),
                                  cp.subscribe_hooks());
    server.start();

    std::cout << "READY endpoint=" << server.endpoint()
              << " pid=" << ::getpid() << " version=" << programs.version()
              << " rules=" << programs.acquire()->rule_count()
              << " workers=" << workers << " shards=" << shards << "\n"
              << std::flush;

    while (!g_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    std::cerr << "pclass_serve: shutting down (drain -> report)\n";
    // Drain first (stop workers, final telemetry flush, settle the
    // visibility ledger) so the report carries complete totals; then
    // stop the server, which sends every live subscriber its terminal
    // record before closing. `write drain` earlier makes this a no-op.
    const dataplane::EngineReport rep = cp.drain();
    server.stop();

    if (!report_path.empty()) {
      std::ofstream os(report_path);
      if (!os) throw Error("cannot open " + report_path);
      write_report(os, rep, cp, server);
      std::cerr << "wrote " << report_path << "\n";
    }

    const control::SocketVisibility sv = cp.socket_visibility();
    std::cerr << "served " << server.requests_served() << " requests on "
              << server.connections_accepted() << " connections; "
              << cp.updates_accepted() << " socket updates ("
              << sv.samples << " visibility samples, cmd->all mean "
              << sv.cmd_to_all_mean_ns / 1e6 << " ms, max "
              << static_cast<double>(sv.cmd_to_all_max_ns) / 1e6
              << " ms)\n"
              << "processed " << rep.packets() << " packets ("
              << rep.aggregate_mpps() << " Mpps aggregate)\n";
    // Surface every worker death — healed incarnations and permanent
    // failures alike — then fail the run iff a worker ended permanently
    // failed (post-retry). A restart the supervisor healed is news, not
    // an error.
    for (const auto& d : rep.error_log) {
      std::cerr << "worker " << d.worker << " [restarts=" << d.restarts
                << (d.permanent ? ", permanent" : ", healed") << "]: "
                << d.message << "\n";
    }
    if (rep.worker_restarts > 0 || rep.stall_detections > 0 ||
        rep.shards_reassigned > 0) {
      std::cerr << "supervisor: restarts=" << rep.worker_restarts
                << " stalls=" << rep.stall_detections
                << " shards_reassigned=" << rep.shards_reassigned << "\n";
    }
    if (rep.workers_failed > 0) {
      std::cerr << "error: " << rep.workers_failed
                << " worker(s) ended permanently failed (post-retry)\n";
      return 1;
    }
    if (const std::string err = rep.first_error(); !err.empty()) {
      std::cerr << "error: worker failed: " << err << "\n";
      return 1;
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
