#include "control/control_plane.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "baseline/linear_search.hpp"
#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "telemetry/export.hpp"
#include "workload/json_writer.hpp"

namespace pclass::control {

using common::build_info;

namespace {

/// How often the visibility watcher re-reads the workers'
/// snapshot_version counters while updates are in flight. Latency
/// samples are upper bounds tight to this granularity.
constexpr auto kVisibilityPoll = std::chrono::microseconds(200);

u64 elapsed_clamped(u64 later_ns, u64 earlier_ns) {
  // Same steady clock on both stamps, but clamp anyway (and never
  // report a zero: the events are causally ordered, so a sub-tick
  // measurement still took *some* time).
  return later_ns > earlier_ns ? later_ns - earlier_ns : 1;
}

}  // namespace

void write_stats_sample(workload::JsonWriter& w,
                        const telemetry::StatsSample& s) {
  w.begin_object();
  w.key("t_ns").value(s.t_ns);
  w.key("interval_ns").value(s.interval_ns);
  w.key("packets").value(s.packets);
  w.key("batches").value(s.batches);
  w.key("cache_hits").value(s.cache_hits);
  w.key("classifier_lookups").value(s.classifier_lookups);
  w.key("probe_memo_hits").value(s.probe_memo_hits);
  w.key("memory_accesses").value(s.memory_accesses);
  w.key("mpps").value(s.mpps);
  w.key("p50_cycles").value(s.p50_cycles);
  w.key("p99_cycles").value(s.p99_cycles);
  w.key("min_version").value(s.min_version);
  w.key("max_version").value(s.max_version);
  w.key("update_visibility_samples").value(s.update_visibility_samples);
  w.key("update_visibility_mean_ns").value(s.update_visibility_mean_ns);
  w.end_object();
}

std::string format_stats_row(const telemetry::StatsSample& s) {
  std::ostringstream os;
  workload::JsonWriter w(os);
  write_stats_sample(w, s);
  os << '\n';
  return os.str();
}

/// Per-subscriber decimation window: sampler rows are merged sum-exactly
/// and emitted once the client's requested interval has elapsed, so a
/// coarse subscriber of a fine sampler still sees deltas that sum to
/// the totals. Shared-ptr owned by both the sampler callback and the
/// ControlPlane's map (whichever drops last frees it).
struct ControlPlane::SubState {
  u64 requested_ns = 0;
  std::function<void(const std::string&)> push;

  std::mutex mu;
  telemetry::StatsSample acc{};
  double vis_weight_ns = 0;  ///< samples-weighted visibility mean
  bool any = false;

  void merge_locked(const telemetry::StatsSample& s) {
    acc.t_ns = s.t_ns;
    acc.interval_ns += s.interval_ns;
    acc.packets += s.packets;
    acc.batches += s.batches;
    acc.cache_hits += s.cache_hits;
    acc.classifier_lookups += s.classifier_lookups;
    acc.probe_memo_hits += s.probe_memo_hits;
    acc.memory_accesses += s.memory_accesses;
    // Percentiles and versions are point-in-time: latest row wins.
    acc.p50_cycles = s.p50_cycles;
    acc.p99_cycles = s.p99_cycles;
    acc.min_version = s.min_version;
    acc.max_version = s.max_version;
    vis_weight_ns += static_cast<double>(s.update_visibility_samples) *
                     s.update_visibility_mean_ns;
    acc.update_visibility_samples += s.update_visibility_samples;
    any = true;
  }

  [[nodiscard]] telemetry::StatsSample take_locked() {
    telemetry::StatsSample out = acc;
    out.mpps = out.interval_ns == 0
                   ? 0.0
                   : static_cast<double>(out.packets) * 1e3 /
                         static_cast<double>(out.interval_ns);
    out.update_visibility_mean_ns =
        out.update_visibility_samples == 0
            ? 0.0
            : vis_weight_ns /
                  static_cast<double>(out.update_visibility_samples);
    acc = {};
    vis_weight_ns = 0;
    any = false;
    return out;
  }

  /// Sampler callback: accumulate; emit when the window filled. The 10%
  /// slack absorbs timer jitter (a 100ms tick often measures ~99.x ms).
  void add_row(const telemetry::StatsSample& s) {
    std::optional<telemetry::StatsSample> out;
    {
      std::lock_guard<std::mutex> lk(mu);
      merge_locked(s);
      if (acc.interval_ns + requested_ns / 10 >= requested_ns) {
        out = take_locked();
      }
    }
    if (out) push(format_stats_row(*out));
  }

  /// Emit whatever partial window remains (drain path).
  void flush() {
    std::optional<telemetry::StatsSample> out;
    {
      std::lock_guard<std::mutex> lk(mu);
      if (any) out = take_locked();
    }
    if (out) push(format_stats_row(*out));
  }
};

ControlPlane::ControlPlane(dataplane::Engine& engine,
                           dataplane::RuleProgramPublisher& publisher,
                           Options opts)
    : engine_(engine), publisher_(publisher), opts_(std::move(opts)) {
  tel_blocks_ = engine_.telemetry_blocks();
  t_attach_ns_ = telemetry::steady_now_ns();
  build_registry();
  vis_thread_ = std::thread([this] { visibility_loop(); });
}

ControlPlane::ControlPlane(dataplane::Engine& engine,
                           dataplane::RuleProgramPublisher& publisher)
    : ControlPlane(engine, publisher, Options{}) {}

ControlPlane::~ControlPlane() {
  {
    std::lock_guard<std::mutex> lk(vis_mu_);
    vis_stop_ = true;
  }
  vis_cv_.notify_all();
  if (vis_thread_.joinable()) vis_thread_.join();
}

SubscribeHooks ControlPlane::subscribe_hooks() {
  SubscribeHooks hooks;
  hooks.subscribe = [this](u64 interval_ms,
                           std::function<void(const std::string&)> push) {
    return subscribe_stats(interval_ms, std::move(push));
  };
  hooks.unsubscribe = [this](u64 token) { unsubscribe_stats(token); };
  return hooks;
}

// ---- registry -------------------------------------------------------------

void ControlPlane::build_registry() {
  registry_.add_read("version", [](std::span<const std::string>) {
    const auto& b = build_info();
    std::ostringstream os;
    workload::JsonWriter w(os);
    w.begin_object();
    w.key("version").value(b.version);
    w.key("git_sha").value(b.git_sha);
    w.key("compiler").value(b.compiler);
    w.key("build_type").value(b.build_type);
    w.end_object();
    os << '\n';
    return HandlerResult::with_payload(os.str());
  });

  registry_.add_read("handlers", [this](std::span<const std::string>) {
    std::string out = "read:";
    for (const auto& n : registry_.read_names()) out += " " + n;
    out += "\nwrite:";
    for (const auto& n : registry_.write_names()) out += " " + n;
    out += "\nother: subscribe stats <ms> | quit\n";
    return HandlerResult::with_payload(std::move(out));
  });

  registry_.add_read("stats", [this](std::span<const std::string>) {
    return HandlerResult::with_payload(stats_json());
  });

  registry_.add_read("metrics", [this](std::span<const std::string>) {
    return HandlerResult::with_payload(metrics_text());
  });

  registry_.add_read("timeseries", [this](std::span<const std::string>) {
    return HandlerResult::with_payload(timeseries_json());
  });

  registry_.add_read("verify", [this](std::span<const std::string>) {
    if (opts_.verify_trace == nullptr) {
      return HandlerResult::error(kConflict,
                                  "no verify trace attached to this daemon");
    }
    // Oracle re-classification against the *published* snapshot: pure
    // read side, no engine lock — a slow verify must not block stats
    // scrapes or updates.
    const auto snap = publisher_.acquire();
    const auto installed = snap->classifier().installed_rules();
    ruleset::RuleSet oracle_rules("oracle");
    for (const ruleset::Rule& rule : installed) {
      oracle_rules.add_verbatim(rule);
    }
    const baseline::LinearSearch oracle(oracle_rules);
    u64 checked = 0;
    u64 mismatches = 0;
    for (const auto& e : *opts_.verify_trace) {
      const auto res = snap->classifier().classify(e.header);
      const ruleset::Rule* want = oracle.classify(e.header, nullptr);
      const bool agree = want == nullptr
                             ? !res.match.has_value()
                             : res.match && res.match->rule == want->id;
      ++checked;
      if (!agree) ++mismatches;
    }
    std::ostringstream os;
    workload::JsonWriter w(os);
    w.begin_object();
    w.key("schema").value("pclass-verify-v1");
    w.key("snapshot_version").value(snap->version());
    w.key("rules").value(static_cast<u64>(snap->rule_count()));
    w.key("checked").value(checked);
    w.key("mismatches").value(mismatches);
    w.end_object();
    os << '\n';
    return HandlerResult::with_payload(os.str());
  });

  const auto apply_update = [this](const sdn::Message& msg, u64 t_cmd_ns) {
    std::lock_guard<std::mutex> lk(engine_mu_);
    if (drained_) {
      return HandlerResult::error(kConflict,
                                  "engine drained; updates no longer land");
    }
    publisher_.apply(msg);  // throws -> mapped by the dispatcher
    const u64 version = publisher_.version();
    note_socket_update(version, t_cmd_ns);
    updates_accepted_.fetch_add(1, std::memory_order_relaxed);
    return HandlerResult::ok(
        "version=" + std::to_string(version) +
        " rules=" + std::to_string(publisher_.acquire()->rule_count()));
  };

  registry_.add_write("rule", [apply_update](std::span<const std::string> args) {
    const u64 t_cmd = telemetry::steady_now_ns();
    return apply_update(parse_rule_command(args), t_cmd);
  });

  registry_.add_write("set", [apply_update](std::span<const std::string> args) {
    const u64 t_cmd = telemetry::steady_now_ns();
    return apply_update(parse_set_command(args), t_cmd);
  });

  registry_.add_write("trace", [this](std::span<const std::string> args) {
    if (args.empty()) {
      throw ParseError("trace: expected start|stop|dump <file>");
    }
    std::lock_guard<std::mutex> lk(engine_mu_);
    telemetry::StatsSampler* sampler = drained_ ? nullptr : engine_.sampler();
    const std::string& verb = args[0];
    if (verb == "start") {
      if (sampler == nullptr) {
        return HandlerResult::error(
            kConflict, "no sampler (drained, or --stats-interval-ms 0)");
      }
      usize limit = opts_.trace_capture_limit;
      if (args.size() == 2) {
        u64 v = 0;
        if (!pclass::parse_count(args[1], v)) {
          throw ParseError("trace start: bad event limit '" + args[1] + "'");
        }
        limit = static_cast<usize>(v);
      } else if (args.size() > 2) {
        throw ParseError("trace start: expected at most [limit]");
      }
      sampler->trace_capture_start(limit);
      return HandlerResult::ok("capturing limit=" + std::to_string(limit));
    }
    if (verb == "stop") {
      if (sampler == nullptr || !sampler->trace_capturing()) {
        return HandlerResult::error(kConflict, "not capturing");
      }
      u64 truncated = 0;
      auto events = sampler->trace_capture_stop(&truncated);
      std::lock_guard<std::mutex> tlk(trace_mu_);
      last_capture_ = std::move(events);
      last_capture_truncated_ = truncated;
      has_capture_ = true;
      return HandlerResult::ok(
          "events=" + std::to_string(last_capture_.size()) +
          " truncated=" + std::to_string(truncated));
    }
    if (verb == "dump") {
      if (args.size() != 2) {
        throw ParseError("trace dump: expected <file>");
      }
      // Dump implies stop: a running capture is taken first so the file
      // always reflects everything captured up to this request.
      if (sampler != nullptr && sampler->trace_capturing()) {
        u64 truncated = 0;
        auto events = sampler->trace_capture_stop(&truncated);
        std::lock_guard<std::mutex> tlk(trace_mu_);
        last_capture_ = std::move(events);
        last_capture_truncated_ = truncated;
        has_capture_ = true;
      }
      std::lock_guard<std::mutex> tlk(trace_mu_);
      if (!has_capture_) {
        return HandlerResult::error(kConflict,
                                    "no capture (run `write trace start` "
                                    "first)");
      }
      std::ofstream os(args[1], std::ios::binary | std::ios::trunc);
      if (!os) {
        return HandlerResult::error(kInternalError,
                                    "cannot open " + args[1]);
      }
      telemetry::TraceProcess proc;
      proc.name = "pclass_serve";
      proc.events = last_capture_;
      telemetry::write_chrome_trace(os, std::span(&proc, 1));
      os.flush();
      if (!os) {
        return HandlerResult::error(kInternalError,
                                    "short write to " + args[1]);
      }
      return HandlerResult::ok(
          "events=" + std::to_string(last_capture_.size()) +
          " truncated=" + std::to_string(last_capture_truncated_) +
          " file=" + args[1]);
    }
    throw ParseError("trace: unknown verb '" + verb + "'");
  });

  registry_.add_write("drain", [this](std::span<const std::string>) {
    const dataplane::EngineReport rep = drain();
    return HandlerResult::ok(
        "packets=" + std::to_string(rep.packets()) +
        " matched=" + std::to_string(rep.matched()) +
        " workers=" + std::to_string(rep.workers.size()));
  });

  registry_.add_write("shutdown", [this](std::span<const std::string>) {
    if (!opts_.request_shutdown) {
      return HandlerResult::error(kConflict,
                                  "no shutdown hook (test harness?)");
    }
    // Only signal — the daemon's main loop drains and tears the server
    // down; doing it here would self-deadlock on this very connection.
    opts_.request_shutdown();
    return HandlerResult::ok("shutting down");
  });
}

// ---- socket-to-dataplane visibility ---------------------------------------

void ControlPlane::note_socket_update(u64 version, u64 t_cmd_ns) {
  PendingUpdate p;
  p.version = version;
  p.t_cmd_ns = t_cmd_ns;
  // The PublishClock stamp was note()d just before the snapshot swap;
  // a recycled slot (update storm) falls back to the command time, so
  // publish_to_first degenerates to cmd_to_first rather than vanishing.
  p.t_publish_ns =
      publisher_.publish_clock().lookup(version).value_or(t_cmd_ns);
  {
    std::lock_guard<std::mutex> lk(vis_mu_);
    pending_.push_back(p);
  }
  vis_cv_.notify_all();
}

std::pair<u64, u64> ControlPlane::worker_versions() const {
  if (tel_blocks_.empty()) return {0, 0};
  u64 min_v = 0;
  u64 max_v = 0;
  bool first = true;
  for (const auto* t : tel_blocks_) {
    const u64 v = telemetry::counter_load(t->live.snapshot_version);
    max_v = std::max(max_v, v);
    min_v = first ? v : std::min(min_v, v);
    first = false;
  }
  return {min_v, max_v};
}

void ControlPlane::visibility_pass() {
  const auto [min_v, max_v] = worker_versions();
  const u64 now = telemetry::steady_now_ns();
  std::lock_guard<std::mutex> lk(vis_mu_);
  for (auto& p : pending_) {
    if (p.t_first_ns == 0 && max_v >= p.version) p.t_first_ns = now;
  }
  // A worker still at version 0 never classified a batch: min_v == 0
  // blocks full resolution (conservative — "all workers" means all).
  while (!pending_.empty() && min_v >= pending_.front().version &&
         min_v != 0) {
    PendingUpdate p = pending_.front();
    pending_.pop_front();
    if (p.t_first_ns == 0) p.t_first_ns = now;
    const u64 cmd_first = elapsed_clamped(p.t_first_ns, p.t_cmd_ns);
    const u64 cmd_all = elapsed_clamped(now, p.t_cmd_ns);
    const u64 pub_first = elapsed_clamped(p.t_first_ns, p.t_publish_ns);
    ++vis_samples_;
    cmd_first_total_ns_ += cmd_first;
    cmd_first_max_ns_ = std::max(cmd_first_max_ns_, cmd_first);
    cmd_all_total_ns_ += cmd_all;
    cmd_all_max_ns_ = std::max(cmd_all_max_ns_, cmd_all);
    pub_first_total_ns_ += pub_first;
    pub_first_max_ns_ = std::max(pub_first_max_ns_, pub_first);
  }
}

void ControlPlane::visibility_loop() {
  std::unique_lock<std::mutex> lk(vis_mu_);
  while (!vis_stop_) {
    if (pending_.empty()) {
      vis_cv_.wait(lk, [this] { return vis_stop_ || !pending_.empty(); });
      continue;
    }
    lk.unlock();
    visibility_pass();
    std::this_thread::sleep_for(kVisibilityPoll);
    lk.lock();
  }
}

SocketVisibility ControlPlane::socket_visibility() const {
  std::lock_guard<std::mutex> lk(vis_mu_);
  SocketVisibility v;
  v.samples = vis_samples_;
  if (vis_samples_ > 0) {
    const auto n = static_cast<double>(vis_samples_);
    v.cmd_to_first_mean_ns = static_cast<double>(cmd_first_total_ns_) / n;
    v.cmd_to_all_mean_ns = static_cast<double>(cmd_all_total_ns_) / n;
    v.publish_to_first_mean_ns = static_cast<double>(pub_first_total_ns_) / n;
  }
  v.cmd_to_first_max_ns = cmd_first_max_ns_;
  v.cmd_to_all_max_ns = cmd_all_max_ns_;
  v.publish_to_first_max_ns = pub_first_max_ns_;
  v.pending = pending_.size();
  v.unresolved = vis_unresolved_;
  return v;
}

// ---- streaming subscriptions ----------------------------------------------

u64 ControlPlane::subscribe_stats(
    u64 interval_ms, std::function<void(const std::string&)> push_row) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  telemetry::StatsSampler* sampler = drained_ ? nullptr : engine_.sampler();
  if (sampler == nullptr) return 0;
  auto st = std::make_shared<SubState>();
  st->requested_ns = interval_ms * 1'000'000;
  st->push = std::move(push_row);
  const u64 token = sampler->subscribe(
      [st](const telemetry::StatsSample& s) { st->add_row(s); });
  std::lock_guard<std::mutex> slk(subs_mu_);
  subs_[token] = std::move(st);
  return token;
}

void ControlPlane::unsubscribe_stats(u64 token) {
  if (token == 0) return;
  {
    std::lock_guard<std::mutex> lk(engine_mu_);
    if (!drained_) {
      if (auto* sampler = engine_.sampler()) sampler->unsubscribe(token);
    }
  }
  std::lock_guard<std::mutex> slk(subs_mu_);
  subs_.erase(token);
}

// ---- drain ----------------------------------------------------------------

dataplane::EngineReport ControlPlane::drain() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  if (!drained_) {
    // stop() joins the workers and takes the sampler's final flush tick
    // (subscribers see their last full rows through that path).
    final_report_ = engine_.stop();
    drained_ = true;
    // One last resolution pass against the workers' final (frozen)
    // versions, then the remainder is abandoned: nothing will ever
    // classify on those versions now.
    visibility_pass();
    {
      std::lock_guard<std::mutex> vlk(vis_mu_);
      vis_unresolved_ += pending_.size();
      pending_.clear();
    }
    // Flush partial decimation windows so coarse subscribers' rows
    // still sum to the totals.
    std::vector<std::shared_ptr<SubState>> subs;
    {
      std::lock_guard<std::mutex> slk(subs_mu_);
      subs.reserve(subs_.size());
      for (const auto& [token, st] : subs_) subs.push_back(st);
    }
    for (const auto& st : subs) st->flush();
  }
  return final_report_;
}

// ---- payload builders -----------------------------------------------------

std::string ControlPlane::stats_json() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  const u64 now = telemetry::steady_now_ns();
  const auto& b = build_info();
  const auto& pstats = publisher_.stats();
  const SocketVisibility sv = socket_visibility();

  std::ostringstream os;
  workload::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("pclass-live-stats-v1");
  w.key("uptime_ns").value(now - t_attach_ns_);
  w.key("engine_running").value(engine_.running());
  w.key("drained").value(drained_);
  w.key("build").begin_object();
  w.key("version").value(b.version);
  w.key("git_sha").value(b.git_sha);
  w.key("compiler").value(b.compiler);
  w.key("build_type").value(b.build_type);
  w.end_object();

  w.key("publisher").begin_object();
  w.key("version").value(publisher_.version());
  w.key("rules").value(static_cast<u64>(publisher_.acquire()->rule_count()));
  w.key("updates_applied").value(pstats.updates_applied);
  w.key("publishes").value(pstats.publishes);
  w.key("grace_spins").value(pstats.grace_spins);
  w.end_object();

  // Engine geometry: with shards > 0 the rows below are per *shard*
  // (telemetry blocks are per shard — a worker thread may drive
  // several), with `worker` carrying the shard index.
  const dataplane::EngineConfig& ecfg = engine_.config();
  w.key("engine").begin_object();
  w.key("workers").value(ecfg.workers);
  w.key("shards").value(ecfg.shards);
  w.key("steer_symmetric").value(ecfg.steer_symmetric);
  w.end_object();

  // Supervisor rollup (all-zero when the supervisor is off): live reads
  // of the watchdog's counters, scrapeable mid-run.
  const dataplane::SupervisorStatus ss = engine_.supervisor_status();
  w.key("supervisor").begin_object();
  w.key("enabled").value(ss.enabled);
  w.key("worker_restarts").value(ss.worker_restarts);
  w.key("stall_detections").value(ss.stall_detections);
  w.key("shards_reassigned").value(ss.shards_reassigned);
  w.key("workers_failed").value(ss.workers_failed);
  w.end_object();

  // Per-worker running totals straight off the live atomics, plus the
  // engine-wide sums the CI reconcile compares against report totals.
  u64 tot_packets = 0;
  u64 tot_batches = 0;
  u64 tot_matched = 0;
  u64 tot_dropped = 0;
  u64 tot_cache_hits = 0;
  u64 tot_lookups = 0;
  u64 tot_mem = 0;
  u64 tot_memo_hits = 0;
  u64 vis_samples = 0;
  u64 vis_total_ns = 0;
  u64 vis_max_ns = 0;
  w.key("workers").begin_array();
  for (const auto* t : tel_blocks_) {
    const auto& lv = t->live;
    using telemetry::counter_load;
    const u64 packets = counter_load(lv.packets);
    const u64 batches = counter_load(lv.batches);
    const u64 matched = counter_load(lv.matched);
    const u64 dropped = counter_load(lv.dropped);
    const u64 cache_hits = counter_load(lv.cache_hits);
    const u64 lookups = counter_load(lv.classifier_lookups);
    const u64 mem = counter_load(lv.memory_accesses);
    const u64 memo_hits = counter_load(lv.probe_memo_hits);
    tot_packets += packets;
    tot_batches += batches;
    tot_matched += matched;
    tot_dropped += dropped;
    tot_cache_hits += cache_hits;
    tot_lookups += lookups;
    tot_mem += mem;
    tot_memo_hits += memo_hits;
    vis_samples += counter_load(lv.update_visibility_samples);
    vis_total_ns += counter_load(lv.update_visibility_total_ns);
    vis_max_ns = std::max(vis_max_ns, counter_load(lv.update_visibility_max_ns));
    w.begin_object();
    w.key("worker").value(static_cast<u64>(t->worker));
    w.key("packets").value(packets);
    w.key("batches").value(batches);
    w.key("matched").value(matched);
    w.key("dropped").value(dropped);
    w.key("parse_errors").value(counter_load(lv.parse_errors));
    w.key("cache_hits").value(cache_hits);
    w.key("cache_misses").value(counter_load(lv.cache_misses));
    w.key("classifier_lookups").value(lookups);
    w.key("memory_accesses").value(mem);
    w.key("probe_memo_hits").value(memo_hits);
    w.key("probe_memo_invalidations")
        .value(counter_load(lv.probe_memo_invalidations));
    w.key("probe_memo_conflict_evictions")
        .value(counter_load(lv.probe_memo_conflict_evictions));
    w.key("path_scalar_loop_batches")
        .value(counter_load(lv.path_scalar_loop_batches));
    w.key("path_phase2_batches").value(counter_load(lv.path_phase2_batches));
    w.key("path_phase2_memo_batches")
        .value(counter_load(lv.path_phase2_memo_batches));
    w.key("snapshot_version").value(counter_load(lv.snapshot_version));
    w.end_object();
  }
  w.end_array();

  w.key("totals").begin_object();
  w.key("packets").value(tot_packets);
  w.key("batches").value(tot_batches);
  w.key("matched").value(tot_matched);
  w.key("dropped").value(tot_dropped);
  w.key("cache_hits").value(tot_cache_hits);
  w.key("classifier_lookups").value(tot_lookups);
  w.key("memory_accesses").value(tot_mem);
  w.key("probe_memo_hits").value(tot_memo_hits);
  w.end_object();

  w.key("update_visibility").begin_object();
  w.key("samples").value(vis_samples);
  w.key("mean_ns").value(vis_samples == 0
                             ? 0.0
                             : static_cast<double>(vis_total_ns) /
                                   static_cast<double>(vis_samples));
  w.key("max_ns").value(vis_max_ns);
  w.end_object();

  w.key("socket_visibility").begin_object();
  w.key("samples").value(sv.samples);
  w.key("cmd_to_first_mean_ns").value(sv.cmd_to_first_mean_ns);
  w.key("cmd_to_first_max_ns").value(sv.cmd_to_first_max_ns);
  w.key("cmd_to_all_mean_ns").value(sv.cmd_to_all_mean_ns);
  w.key("cmd_to_all_max_ns").value(sv.cmd_to_all_max_ns);
  w.key("publish_to_first_mean_ns").value(sv.publish_to_first_mean_ns);
  w.key("publish_to_first_max_ns").value(sv.publish_to_first_max_ns);
  w.key("pending").value(sv.pending);
  w.key("unresolved").value(sv.unresolved);
  w.end_object();

  w.key("updates_accepted")
      .value(updates_accepted_.load(std::memory_order_relaxed));
  w.end_object();
  os << '\n';
  return os.str();
}

std::string ControlPlane::metrics_text() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  const u64 now = telemetry::steady_now_ns();
  const auto& b = build_info();
  const auto& pstats = publisher_.stats();
  const SocketVisibility sv = socket_visibility();

  std::ostringstream os;
  telemetry::MetricsWriter mw(os);
  using Label = telemetry::MetricsWriter::Label;

  {
    const Label labels[] = {{"version", b.version},
                            {"git_sha", b.git_sha},
                            {"build_type", b.build_type}};
    mw.gauge("pclass_build_info",
             "Build metadata as labels; value is always 1.", labels, 1.0);
  }
  mw.gauge("pclass_serve_uptime_seconds",
           "Seconds since the control plane attached.", {},
           static_cast<double>(now - t_attach_ns_) / 1e9);
  mw.gauge("pclass_serve_engine_running",
           "1 while the engine loop is running, 0 after drain.", {},
           engine_.running() ? 1.0 : 0.0);

  for (const auto* t : tel_blocks_) {
    const auto& lv = t->live;
    using telemetry::counter_load;
    const std::string worker = std::to_string(t->worker);
    const Label labels[] = {{"worker", worker}};
    const auto c = [&](std::string_view name, std::string_view help,
                       u64 value) {
      mw.counter(name, help, labels, static_cast<double>(value));
    };
    c("pclass_live_packets_total", "Packets sunk (running total).",
      counter_load(lv.packets));
    c("pclass_live_batches_total", "Batches processed.",
      counter_load(lv.batches));
    c("pclass_live_matched_total", "Packets matched by a rule.",
      counter_load(lv.matched));
    c("pclass_live_dropped_total", "Packets dropped (miss or drop action).",
      counter_load(lv.dropped));
    c("pclass_live_cache_hits_total", "Flow-cache hits.",
      counter_load(lv.cache_hits));
    c("pclass_live_classifier_lookups_total", "Full classifier lookups.",
      counter_load(lv.classifier_lookups));
    c("pclass_live_memory_accesses_total", "Modelled block-memory reads.",
      counter_load(lv.memory_accesses));
    c("pclass_live_probe_memo_hits_total", "Combiner probes served by memo.",
      counter_load(lv.probe_memo_hits));
    mw.gauge("pclass_live_snapshot_version",
             "Rule-program version this worker last classified against.",
             labels, static_cast<double>(counter_load(lv.snapshot_version)));
  }

  mw.gauge("pclass_publisher_version", "Published rule-program version.", {},
           static_cast<double>(publisher_.version()));
  mw.gauge("pclass_publisher_rules", "Rules in the published snapshot.", {},
           static_cast<double>(publisher_.acquire()->rule_count()));
  mw.counter("pclass_publisher_updates_applied_total",
             "Southbound updates accepted into the log.", {},
             static_cast<double>(pstats.updates_applied));
  mw.counter("pclass_publisher_publishes_total", "Snapshot swaps.", {},
             static_cast<double>(pstats.publishes));
  mw.counter("pclass_publisher_grace_spins_total",
             "Yields spent waiting for readers to drain.", {},
             static_cast<double>(pstats.grace_spins));

  {
    const dataplane::SupervisorStatus ss = engine_.supervisor_status();
    mw.gauge("pclass_supervisor_enabled",
             "1 when the engine watchdog supervises workers.", {},
             ss.enabled ? 1.0 : 0.0);
    mw.counter("pclass_supervisor_worker_restarts_total",
               "Dead workers respawned by the watchdog.", {},
               static_cast<double>(ss.worker_restarts));
    mw.counter("pclass_supervisor_stall_detections_total",
               "Heartbeat-stall episodes the watchdog observed.", {},
               static_cast<double>(ss.stall_detections));
    mw.counter("pclass_supervisor_shards_reassigned_total",
               "Shards taken over from permanently failed workers.", {},
               static_cast<double>(ss.shards_reassigned));
    mw.gauge("pclass_supervisor_workers_failed",
             "Workers permanently failed (restart budget spent).", {},
             static_cast<double>(ss.workers_failed));
  }

  mw.counter("pclass_socket_updates_accepted_total",
             "Rule/set updates accepted over the control socket.", {},
             static_cast<double>(
                 updates_accepted_.load(std::memory_order_relaxed)));
  mw.counter("pclass_socket_visibility_samples_total",
             "Socket updates whose dataplane visibility fully resolved.", {},
             static_cast<double>(sv.samples));
  mw.gauge("pclass_socket_visibility_cmd_to_first_mean_ns",
           "Mean ns from command parse to first worker on the new version.",
           {}, sv.cmd_to_first_mean_ns);
  mw.gauge("pclass_socket_visibility_cmd_to_all_mean_ns",
           "Mean ns from command parse to every worker on the new version.",
           {}, sv.cmd_to_all_mean_ns);
  mw.gauge("pclass_socket_visibility_cmd_to_all_max_ns",
           "Worst-case ns from command parse to every worker.", {},
           static_cast<double>(sv.cmd_to_all_max_ns));
  mw.gauge("pclass_socket_visibility_pending",
           "Socket updates not yet seen by every worker.", {},
           static_cast<double>(sv.pending));

  return os.str();
}

std::string ControlPlane::timeseries_json() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  std::vector<telemetry::StatsSample> rows;
  if (drained_) {
    rows = final_report_.timeseries;
  } else if (auto* sampler = engine_.sampler()) {
    rows = sampler->samples_snapshot();
  }
  std::ostringstream os;
  workload::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("pclass-live-timeseries-v1");
  w.key("drained").value(drained_);
  w.key("rows").begin_array();
  for (const auto& s : rows) write_stats_sample(w, s);
  w.end_array();
  w.end_object();
  os << '\n';
  return os.str();
}

}  // namespace pclass::control
