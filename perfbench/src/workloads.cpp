#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>

#include "baseline/linear_search.hpp"
#include "core/cycle_model.hpp"
#include "dataplane/engine.hpp"
#include "net/packet.hpp"
#include "spans.hpp"
#include "workload/ruleset_synth.hpp"
#include "workload/trace_synth.hpp"

namespace perfbench {
namespace {

using namespace pclass;
using Clock = std::chrono::steady_clock;
using dataplane::RuleProgramPublisher;

// ---- fixed workload geometry ----------------------------------------------
// The shipped dataplane defaults: batch 32, 4096 flow-cache lines, two
// unsharded engine workers with telemetry on, and the classifier's
// default MBT / adaptive path policy / persistent 2-way probe memo.
// The one departure is the exact cross-product combine, so every
// verdict can be checked against LinearSearch.
constexpr usize kBatch = net::kDefaultBatchCapacity;
constexpr u32 kCacheLines = 4096;
constexpr usize kWorkers = 2;
/// Rule headroom of the device geometry (the update-storm scenario's).
constexpr usize kRuleHeadroom = 512;
/// Open-loop southbound update rate (updates/s).
constexpr double kUpdateRate = 1000.0;
/// Churn rule ids sit above every generated id, inside 16 bits.
constexpr u32 kChurnFirstId = 60'000;
/// Fresh single-worker pipelines per latency run, so no one
/// path-controller history decides a run.
constexpr usize kLatencyWindows = 32;
/// The end-to-end run measures set-up, Mpps and latency in this many
/// interleaved rounds, so each figure spans the whole run, not one
/// stretch of it: the host's speed drifts over seconds to minutes.
constexpr usize kRounds = 16;
/// Leading packets of the traced window whose cache misses feed the
/// path-invariant classifier and device-model counts.
constexpr usize kCountPackets = 16'384;
/// Spans kept for the chrome trace (totals cover every span).
constexpr usize kKeepSpans = 30'000;

// Share of --seconds given to each measured phase.
constexpr double kSetupShare = 0.25;
constexpr double kMppsShare = 0.35;
constexpr double kLatencyShare = 0.30;
constexpr double kQuietUpdateShare = 0.10;
constexpr double kEngineShare = 0.15;
constexpr double kUntracedShare = 0.20;
constexpr double kTracedShare = 0.35;
constexpr double kTraceUpdateShare = 0.30;
/// Untimed warm-up before the latency samples, as a share of its phase.
constexpr double kWarmupShare = 0.05;

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count());
}

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  u64 size_pages = 0;
  u64 resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

usize even_at_least(double n) {
  const usize k = static_cast<usize>(std::ceil(std::max(n, 2.0)));
  return k + (k & 1);
}

// ---- inputs ---------------------------------------------------------------

struct Inputs {
  ruleset::RuleSet rules;
  dataplane::TrafficPool pool;
  /// The header the pipeline classifies for each pool entry (parsed from
  /// the raw bytes when the pool holds packets).
  std::vector<net::FiveTuple> headers;
  std::vector<sdn::Message> storm;
  /// Updates stream while packets are classified.
  bool churn = false;
  bool raw_packets = false;
};

/// A trace of \p packets drawn from \p profile's flow population: the
/// profile's flow count, skew and locality, over a longer stream, so an
/// engine pass is long against its cold-cache start.
net::Trace long_trace(const ruleset::RuleSet& rules,
                      workload::TraceProfile profile, usize packets) {
  profile.packets = packets;
  return workload::TraceSynthesizer(rules, profile).generate();
}

Inputs make_inputs(const std::string& name, u64 seed, double seconds,
                   Ledger& ledger) {
  Inputs in;
  net::Trace trace;
  // The rule set of a workload is fixed (the profiles' default seed);
  // \p seed draws the traffic and the update schedule over it.
  if (name == "fw-thrash") {
    in.rules = workload::synthesize(workload::RulesetProfile::fw(1500));
    // 8x more flows than cache lines, maximal repeat distance; one
    // engine pass sends every flow once.
    trace = workload::make_cache_thrash_trace(in.rules, 8 * usize{kCacheLines},
                                              8 * usize{kCacheLines},
                                              seed ^ 0x7447);
  } else if (name == "acl-zipf") {
    in.rules = workload::synthesize(workload::RulesetProfile::acl(1200));
    trace = long_trace(in.rules,
                       workload::TraceProfile::zipf_heavy(131'072, seed ^ 0x21BF),
                       524'288);
    in.raw_packets = true;
  } else if (name == "acl-churn") {
    in.rules = workload::synthesize(workload::RulesetProfile::acl(1000));
    trace = long_trace(in.rules,
                       workload::TraceProfile::standard(65'536, seed ^ 0xABCD),
                       262'144);
    in.churn = true;
  } else {
    throw ConfigError("unknown workload '" + name + "'");
  }

  in.headers.reserve(trace.size());
  u64 unparsed = 0;
  for (const net::TraceEntry& e : trace) {
    if (!in.raw_packets) {
      in.pool.add(e.header);
      in.headers.push_back(e.header);
      continue;
    }
    // Minimum-size packets: headers only, so per-packet cost dominates.
    net::Packet p = net::make_packet(e.header, 0);
    const std::optional<net::FiveTuple> t = net::parse_five_tuple(p.bytes);
    if (!t) ++unparsed;
    in.headers.push_back(t.value_or(e.header));
    in.pool.add(std::move(p));
  }
  if (in.raw_packets) {
    ledger.add(trace.size(), unparsed, "generated packets that fail to parse");
  }

  // Enough add/delete pairs for the longest update phase of either run.
  in.storm = workload::make_update_storm(
                 in.rules, even_at_least(kUpdateRate * (seconds + 5.0)),
                 kChurnFirstId, seed ^ 0x5707)
                 .schedule;
  return in;
}

core::ClassifierConfig device_config(const Inputs& in) {
  core::ClassifierConfig cfg =
      core::ClassifierConfig::for_scale(in.rules.size() + kRuleHeadroom);
  cfg.combine_mode = core::CombineMode::kCrossProduct;
  return cfg;
}

// ---- the oracle -----------------------------------------------------------

/// LinearSearch verdicts over the distinct headers of the pool, plus
/// the matched count of any prefix of the (wrapping) pool stream.
struct Oracle {
  std::vector<net::FiveTuple> distinct;
  std::vector<const ruleset::Rule*> verdict;
  std::vector<u64> matched_prefix;  ///< matched among pool[0, i)

  Oracle(const ruleset::RuleSet& rules,
         const std::vector<net::FiveTuple>& headers)
      : search(rules) {
    distinct = headers;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    verdict.reserve(distinct.size());
    for (const net::FiveTuple& h : distinct) {
      verdict.push_back(search.classify(h, nullptr));
    }
    matched_prefix.assign(headers.size() + 1, 0);
    for (usize i = 0; i < headers.size(); ++i) {
      matched_prefix[i + 1] = matched_prefix[i] + (lookup(headers[i]) ? 1 : 0);
    }
  }

  [[nodiscard]] const ruleset::Rule* lookup(const net::FiveTuple& h) const {
    const auto it = std::lower_bound(distinct.begin(), distinct.end(), h);
    return verdict[static_cast<usize>(it - distinct.begin())];
  }

  /// Matched packets among the first \p n of the wrapping pool stream.
  [[nodiscard]] u64 matched_in_first(u64 n) const {
    const u64 size = matched_prefix.size() - 1;
    return (n / size) * matched_prefix.back() + matched_prefix[n % size];
  }

  baseline::LinearSearch search;
};

bool agrees(const ruleset::Rule* want, const std::optional<core::RuleEntry>& got) {
  return want == nullptr ? !got.has_value()
                         : got && got->rule == want->id &&
                               got->priority == want->priority;
}

/// Every distinct header of the pool, classified on the published
/// snapshot, against the oracle.
void check_snapshot(const RuleProgramPublisher& programs, const Oracle& oracle,
                    Ledger& ledger, std::string_view what) {
  const std::shared_ptr<const dataplane::RuleProgram> snap = programs.acquire();
  std::vector<core::ClassifyResult> out(oracle.distinct.size());
  core::BatchScratch scratch;
  u64 wrong = 0;
  for (usize i = 0; i < oracle.distinct.size(); i += kBatch) {
    const usize n = std::min(kBatch, oracle.distinct.size() - i);
    snap->classifier().classify_batch(
        std::span(oracle.distinct).subspan(i, n),
        std::span(out).subspan(i, n), scratch);
  }
  for (usize i = 0; i < out.size(); ++i) {
    if (!agrees(oracle.verdict[i], out[i].match)) ++wrong;
  }
  ledger.add(out.size(), wrong, what);
}

/// After an update schedule that ends on a delete: the published
/// program holds exactly the base rules and still agrees with the
/// oracle on every distinct header.
void check_after_updates(const RuleProgramPublisher& programs,
                         const Inputs& in, const Oracle& oracle,
                         u64 version_before, u64 applied, Ledger& ledger) {
  ledger.add(1, applied % 2 == 0 ? 0 : 1, "schedule ends on a delete");
  ledger.add(1, programs.version() == version_before + applied ? 0 : 1,
             "published version advanced by every applied update");
  std::vector<ruleset::Rule> base(in.rules.begin(), in.rules.end());
  std::sort(base.begin(), base.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  const std::vector<ruleset::Rule> now =
      programs.acquire()->classifier().installed_rules();
  u64 differ = base.size() > now.size() ? base.size() - now.size()
                                        : now.size() - base.size();
  for (usize i = 0; i < std::min(base.size(), now.size()); ++i) {
    const ruleset::Rule& a = base[i];
    const ruleset::Rule& b = now[i];
    if (!(a.id == b.id && a.same_match(b) && a.priority == b.priority &&
          a.action == b.action)) {
      ++differ;
    }
  }
  ledger.add(base.size(), differ, "installed set equals the base set");
  check_snapshot(programs, oracle, ledger, "verdicts after the updates");
}

// ---- the paper's device model ------------------------------------------------

/// Modelled device clock of \p programs' classifier, in MHz.
double fmax_mhz(const RuleProgramPublisher& programs) {
  return programs.acquire()->classifier().config().fmax_mhz;
}

/// Mean modelled cycles of one device lookup over the workload's flows:
/// the scalar lookup (whose cycles are the cycle model's path-invariant
/// figure) of every distinct header of the pool, each once. Weighting
/// by packets would let a Zipf draw's few hottest flows decide the
/// figure. Every verdict is checked against the oracle.
double device_cycles_per_lookup(const RuleProgramPublisher& programs,
                                const Oracle& oracle, Ledger& ledger) {
  const std::shared_ptr<const dataplane::RuleProgram> snap = programs.acquire();
  double cycles = 0;
  u64 wrong = 0;
  for (usize i = 0; i < oracle.distinct.size(); ++i) {
    const core::ClassifyResult r = snap->classifier().classify(oracle.distinct[i]);
    if (!agrees(oracle.verdict[i], r.match)) ++wrong;
    cycles += static_cast<double>(r.cycles);
  }
  ledger.add(oracle.distinct.size(), wrong,
             "device-model verdicts vs LinearSearch");
  return ratio(cycles, static_cast<double>(oracle.distinct.size()));
}

/// Modelled device cost of the updates the publisher accepted, summed
/// over every device of a run.
struct DeviceUpdates {
  u64 cycles = 0;
  u64 updates = 0;

  /// Adds what \p programs accepted since \p before.
  void add(const RuleProgramPublisher& programs,
           const dataplane::PublisherStats& before) {
    cycles += programs.stats().device.cycles - before.device.cycles;
    updates += programs.stats().updates_applied - before.updates_applied;
  }
};

// ---- device set-up ----------------------------------------------------------

/// Build the device once, or, with \p secs, again and again for
/// \p seconds, recording each build's time.
std::unique_ptr<RuleProgramPublisher> build_device(
    const Inputs& in, Ledger& ledger, double seconds = 0,
    std::vector<double>* secs = nullptr) {
  std::unique_ptr<RuleProgramPublisher> programs;
  const auto deadline = after(seconds);
  do {
    programs.reset();
    const auto t0 = Clock::now();
    auto p = std::make_unique<RuleProgramPublisher>(device_config(in));
    p->install_ruleset(in.rules);
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (secs != nullptr) secs->push_back(dt);
    programs = std::move(p);
  } while (secs != nullptr && Clock::now() < deadline);
  ledger.add(in.rules.size(),
             in.rules.size() - std::min(in.rules.size(),
                                        programs->acquire()->rule_count()),
             "rules installed");
  return programs;
}

// ---- the standard elements, driven from this thread -------------------------

/// PacketSource -> Parser -> FlowCache -> Classifier -> ActionSink,
/// wired like an engine worker's pipeline, over a looping source.
struct Stages {
  Stages(dataplane::TrafficPool* pool, const RuleProgramPublisher* programs)
      : tel(0) {
    source = pipeline.emplace<dataplane::PacketSource>(pool, /*loop=*/true);
    parser = pipeline.emplace<dataplane::Parser>(&tel);
    cache = pipeline.emplace<dataplane::FlowCacheElement>(
        programs, kCacheLines, "flow_cache", &tel);
    classifier =
        pipeline.emplace<dataplane::ClassifierElement>(programs, cache, &tel);
    sink = pipeline.emplace<dataplane::ActionSink>(&tel);
  }

  /// Leave every element unconnected, so each push is one layer's work.
  void disconnect() {
    for (usize i = 0; i < pipeline.size(); ++i) pipeline.at(i)->connect(nullptr);
  }

  u64 packets_drawn() const { return source->batches() * kBatch; }

  telemetry::WorkerTelemetry tel;
  dataplane::Pipeline pipeline;
  dataplane::PacketSource* source = nullptr;
  dataplane::Parser* parser = nullptr;
  dataplane::FlowCacheElement* cache = nullptr;
  dataplane::ClassifierElement* classifier = nullptr;
  dataplane::ActionSink* sink = nullptr;
};

/// Delivery, version and (lookup-only) verdict checks of one pipeline.
void check_stages(const Stages& s, const Inputs& in, const Oracle& oracle,
                  Ledger& ledger) {
  const u64 drawn = s.packets_drawn();
  ledger.add(drawn, drawn - std::min(drawn, s.sink->packets()),
             "pipeline packets delivered");
  ledger.add(1, s.classifier->version_monotonic() ? 0 : 1,
             "pipeline snapshot versions monotonic");
  if (!in.churn) {
    const u64 want = oracle.matched_in_first(drawn);
    const u64 got = s.sink->matched();
    ledger.add(drawn, want > got ? want - got : got - want,
               "pipeline matched count vs LinearSearch");
  }
}

// ---- the southbound writer ----------------------------------------------------

struct WriterStats {
  Histogram service_ns;  ///< apply() service time
  /// Mean service time of an add and the delete that follows it. Adds
  /// and deletes cost differently and alternate, so a median over single
  /// updates would sit in the gap between the two and jump with it.
  Histogram pair_ns;
  Histogram late_ns;     ///< how late apply() started against its schedule
  u64 applied = 0;
  u64 rejected = 0;
};

/// Stream \p storm through apply() at kUpdateRate, open loop: update k
/// is due at t0 + k/rate whether or not earlier ones finished. Stops
/// after \p limit updates, or at the first pair boundary after \p stop
/// is raised, so the schedule always ends on a delete.
void stream_updates(RuleProgramPublisher& programs,
                    const std::vector<sdn::Message>& storm, usize limit,
                    const std::atomic<bool>& stop,
                    const std::atomic<bool>& recording, WriterStats& stats) {
  const auto t0 = Clock::now();
  const auto period = std::chrono::duration<double>(1.0 / kUpdateRate);
  u64 add_ns = 0;
  for (usize k = 0; k < std::min(limit, storm.size()); ++k) {
    if (k % 2 == 0 && stop.load(std::memory_order_acquire)) break;
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(period * double(k));
    std::this_thread::sleep_until(due);
    const auto start = Clock::now();
    try {
      programs.apply(storm[k]);
    } catch (const std::exception&) {
      ++stats.rejected;
    }
    const auto end = Clock::now();
    ++stats.applied;
    const u64 ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    if (k % 2 == 0) add_ns = ns;
    if (recording.load(std::memory_order_relaxed)) {
      stats.service_ns.record(ns);
      if (k % 2 == 1) stats.pair_ns.record((add_ns + ns) / 2);
      stats.late_ns.record(static_cast<u64>(std::max<i64>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(start - due)
                 .count())));
    }
  }
}

/// A writer thread running stream_updates until stop(), adding to
/// \p stats.
class Writer {
 public:
  Writer(RuleProgramPublisher& programs, const std::vector<sdn::Message>& storm,
         WriterStats& stats)
      : stats_(stats), thread_([this, &programs, &storm] {
          stream_updates(programs, storm, storm.size(), stop_, recording_,
                         stats_);
        }) {}

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { stop(); }

  void record(bool on) { recording_.store(on, std::memory_order_relaxed); }

  /// Finish the current add/delete pair and join; the stats are final.
  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<bool> recording_{false};
  WriterStats& stats_;
  std::thread thread_;  // last: starts after the state it uses
};

void check_writer(const WriterStats& w, Ledger& ledger) {
  ledger.add(w.applied, w.rejected, "updates rejected");
}

// ---- end-to-end phases --------------------------------------------------------

dataplane::EngineConfig engine_config(usize workers, bool loop) {
  dataplane::EngineConfig cfg;
  cfg.workers = workers;
  cfg.batch_size = kBatch;
  cfg.flow_cache_depth = kCacheLines;
  cfg.loop = loop;
  return cfg;
}

/// Closed-loop Mpps: two engine workers drain the pool in finite passes;
/// every pass is checked for conservation, versions and (lookup-only)
/// the matched count. Appends each pass's rate (packets delivered over
/// the pass's wall time) to \p rates.
void measure_mpps(Inputs& in, const RuleProgramPublisher& programs,
                  const Oracle& oracle, double seconds, Ledger& ledger,
                  std::vector<double>& rates) {
  dataplane::Engine engine(engine_config(kWorkers, /*loop=*/false), programs);
  u64 last_version = 0;
  const auto deadline = after(seconds);
  do {
    in.pool.reset();
    const auto t0 = Clock::now();
    const dataplane::EngineReport rep = engine.run(in.pool);
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    const u64 offered = in.pool.size();
    const u64 delivered = rep.delivered_packets;
    rates.push_back(static_cast<double>(delivered) / dt / 1e6);
    ledger.add(offered, offered - std::min(offered, delivered),
               "engine packets delivered");
    ledger.add(1, rep.conserved() && rep.first_error().empty() ? 0 : 1,
               "engine conservation ledger");
    bool monotonic = rep.versions_monotonic();
    for (const dataplane::WorkerReport& w : rep.workers) {
      if (w.packets > 0 && w.min_version < last_version) monotonic = false;
    }
    for (const dataplane::WorkerReport& w : rep.workers) {
      last_version = std::max(last_version, w.max_version);
    }
    ledger.add(1, monotonic ? 0 : 1, "engine snapshot versions monotonic");
    if (!in.churn) {
      const u64 want = oracle.matched_prefix.back();
      const u64 got = rep.matched();
      ledger.add(offered, want > got ? want - got : got - want,
                 "engine matched count vs LinearSearch");
    }
  } while (Clock::now() < deadline);
}

/// Single-worker closed loop through the connected pipeline; records in
/// \p out the wall time of each 32-packet batch, from claim to verdicts,
/// in \p windows fresh pipelines after a short warm-up each.
void measure_latency(Inputs& in, const RuleProgramPublisher& programs,
                     const Oracle& oracle, double seconds, usize windows,
                     Ledger& ledger, Histogram& out) {
  const double window = seconds / static_cast<double>(windows);
  for (usize w = 0; w < windows; ++w) {
    in.pool.reset();
    Stages s(&in.pool, &programs);
    net::PacketBatch batch(kBatch);
    const auto warm = after(window * kWarmupShare);
    while (Clock::now() < warm) s.pipeline.push_batch(batch);
    const auto deadline = after(window * (1.0 - kWarmupShare));
    while (Clock::now() < deadline) {
      const u64 t0 = now_ns();
      s.pipeline.push_batch(batch);
      out.record(now_ns() - t0);
    }
    check_stages(s, in, oracle, ledger);
  }
}

void end_to_end(Inputs& in, const Oracle& oracle, double seconds,
                RunResult& out) {
  Ledger& ledger = out.ledger;
  const double rss_before = rss_mb();
  const double round = seconds / kRounds;
  const usize windows = kLatencyWindows / kRounds;
  std::vector<double> setup;
  std::vector<double> rates;
  Histogram lat;
  WriterStats updates;
  DeviceUpdates device_updates;
  double device_cycles = 0;
  std::unique_ptr<RuleProgramPublisher> programs;
  // Resident growth over the first round, which builds and runs every
  // structure once. Later rounds rebuild the same ones; on acl-churn the
  // allocator's per-thread arenas then add ~1.7 MB at a random round.
  double rss_growth = 0;
  for (usize r = 0; r < kRounds; ++r) {
    // A fresh device each round, built from the same rules.
    programs.reset();
    programs = build_device(in, ledger, round * kSetupShare, &setup);
    if (r == 0) {
      check_snapshot(*programs, oracle, ledger, "verdicts after install");
      device_cycles = device_cycles_per_lookup(*programs, oracle, ledger);
    }
    if (!in.churn) {
      measure_mpps(in, *programs, oracle, round * kMppsShare, ledger, rates);
      measure_latency(in, *programs, oracle, round * kLatencyShare, windows,
                      ledger, lat);
      if (r == 0) rss_growth = rss_mb() - rss_before;
      continue;
    }
    const u64 version_before = programs->version();
    const u64 applied_before = updates.applied;
    const dataplane::PublisherStats stats_before = programs->stats();
    Writer writer(*programs, in.storm, updates);
    writer.record(true);
    measure_mpps(in, *programs, oracle, round * kMppsShare, ledger, rates);
    writer.record(false);
    measure_latency(in, *programs, oracle, round * kLatencyShare, windows,
                    ledger, lat);
    writer.stop();
    device_updates.add(*programs, stats_before);
    if (r == 0) rss_growth = rss_mb() - rss_before;
    check_after_updates(*programs, in, oracle, version_before,
                        updates.applied - applied_before, ledger);
  }
  if (!in.churn) {
    // The same schedule with nothing classifying beside it.
    const u64 version_before = programs->version();
    const dataplane::PublisherStats stats_before = programs->stats();
    const std::atomic<bool> stop{false};
    const std::atomic<bool> recording{true};
    stream_updates(*programs, in.storm,
                   even_at_least(kUpdateRate * seconds * kQuietUpdateShare),
                   stop, recording, updates);
    device_updates.add(*programs, stats_before);
    check_after_updates(*programs, in, oracle, version_before, updates.applied,
                        ledger);
  }
  check_writer(updates, ledger);

  // The device figures are the paper's cycle model at its clock
  // (cycles / MHz = microseconds). Host timings are noted, not gated:
  // on a shared host they move with other tenants' memory traffic.
  const double mhz = fmax_mhz(*programs);
  out.metrics = {
      {"device_mpps",
       core::ThroughputModel{mhz}.mega_lookups_per_sec(device_cycles), "Mpps"},
      {"device_update_us",
       ratio(double(device_updates.cycles), double(device_updates.updates)) /
           mhz,
       "us"},
      {"setup_s", median(setup), "s"},
      {"rss_mb", rss_growth, "MB"},
  };
  out.info.emplace_back("host_mpps", std::to_string(interquartile_mean(rates)));
  out.info.emplace_back("host_latency_us_p50",
                        std::to_string(lat.percentile(50) / 1e3));
  out.info.emplace_back("host_latency_us_p99",
                        std::to_string(lat.percentile(99) / 1e3));
  out.info.emplace_back("host_update_us_p50",
                        std::to_string(updates.pair_ns.percentile(50) / 1e3));
  out.info.emplace_back("device_updates",
                        std::to_string(device_updates.updates));
  out.info.emplace_back("latency_samples", std::to_string(lat.count()));
  out.info.emplace_back("update_pairs",
                        std::to_string(updates.pair_ns.count()));
  out.info.emplace_back("mpps_passes", std::to_string(rates.size()));
  out.info.emplace_back("setup_samples", std::to_string(setup.size()));
}

// ---- traced per-layer run -----------------------------------------------------

enum Layer : usize { kBatchSpan, kSource, kParse, kCache, kClassifier, kSink };

struct Traced {
  Tracer tracer{kKeepSpans};
  std::vector<net::FiveTuple> missed;  ///< cache misses of the count block
  u64 packets = 0;
};

/// Push each batch through the unconnected elements one at a time, a
/// span around every call.
void traced_window(const Inputs& in, const Oracle& oracle, double seconds,
                   Traced& t, Stages& s, Ledger& ledger) {
  Tracer& tr = t.tracer;
  for (const char* name : {"batch", "dataplane.source", "net.parse",
                           "core.flow_cache", "core.classifier",
                           "dataplane.sink"}) {
    tr.layer(name);
  }
  net::PacketBatch batch(kBatch);
  const auto deadline = after(seconds);
  for (u64 b = 0; Clock::now() < deadline; ++b) {
    tr.open(kBatchSpan, b, now_ns());
    tr.open(kSource, b, now_ns());
    s.source->push_batch(batch);
    tr.close(now_ns(), batch.size(), batch.size());

    const u64 parsed = s.parser->parsed();
    tr.open(kParse, b, now_ns());
    s.parser->push_batch(batch);
    tr.close(now_ns(), batch.size(), s.parser->parsed() - parsed);

    const core::FlowCacheStats before = s.cache->stats();
    tr.open(kCache, b, now_ns());
    s.cache->push_batch(batch);
    const core::FlowCacheStats& done = s.cache->stats();
    tr.close(now_ns(), done.hits + done.misses - before.hits - before.misses,
             done.hits - before.hits);

    u64 unresolved = 0;
    for (usize i = 0; i < batch.size(); ++i) {
      const net::PacketMeta& m = batch.meta(i);
      if (m.resolved || !m.tuple) continue;
      ++unresolved;
      if (t.packets < kCountPackets) t.missed.push_back(*m.tuple);
    }
    const u64 lookups = s.classifier->lookups();
    tr.open(kClassifier, b, now_ns());
    s.classifier->push_batch(batch);
    tr.close(now_ns(), unresolved, s.classifier->lookups() - lookups);

    const u64 matched = s.sink->matched();
    tr.open(kSink, b, now_ns());
    s.sink->push_batch(batch);
    tr.close(now_ns(), batch.size(), s.sink->matched() - matched);
    tr.close(now_ns(), batch.size(), batch.size());
    t.packets += batch.size();
  }
  check_stages(s, in, oracle, ledger);
}

/// Path-invariant counts over the count block's cache misses: the batch
/// entry point's probes and accesses must equal the scalar path's, and
/// both verdicts the oracle's.
void classifier_counts(const Inputs& in, const RuleProgramPublisher& programs,
                       const Oracle& oracle, const Traced& t, Ledger& ledger,
                       std::vector<Metric>& m) {
  const std::shared_ptr<const dataplane::RuleProgram> snap = programs.acquire();
  const core::ConfigurableClassifier& clf = snap->classifier();
  const std::vector<net::FiveTuple>& keys = t.missed;
  std::vector<core::ClassifyResult> batched(keys.size());
  core::BatchScratch scratch;
  for (usize i = 0; i < keys.size(); i += kBatch) {
    const usize n = std::min(kBatch, keys.size() - i);
    clf.classify_batch(std::span(keys).subspan(i, n),
                       std::span(batched).subspan(i, n), scratch);
  }
  u64 probes = 0, probes_max = 0, accesses = 0, matching = 0;
  u64 wrong = 0, path_variant = 0;
  double cycles_sum = 0;
  std::vector<double> cycles;
  cycles.reserve(keys.size());
  for (usize i = 0; i < keys.size(); ++i) {
    const core::ClassifyResult& b = batched[i];
    const core::ClassifyResult s = clf.classify(keys[i]);
    probes += b.crossproduct_probes;
    probes_max = std::max(probes_max, b.crossproduct_probes);
    accesses += b.memory_accesses;
    cycles.push_back(static_cast<double>(s.cycles));
    cycles_sum += static_cast<double>(s.cycles);
    if (b.crossproduct_probes != s.crossproduct_probes ||
        b.memory_accesses != s.memory_accesses) {
      ++path_variant;
    }
    const ruleset::Rule* want = oracle.lookup(keys[i]);
    if (!agrees(want, b.match) || !agrees(want, s.match)) ++wrong;
    matching += static_cast<u64>(std::count_if(
        in.rules.begin(), in.rules.end(),
        [&](const ruleset::Rule& r) { return r.matches(keys[i]); }));
  }
  ledger.add(keys.size(), wrong, "missed-header verdicts vs LinearSearch");
  ledger.add(keys.size(), path_variant,
             "batch and scalar probe/access counts agree");
  const double n = static_cast<double>(keys.size());
  m.push_back({"core.classifier.probes_per_lookup", ratio(double(probes), n),
               "count"});
  m.push_back({"core.classifier.probes_per_lookup_max", double(probes_max),
               "count"});
  m.push_back({"core.classifier.matching_rules_per_lookup",
               ratio(double(matching), n), "count"});
  m.push_back({"hwsim.cycles_per_lookup", ratio(cycles_sum, n), "cycles"});
  m.push_back({"hwsim.cycles_p99", percentile(cycles, 99), "cycles"});
  m.push_back({"hwsim.accesses_per_lookup", ratio(double(accesses), n),
               "count"});
  m.push_back({"hwsim.device_kbit",
               double(clf.memory_report().total_used_bits) / 1e3, "kbit"});
}

/// The publisher under its update schedule. Churn: two readers (one
/// engine worker, one pipeline on this thread) classify meanwhile and
/// the pipeline's cache flushes are counted; otherwise nothing reads.
void update_window(Inputs& in, RuleProgramPublisher& programs,
                   const Oracle& oracle, double seconds, Ledger& ledger,
                   std::vector<Metric>& m) {
  const u64 version_before = programs.version();
  const u64 spins_before = programs.stats().grace_spins;
  WriterStats w;
  double flushes_per_s = 0;
  if (in.churn) {
    in.pool.reset();
    dataplane::Engine engine(engine_config(1, /*loop=*/true), programs);
    engine.start(in.pool);
    Stages s(&in.pool, &programs);
    net::PacketBatch batch(kBatch);
    {
      Writer writer(programs, in.storm, w);
      writer.record(true);
      const auto t0 = Clock::now();
      const auto deadline = after(seconds);
      while (Clock::now() < deadline) s.pipeline.push_batch(batch);
      const double dt =
          std::chrono::duration<double>(Clock::now() - t0).count();
      writer.stop();
      flushes_per_s =
          static_cast<double>(s.cache->stats().invalidations) / dt;
    }
    const dataplane::EngineReport rep = engine.stop();
    ledger.add(1, rep.first_error().empty() && rep.versions_monotonic() ? 0 : 1,
               "reader engine healthy and monotonic");
    check_stages(s, in, oracle, ledger);
  } else {
    const std::atomic<bool> stop{false};
    const std::atomic<bool> recording{true};
    stream_updates(programs, in.storm, even_at_least(kUpdateRate * seconds),
                   stop, recording, w);
  }
  check_writer(w, ledger);
  check_after_updates(programs, in, oracle, version_before, w.applied, ledger);
  m.push_back({"core.flow_cache.flushes_per_s", flushes_per_s, "1/s"});
  m.push_back({"dataplane.rule_program.update_us_p50",
               w.pair_ns.percentile(50) / 1e3, "us"});
  m.push_back({"dataplane.rule_program.apply_us_p99",
               w.service_ns.percentile(99) / 1e3, "us"});
  m.push_back({"dataplane.rule_program.grace_spins_per_update",
               ratio(double(programs.stats().grace_spins - spins_before),
                     double(w.applied)),
               "count"});
  m.push_back({"dataplane.rule_program.writer_late_us_p99",
               w.late_ns.percentile(99) / 1e3, "us"});
}

void per_layer(Inputs& in, const Oracle& oracle, const Options& opts,
               RunResult& out) {
  Ledger& ledger = out.ledger;
  std::unique_ptr<RuleProgramPublisher> programs =
      build_device(in, ledger);
  check_snapshot(*programs, oracle, ledger, "verdicts after install");

  // Host timings, untraced: closed-loop engine passes, then the
  // connected pipeline, which is also the reference of the overhead
  // figure.
  std::vector<double> rates;
  measure_mpps(in, *programs, oracle, opts.seconds * kEngineShare, ledger,
               rates);
  Histogram untraced;
  measure_latency(in, *programs, oracle, opts.seconds * kUntracedShare,
                  kLatencyWindows, ledger, untraced);
  const double untraced_ns_per_pkt =
      untraced.mean() / static_cast<double>(kBatch);
  Traced t;
  in.pool.reset();
  Stages s(&in.pool, programs.get());
  s.disconnect();
  traced_window(in, oracle, opts.seconds * kTracedShare, t, s, ledger);

  const Tracer& tr = t.tracer;
  const double pkts = static_cast<double>(t.packets);
  const auto self_per = [&](Layer l, double per) {
    return ratio(static_cast<double>(tr.totals(l).self_ns), per);
  };
  const LayerTotals& cache = tr.totals(kCache);
  const LayerTotals& clf = tr.totals(kClassifier);
  const double lookups = static_cast<double>(clf.work);
  u64 path_total = 0;
  for (usize p = 0; p < core::kNumBatchPaths; ++p) {
    path_total += s.classifier->path_batches(static_cast<core::BatchPath>(p));
  }
  const auto path_share = [&](core::BatchPath p) {
    return ratio(double(s.classifier->path_batches(p)), double(path_total));
  };
  std::vector<Metric>& m = out.metrics;
  m = {
      {"dataplane.engine.mpps", interquartile_mean(rates), "Mpps"},
      {"dataplane.pipeline.latency_us_p50", untraced.percentile(50) / 1e3, "us"},
      {"dataplane.pipeline.latency_us_p99", untraced.percentile(99) / 1e3, "us"},
      {"dataplane.source.ns_per_pkt", self_per(kSource, pkts), "ns"},
      {"dataplane.sink.ns_per_pkt", self_per(kSink, pkts), "ns"},
      {"net.parse.ns_per_pkt", self_per(kParse, pkts), "ns"},
      {"net.parse.errors", double(s.parser->errors()), "count"},
      {"core.flow_cache.ns_per_pkt", self_per(kCache, pkts), "ns"},
      {"core.flow_cache.hit_ratio",
       ratio(double(cache.work), double(cache.items)), "ratio"},
      {"core.classifier.ns_per_lookup", self_per(kClassifier, lookups), "ns"},
      {"core.classifier.lookups_per_pkt", ratio(lookups, pkts), "count"},
      {"core.classifier.memo_hits_per_lookup",
       ratio(double(s.classifier->probe_memo_hits()), lookups), "count"},
      {"core.classifier.path_share.scalar_loop",
       path_share(core::BatchPath::kScalarLoop), "ratio"},
      {"core.classifier.path_share.phase2",
       path_share(core::BatchPath::kPhase2), "ratio"},
      {"core.classifier.path_share.phase2_memo",
       path_share(core::BatchPath::kPhase2Memo), "ratio"},
      {"bench.trace_overhead_pct",
       (ratio(double(tr.totals(kBatchSpan).total_ns), pkts) /
            untraced_ns_per_pkt -
        1.0) * 100.0,
       "%"},
  };
  ledger.add(1, s.parser->errors() == 0 ? 0 : 1, "parse errors");
  classifier_counts(in, *programs, oracle, t, ledger, m);
  update_window(in, *programs, oracle, opts.seconds * kTraceUpdateShare,
                ledger, m);

  out.info.emplace_back("traced_packets", std::to_string(t.packets));
  out.info.emplace_back("count_block_lookups", std::to_string(t.missed.size()));
  out.info.emplace_back("spans_kept", std::to_string(tr.kept()));
  out.info.emplace_back("spans_dropped", std::to_string(tr.dropped()));
  if (!opts.trace_path.empty()) {
    std::ofstream os(opts.trace_path);
    tr.write_chrome_trace(os);
    ledger.add(1, os.good() ? 0 : 1, "chrome trace written");
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fw-thrash", "acl-zipf",
                                                 "acl-churn"};
  return names;
}

RunResult run_workload(const Options& opts) {
  RunResult out;
  Inputs in = make_inputs(opts.workload, opts.seed, opts.seconds, out.ledger);
  const Oracle oracle(in.rules, in.headers);
  out.info.emplace_back("rules", std::to_string(in.rules.size()));
  out.info.emplace_back("pool_packets", std::to_string(in.pool.size()));
  out.info.emplace_back("distinct_headers",
                        std::to_string(oracle.distinct.size()));
  out.info.emplace_back("reader_threads", std::to_string(kWorkers));
  out.info.emplace_back("writer_threads", in.churn ? "1" : "0");
  if (opts.trace) {
    per_layer(in, oracle, opts, out);
  } else {
    end_to_end(in, oracle, opts.seconds, out);
  }
  return out;
}

}  // namespace perfbench
