/// \file engine.hpp
/// The dataplane Engine: N worker threads, each driving its own
/// element pipeline (PacketSource -> Parser -> [FlowCache] ->
/// Classifier -> ActionSink) over per-worker PacketBatches. Workers
/// share exactly two things, both wait-free on the fast path: the
/// TrafficPool claim cursor and the published RuleProgram pointer.
/// Everything else — batches, flow caches, statistics — is worker-local,
/// which is what lets the aggregate throughput scale with cores while a
/// concurrent writer streams rule updates through the publisher.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dataplane/elements.hpp"
#include "dataplane/flow_steer.hpp"
#include "dataplane/rule_program.hpp"
#include "dataplane/stats.hpp"
#include "fault/fault.hpp"
#include "telemetry/live_stats.hpp"
#include "telemetry/sampler.hpp"

namespace pclass::dataplane {

/// Shared, semaphore-style budget of engine worker threads. Concurrent
/// engines (e.g. scenarios run by ScenarioRunner::run_many --parallel)
/// draw their workers from one budget, so total concurrent engine
/// worker threads never exceed the capacity — the scenarios x workers
/// oversubscription a parallel catalog run would otherwise inflict on a
/// small CI runner.
///
/// Grants are all-or-nothing: acquire() blocks until the full request
/// is free and takes it in one step, so an engine always runs with the
/// same worker count whether the budget is contended or not — which is
/// what keeps a capped parallel run's reports identical to the
/// sequential run's. A request larger than the capacity is clamped to
/// it (the engine runs at the cap instead of deadlocking).
///
/// Grants are FIFO by arrival: each acquire() takes a ticket and is
/// served strictly in ticket order (head-of-line blocking is the
/// point — a large request at the head is never starved by a stream of
/// small ones slipping past it), so many-scenario runs are
/// starvation-free by construction.
///
/// Thread-safe. An engine holds its grant from start() until the last
/// worker joined, so peak_in_use() is a high-water mark of concurrent
/// engine worker threads.
class WorkerBudget {
 public:
  /// \throws ConfigError when \p capacity == 0.
  explicit WorkerBudget(usize capacity);

  /// Block until min(want, capacity) slots are free, take them all, and
  /// return the granted count (>= 1).
  [[nodiscard]] usize acquire(usize want);

  /// Return \p granted slots (the exact count acquire() returned).
  void release(usize granted);

  [[nodiscard]] usize capacity() const { return capacity_; }
  [[nodiscard]] usize in_use() const;
  /// High-water mark of concurrently-granted slots since construction.
  [[nodiscard]] usize peak_in_use() const;
  /// Acquirers whose ticket has not been served yet (the queue depth,
  /// including the head waiting for capacity).
  [[nodiscard]] usize waiting() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  usize capacity_;
  usize in_use_ = 0;
  usize peak_ = 0;
  u64 next_ticket_ = 0;  ///< next ticket to hand out
  u64 serving_ = 0;      ///< lowest ticket not yet granted
};

/// Engine self-healing policy (the watchdog; see docs/ROBUSTNESS.md).
/// Off by default: the legacy contract — a worker that throws is
/// reported dead in WorkerReport::error and its traffic is lost —
/// stays intact, and worker_main keeps its untouched fast path.
struct SupervisorConfig {
  bool enabled = false;
  /// Watchdog scan period.
  u64 watchdog_interval_ms = 20;
  /// A worker whose heartbeat has not advanced for this long counts as
  /// one stall episode (counted once; it re-arms when the heartbeat
  /// moves again). Stalled workers are not killed — a C++ thread can't
  /// be — they are expected to resume or exit.
  u64 stall_deadline_ms = 500;
  /// Times a dead worker is respawned before it is declared
  /// permanently failed (and, when sharded, its shards handed to a
  /// survivor).
  usize max_restarts = 2;
  /// First restart back-off; doubles per restart. Abort-aware (a
  /// stop()/drain cancels the wait).
  u64 restart_backoff_ms = 10;
};

/// Engine geometry and policy.
struct EngineConfig {
  usize workers = 1;
  usize batch_size = net::kDefaultBatchCapacity;
  /// Per-worker exact-match flow-cache lines; 0 disables the cache.
  u32 flow_cache_depth = 0;
  /// false: drain the pool once and return (run()).
  /// true: wrap the pool endlessly until stop() (start()/stop()).
  bool loop = false;
  /// When set, start() acquires `workers` slots from this budget
  /// (blocking; clamped to its capacity) and runs with the granted
  /// count; the grant is released once every worker joined. nullptr =
  /// unbudgeted.
  WorkerBudget* budget = nullptr;
  /// Master telemetry switch: per-worker live counters + trace rings +
  /// update-visibility sampling. Always on by default (the contract is
  /// near-zero cost — the overhead gate in bench_batch_ablation holds
  /// it under 3% Mpps); false is the gate's baseline leg.
  bool telemetry = true;
  /// Run a background StatsSampler snapshotting all workers every this
  /// many ms onto EngineReport::timeseries. 0 = no sampler thread
  /// (end-of-run totals only). Requires `telemetry`.
  u64 stats_interval_ms = 0;
  /// Keep drained TraceRing events in EngineReport::trace_events (the
  /// chrome://tracing export). Off: rings are still written and drop
  /// accounting still works, but drains discard the payload.
  bool collect_trace = false;
  /// Per-worker TraceRing capacity in events (rounded up to a power of
  /// two). Sized so one sampler interval's batches fit comfortably.
  usize trace_ring_capacity = telemetry::TraceRing::kDefaultCapacity;
  /// With collect_trace, retain at most this many drained spans for the
  /// export — a loop-mode run can produce millions, and chrome://tracing
  /// chokes far earlier. Spans past the limit still drain (drop
  /// accounting stays exact) and are counted in
  /// EngineReport::trace_events_truncated. 0 = unlimited.
  usize trace_keep_limit = usize{1} << 15;
  /// RSS-style sharding (0 = unsharded: the legacy geometry where every
  /// worker thread drains the shared pool). With shards = S > 0 the
  /// engine builds S shards — each owning its classifier subscription,
  /// flow cache, probe memo, path controller, batch scratch and
  /// telemetry block — pinned shard s -> worker thread s % workers
  /// (workers is clamped to S).
  /// Each shard drains its steered slice of the pool against the full
  /// ruleset (a replica).
  usize shards = 0;
  /// Symmetric steering hash: both directions of a flow land on the
  /// same shard.
  bool steer_symmetric = false;
  /// Record every packet's verdict (arrival order, per shard) into
  /// EngineReport::captured — the sharded differential fuzzer's hook.
  /// Finite runs only.
  bool capture_verdicts = false;
  /// Test hook: invoked as (worker_index) once per batch iteration in
  /// worker_main before the pipeline runs. A throw propagates through
  /// the worker's normal exception capture into WorkerReport::error —
  /// how the error-surfacing tests inject a worker fault. nullptr in
  /// production.
  std::function<void(usize)> worker_fault_hook;
  /// Seeded fault-injection plane: consulted once per worker sweep
  /// (throw/stall events). Borrowed — must outlive the run. start()
  /// wires the injector's abort flag to the engine stop signal so
  /// injected stalls cancel on drain/shutdown. nullptr in production.
  fault::FaultInjector* fault_injector = nullptr;
  /// Self-healing supervisor (heartbeats + watchdog + bounded restarts
  /// + sharded-engine shard takeover). See SupervisorConfig.
  SupervisorConfig supervisor;
};

/// Live view of the supervisor's counters (readable while running).
struct SupervisorStatus {
  bool enabled = false;
  u64 worker_restarts = 0;
  u64 stall_detections = 0;
  u64 shards_reassigned = 0;
  u64 workers_failed = 0;  ///< permanently failed (post-retry)
};

/// Multi-worker batched dataplane runtime.
class Engine {
 public:
  Engine(EngineConfig cfg, const RuleProgramPublisher& programs);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Drain a finite pool across all workers and report.
  /// \throws ConfigError in loop mode (use start()/stop()).
  EngineReport run(TrafficPool& pool);

  /// Launch the workers without blocking (loop mode's entry point).
  void start(TrafficPool& pool);

  /// Signal, join and report. Idempotent once stopped.
  EngineReport stop();

  /// Join a start()ed finite run WITHOUT raising the stop flag: blocks
  /// until the run concludes — every packet delivered or explicitly
  /// shed, all supervisor restarts/takeovers resolved — then reports.
  /// The chaos path: start(), stream updates (some injected to fail),
  /// wait(). \throws ConfigError in loop mode (nothing concludes).
  EngineReport wait();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }

  /// Supervisor counters, live (relaxed atomics; safe while running).
  [[nodiscard]] SupervisorStatus supervisor_status() const;

  // ---- control-surface attach points (PR 7) ----
  // The live-introspection plane reads the running engine without
  // stopping it. Callers serialize against stop() themselves (the
  // ControlPlane holds one mutex across handler dispatch and drain).

  /// The background StatsSampler, or nullptr when stats_interval_ms is
  /// 0 / telemetry is off / the engine's telemetry epilogue already ran.
  /// Borrowed; invalidated by stop().
  [[nodiscard]] telemetry::StatsSampler* sampler() { return sampler_.get(); }

  /// Per-worker live telemetry blocks (empty when telemetry is off).
  /// Stable from start() until the *next* start(); the counters stay
  /// readable after stop() (they are totals, frozen once workers join).
  [[nodiscard]] std::vector<const telemetry::WorkerTelemetry*>
  telemetry_blocks() const {
    std::vector<const telemetry::WorkerTelemetry*> out;
    out.reserve(tel_.size());
    for (const auto& t : tel_) out.push_back(t.get());
    return out;
  }

 private:
  /// One pipeline's worth of state. The shard is the unit of ownership:
  /// classifier subscription, flow cache, scratch (probe memo + path
  /// controller), telemetry block and (when capturing) the verdict log
  /// all live here, on the shard's own allocations. Unsharded engines
  /// are the degenerate geometry of one shard per worker over a shared
  /// pool.
  struct Shard {
    usize index = 0;   ///< shard id (== worker id when unsharded)
    usize owner = 0;   ///< owning worker thread (index % thread count)
    /// Owned per-shard pool (the steered slice). Unsharded shards drain
    /// the caller's pool instead.
    TrafficPool pool;
    TrafficPool* active_pool = nullptr;  ///< what the source drains
    Pipeline pipeline;
    PacketSource* source = nullptr;
    Parser* parser = nullptr;
    FlowCacheElement* cache = nullptr;
    ClassifierElement* classifier = nullptr;
    ActionSink* sink = nullptr;
    /// In-arrival-order verdict log (capture_verdicts).
    std::vector<CapturedVerdict> captured;
    /// Set by the owning worker once the shard's source ran dry. Owner-
    /// written, watchdog-read: it is what survives a worker restart or
    /// a takeover (the local done[] bookkeeping dies with the thread).
    std::atomic<bool> drained{false};
  };

  /// An OS thread driving one or more shards round-robin.
  struct WorkerThread {
    usize index = 0;
    /// Owned shards. Stable unless the supervisor is enabled, in which
    /// case mu guards it (the watchdog reassigns shards on takeover and
    /// the worker copies the list per sweep).
    std::vector<Shard*> shards;
    std::thread thread;
    double wall_seconds = 0;
    std::string error;  ///< exception text if the (last) incarnation died
    // ---- supervisor state (PR 9) ----
    mutable std::mutex mu;          ///< guards `shards` when supervised
    std::atomic<u64> heartbeat{0};  ///< one tick per sweep (stall detect)
    std::atomic<u64> sweeps{0};     ///< persistent sweep counter (injector)
    std::atomic<bool> exited{false};  ///< thread function returned
    std::atomic<u64> restarts{0};   ///< respawns performed by the watchdog
    std::atomic<u64> stalls{0};     ///< stall episodes detected
    std::atomic<bool> failed_permanently{false};
    u64 shards_lost = 0;  ///< undrained shards with no survivor to take them
    /// Every incarnation's death message, in order (watchdog-written
    /// after joining the dead thread; read after the watchdog joins).
    std::vector<std::string> all_errors;
  };

  void worker_main(WorkerThread& w);
  /// (Re)launch w's OS thread running worker_main (exited is cleared
  /// first; wall_seconds stays measured from engine start).
  void spawn_worker(WorkerThread& w);
  /// The watchdog: scans heartbeats every watchdog_interval_ms, joins
  /// and respawns dead workers (bounded, backed-off), counts stall
  /// episodes, and hands a permanently-failed worker's undrained
  /// shards to a survivor (sharded engines). Exits once the run concluded
  /// or the engine is stopping.
  void watchdog_main();
  /// Move w's undrained shards to the first non-failed survivor
  /// (sharded engines); otherwise record them as lost on w.
  void take_over_shards(WorkerThread& w);
  /// Does w still own a shard whose pool is not fully delivered?
  [[nodiscard]] static bool has_undrained(const WorkerThread& w);
  EngineReport finish(bool signal_stop);
  [[nodiscard]] EngineReport collect() const;
  /// WorkerReport for one shard's elements (worker = shard index).
  [[nodiscard]] WorkerReport shard_report(const Shard& s) const;
  /// Sum shard rows owned by one thread into a per-thread row
  /// (the sharded engine's workers[] view).
  [[nodiscard]] static WorkerReport merge_shard_reports(
      usize worker, const std::vector<const WorkerReport*>& rows);
  /// Effective trace retention cap: 0 = not collecting, SIZE_MAX =
  /// collecting without a limit.
  [[nodiscard]] usize trace_keep() const;

  EngineConfig cfg_;
  /// The publisher every shard subscribes to.
  const RuleProgramPublisher* programs_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<WorkerThread>> threads_;
  /// Per-shard telemetry blocks (index-aligned with shards_; empty
  /// when cfg_.telemetry is false). unique_ptr keeps each block at its
  /// own cache-line-aligned allocation. Safe despite multi-shard
  /// threads: exactly one thread owns each shard, so each block keeps a
  /// single writer.
  std::vector<std::unique_ptr<telemetry::WorkerTelemetry>> tel_;
  std::unique_ptr<telemetry::StatsSampler> sampler_;
  std::vector<telemetry::StatsSample> timeseries_;
  std::vector<telemetry::TraceEvent> trace_events_;
  u64 trace_truncated_ = 0;  ///< drained past trace_keep_limit
  bool final_drained_ = false;  ///< rings flushed after the last join
  std::atomic<bool> stop_{false};
  bool running_ = false;
  double wall_seconds_ = 0;
  usize budget_granted_ = 0;  ///< slots held from cfg_.budget, 0 = none
  // ---- supervisor + conservation state (PR 9) ----
  std::chrono::steady_clock::time_point start_time_;
  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
  /// Every worker concluded: exited clean, or permanently failed with
  /// its shards reassigned/accounted. What wait() blocks on.
  std::atomic<bool> run_concluded_{false};
  std::atomic<u64> worker_restarts_{0};
  std::atomic<u64> stall_detections_{0};
  std::atomic<u64> shards_reassigned_{0};
  /// The caller's pool (unsharded geometry drains it directly);
  /// borrowed during the run for the conservation ledger, which is
  /// computed once at first finish() and cached below.
  TrafficPool* caller_pool_ = nullptr;
  u64 offered_ = 0;
  u64 delivered_ = 0;
  u64 shed_ = 0;
  u64 lost_ = 0;
  bool conservation_checked_ = false;
};

}  // namespace pclass::dataplane
