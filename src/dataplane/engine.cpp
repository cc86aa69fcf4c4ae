#include "dataplane/engine.hpp"

#include <chrono>
#include <limits>

namespace pclass::dataplane {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

// ---- WorkerBudget ---------------------------------------------------------

WorkerBudget::WorkerBudget(usize capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw ConfigError("WorkerBudget: capacity must be >= 1");
  }
}

usize WorkerBudget::acquire(usize want) {
  const usize grant = std::max<usize>(1, std::min(want, capacity_));
  std::unique_lock<std::mutex> lock(mu_);
  // Ticketed FIFO: grants go strictly in arrival order. Only the head
  // ticket may take capacity, so a burst of releases can never let a
  // late small request leapfrog an early large one (the
  // condition-variable free-for-all this replaces was wakeup-order
  // unfair under contention).
  const u64 ticket = next_ticket_++;
  cv_.wait(lock, [&] {
    return ticket == serving_ && capacity_ - in_use_ >= grant;
  });
  ++serving_;
  in_use_ += grant;
  peak_ = std::max(peak_, in_use_);
  // The new head may already be satisfiable (e.g. it wants fewer slots
  // than remain) — hand the baton on.
  cv_.notify_all();
  return grant;
}

void WorkerBudget::release(usize granted) {
  if (granted == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (granted > in_use_) {
      throw InternalError("WorkerBudget: release of more slots than held");
    }
    in_use_ -= granted;
  }
  cv_.notify_all();
}

usize WorkerBudget::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

usize WorkerBudget::peak_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

usize WorkerBudget::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<usize>(next_ticket_ - serving_);
}

// ---- Engine ---------------------------------------------------------------

Engine::Engine(EngineConfig cfg, const RuleProgramPublisher& programs)
    : cfg_(cfg), programs_(&programs) {
  if (cfg_.workers == 0) cfg_.workers = 1;
  if (cfg_.batch_size == 0) cfg_.batch_size = net::kDefaultBatchCapacity;
}

Engine::~Engine() {
  if (running_) {
    stop();
  }
}

void Engine::start(TrafficPool& pool) {
  if (running_) {
    throw ConfigError("Engine: start() while already running");
  }
  if (cfg_.capture_verdicts && cfg_.loop) {
    throw ConfigError("Engine: capture_verdicts requires a finite pool");
  }
  stop_.store(false, std::memory_order_relaxed);
  shards_.clear();
  threads_.clear();
  tel_.clear();
  sampler_.reset();
  timeseries_.clear();
  trace_events_.clear();
  trace_truncated_ = 0;
  final_drained_ = false;
  watchdog_stop_.store(false, std::memory_order_relaxed);
  run_concluded_.store(false, std::memory_order_relaxed);
  worker_restarts_.store(0, std::memory_order_relaxed);
  stall_detections_.store(0, std::memory_order_relaxed);
  shards_reassigned_.store(0, std::memory_order_relaxed);
  caller_pool_ = &pool;
  offered_ = delivered_ = shed_ = lost_ = 0;
  conservation_checked_ = false;
  if (cfg_.fault_injector != nullptr) {
    // Injected stalls must not outlive a drain: abort them on stop_.
    cfg_.fault_injector->set_abort_flag(&stop_);
  }
  const bool sharded = cfg_.shards > 0;
  // Draw this engine's worker threads from the shared budget (blocking
  // until the whole grant is free), so concurrent engines never exceed
  // the budget's capacity in total. A sharded engine never asks for
  // more threads than shards — extra threads would idle.
  usize thread_count =
      sharded ? std::min(cfg_.workers, cfg_.shards) : cfg_.workers;
  if (cfg_.budget != nullptr) {
    budget_granted_ = cfg_.budget->acquire(thread_count);
    thread_count = budget_granted_;
  }
  const usize nshards = sharded ? cfg_.shards : thread_count;
  thread_count = std::min(thread_count, nshards);

  // The RSS stage: split the caller's pool into per-flow consistent
  // slices before any worker starts (the software analogue of the NIC
  // hashing into receive queues).
  std::vector<TrafficPool> steered;
  if (sharded) {
    steered = steer_split(pool, nshards, cfg_.steer_symmetric);
  }

  for (usize s = 0; s < nshards; ++s) {
    telemetry::WorkerTelemetry* tel = nullptr;
    if (cfg_.telemetry) {
      tel_.push_back(std::make_unique<telemetry::WorkerTelemetry>(
          static_cast<u32>(s), cfg_.trace_ring_capacity));
      tel = tel_.back().get();
    }
    auto sh = std::make_unique<Shard>();
    sh->index = s;
    sh->owner = s % thread_count;
    if (sharded) {
      sh->pool = std::move(steered[s]);
      sh->active_pool = &sh->pool;
    } else {
      sh->active_pool = &pool;  // legacy geometry: shared claim cursor
    }
    const std::string stem =
        (sharded ? "shard" : "worker") + std::to_string(s);
    sh->source =
        sh->pipeline.emplace<PacketSource>(sh->active_pool, cfg_.loop);
    sh->parser = sh->pipeline.emplace<Parser>(tel);
    if (cfg_.flow_cache_depth > 0) {
      sh->cache = sh->pipeline.emplace<FlowCacheElement>(
          programs_, cfg_.flow_cache_depth, stem + ".flow_cache", tel);
    }
    sh->classifier =
        sh->pipeline.emplace<ClassifierElement>(programs_, sh->cache, tel);
    sh->sink = sh->pipeline.emplace<ActionSink>(
        tel, cfg_.capture_verdicts ? &sh->captured : nullptr);
    shards_.push_back(std::move(sh));
  }
  for (usize t = 0; t < thread_count; ++t) {
    auto w = std::make_unique<WorkerThread>();
    w->index = t;
    threads_.push_back(std::move(w));
  }
  for (const auto& sh : shards_) {
    threads_[sh->owner]->shards.push_back(sh.get());
  }
  if (cfg_.telemetry && cfg_.stats_interval_ms > 0) {
    std::vector<telemetry::WorkerTelemetry*> blocks;
    blocks.reserve(tel_.size());
    for (const auto& t : tel_) blocks.push_back(t.get());
    sampler_ = std::make_unique<telemetry::StatsSampler>(
        std::move(blocks), cfg_.stats_interval_ms, trace_keep());
    sampler_->start();
  }
  start_time_ = Clock::now();
  try {
    for (auto& w : threads_) {
      spawn_worker(*w);
    }
    if (cfg_.supervisor.enabled) {
      watchdog_ = std::thread([this] { watchdog_main(); });
    }
  } catch (...) {
    // Thread construction failed part-way (e.g. an absurd worker
    // count): join what launched, or their destructors terminate us.
    stop_.store(true, std::memory_order_relaxed);
    watchdog_stop_.store(true, std::memory_order_relaxed);
    if (watchdog_.joinable()) watchdog_.join();
    for (auto& w : threads_) {
      if (w->thread.joinable()) w->thread.join();
    }
    threads_.clear();
    shards_.clear();
    if (budget_granted_ > 0) {
      cfg_.budget->release(budget_granted_);
      budget_granted_ = 0;
    }
    throw;
  }
  running_ = true;
  wall_seconds_ = 0;
}

void Engine::spawn_worker(WorkerThread& w) {
  w.exited.store(false, std::memory_order_release);
  w.thread = std::thread([this, &w] {
    try {
      worker_main(w);
    } catch (const std::exception& e) {
      // An escaping exception would std::terminate the process;
      // capture it for the report instead.
      w.error = e.what();
    }
    // Wall clock runs from engine start to this incarnation's exit.
    w.wall_seconds = seconds_since(start_time_);
    w.exited.store(true, std::memory_order_release);
  });
}

void Engine::worker_main(WorkerThread& w) {
  net::PacketBatch batch(cfg_.batch_size);
  if (!cfg_.supervisor.enabled) {
    // Round-robin over the thread's shards: one batch per live shard
    // per sweep, so co-located shards progress at the same batch
    // cadence. A shard whose (finite or empty) pool ran dry drops out
    // of the sweep. Unsupervised: the shard list is stable, so the
    // legacy local bookkeeping is the whole fast path.
    std::vector<bool> done(w.shards.size(), false);
    usize live = w.shards.size();
    while (live > 0 && !stop_.load(std::memory_order_relaxed)) {
      if (cfg_.worker_fault_hook) {
        cfg_.worker_fault_hook(w.index);
      }
      if (cfg_.fault_injector != nullptr) {
        cfg_.fault_injector->on_worker_batch(
            w.index, w.sweeps.fetch_add(1, std::memory_order_relaxed));
      }
      for (usize k = 0; k < w.shards.size(); ++k) {
        if (done[k]) continue;
        Shard& s = *w.shards[k];
        s.source->push_batch(batch);
        if (s.source->exhausted()) {
          s.drained.store(true, std::memory_order_release);
          done[k] = true;
          --live;
        }
      }
    }
    return;
  }
  // Supervised: the shard list can change under us (the watchdog hands
  // a failed worker's shards over), so copy it per sweep under the
  // lock; progress ticks the heartbeat the watchdog's stall detector
  // reads, and the persistent sweep counter drives the injector even
  // across restarts. Shard::drained replaces the local done[] — it is
  // the piece of "which packets are already delivered" that must
  // survive this thread dying.
  std::vector<Shard*> mine;
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lk(w.mu);
      mine.assign(w.shards.begin(), w.shards.end());
    }
    w.heartbeat.fetch_add(1, std::memory_order_relaxed);
    const u64 sweep = w.sweeps.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.worker_fault_hook) {
      cfg_.worker_fault_hook(w.index);
    }
    if (cfg_.fault_injector != nullptr) {
      cfg_.fault_injector->on_worker_batch(w.index, sweep);
    }
    usize live = 0;
    for (Shard* sp : mine) {
      if (sp->drained.load(std::memory_order_acquire)) continue;
      sp->source->push_batch(batch);
      if (sp->source->exhausted()) {
        sp->drained.store(true, std::memory_order_release);
      } else {
        ++live;
      }
    }
    if (live == 0) break;
  }
}

bool Engine::has_undrained(const WorkerThread& w) {
  std::lock_guard<std::mutex> lk(w.mu);
  for (const Shard* sh : w.shards) {
    if (!sh->drained.load(std::memory_order_acquire)) return true;
  }
  return false;
}

void Engine::take_over_shards(WorkerThread& w) {
  // Called by the watchdog with w's thread already joined — the old
  // owner is gone, so moving its shards preserves the one-writer-per-
  // shard telemetry invariant.
  std::vector<Shard*> undrained;
  {
    std::lock_guard<std::mutex> lk(w.mu);
    auto& v = w.shards;
    for (auto it = v.begin(); it != v.end();) {
      if (!(*it)->drained.load(std::memory_order_acquire)) {
        undrained.push_back(*it);
        it = v.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (undrained.empty()) return;
  // Takeover is a sharded-geometry capability: shards are independent
  // steered slices, so any survivor can finish them. In the unsharded
  // geometry the pool is shared — survivors' own sources claim the
  // remaining packets without any handover.
  WorkerThread* survivor = nullptr;
  if (cfg_.shards > 0) {
    for (auto& other : threads_) {
      if (other.get() == &w) continue;
      if (other->failed_permanently.load(std::memory_order_relaxed)) continue;
      survivor = other.get();
      break;
    }
  }
  if (survivor == nullptr) {
    const bool shared_pool = cfg_.shards == 0;
    {
      std::lock_guard<std::mutex> lk(w.mu);
      w.shards.insert(w.shards.end(), undrained.begin(), undrained.end());
    }
    // Shared-pool shards are not "lost" — the remaining packets stay
    // claimable by every other worker; conservation attributes only the
    // in-flight batch to this death.
    if (!shared_pool) w.shards_lost = undrained.size();
    return;
  }
  {
    std::scoped_lock lk(w.mu, survivor->mu);
    for (Shard* sh : undrained) {
      sh->owner = survivor->index;
      survivor->shards.push_back(sh);
    }
  }
  shards_reassigned_.fetch_add(undrained.size(), std::memory_order_relaxed);
  // A survivor that already finished its own shards has exited cleanly
  // and will never see the handover — bounce it. (If it exits in the
  // instant between the handover and this check, the watchdog's
  // exited-clean-but-undrained scan respawns it next tick.)
  if (survivor->exited.load(std::memory_order_acquire) &&
      !stop_.load(std::memory_order_relaxed)) {
    if (survivor->thread.joinable()) survivor->thread.join();
    spawn_worker(*survivor);
  }
}

void Engine::watchdog_main() {
  const auto interval = std::chrono::milliseconds(
      std::max<u64>(1, cfg_.supervisor.watchdog_interval_ms));
  const auto stall_deadline =
      std::chrono::milliseconds(cfg_.supervisor.stall_deadline_ms);
  // Abort-aware sleep: a drain/stop mid-backoff must not hold up
  // shutdown for the full backoff.
  const auto nap = [this](std::chrono::milliseconds total) {
    const auto until = Clock::now() + total;
    while (Clock::now() < until) {
      if (stop_.load(std::memory_order_relaxed) ||
          watchdog_stop_.load(std::memory_order_relaxed)) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  struct Track {
    u64 last_heartbeat = 0;
    Clock::time_point last_change;
    bool in_stall = false;
  };
  std::vector<Track> track(threads_.size());
  for (auto& t : track) t.last_change = Clock::now();
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    nap(interval);
    if (watchdog_stop_.load(std::memory_order_relaxed)) break;
    bool concluded = true;
    const Clock::time_point now = Clock::now();
    for (usize i = 0; i < threads_.size(); ++i) {
      WorkerThread& w = *threads_[i];
      if (w.failed_permanently.load(std::memory_order_relaxed)) continue;
      if (!w.exited.load(std::memory_order_acquire)) {
        concluded = false;
        // Stall detection: a heartbeat that has not moved for the
        // deadline is one episode; it re-arms when the worker moves
        // again. Stalled workers are not killed — a stuck C++ thread
        // cannot be preempted — they are expected to resume (bounded
        // stalls) or die (which the exit path handles).
        Track& t = track[i];
        const u64 hb = w.heartbeat.load(std::memory_order_relaxed);
        if (hb != t.last_heartbeat) {
          t.last_heartbeat = hb;
          t.last_change = now;
          t.in_stall = false;
        } else if (!t.in_stall && now - t.last_change >= stall_deadline) {
          t.in_stall = true;
          w.stalls.fetch_add(1, std::memory_order_relaxed);
          stall_detections_.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      if (w.thread.joinable()) w.thread.join();
      if (w.error.empty()) {
        // Clean exit. If a takeover handed it shards in the instant it
        // was exiting, bounce it back up — Shard::drained makes the
        // respawn resume exactly where delivery stopped.
        if (!stop_.load(std::memory_order_relaxed) && has_undrained(w)) {
          concluded = false;
          track[i] = {w.heartbeat.load(std::memory_order_relaxed),
                      Clock::now(), false};
          spawn_worker(w);
        }
        continue;
      }
      // The worker died. Move the death message to the log, then
      // either respawn (bounded, backed off) or declare it permanently
      // failed and hand its shards over.
      concluded = false;
      const u64 prior = w.restarts.load(std::memory_order_relaxed);
      w.all_errors.push_back(std::move(w.error));
      w.error.clear();
      if (stop_.load(std::memory_order_relaxed)) {
        // Shutting down: no point restarting into the stop flag.
        w.failed_permanently.store(true, std::memory_order_release);
        continue;
      }
      if (prior < cfg_.supervisor.max_restarts) {
        nap(std::chrono::milliseconds(cfg_.supervisor.restart_backoff_ms
                                      << prior));
        if (stop_.load(std::memory_order_relaxed) ||
            watchdog_stop_.load(std::memory_order_relaxed)) {
          w.failed_permanently.store(true, std::memory_order_release);
          continue;
        }
        w.restarts.fetch_add(1, std::memory_order_relaxed);
        worker_restarts_.fetch_add(1, std::memory_order_relaxed);
        track[i] = {w.heartbeat.load(std::memory_order_relaxed),
                    Clock::now(), false};
        spawn_worker(w);
      } else {
        // Order matters for wait(): reassign first, flag last, so a
        // permanently-failed worker is never observed mid-takeover.
        take_over_shards(w);
        w.failed_permanently.store(true, std::memory_order_release);
      }
    }
    if (concluded) {
      run_concluded_.store(true, std::memory_order_release);
      break;
    }
  }
}

EngineReport Engine::stop() { return finish(/*signal_stop=*/true); }

EngineReport Engine::wait() {
  if (cfg_.loop) {
    throw ConfigError("Engine: wait() needs a finite pool; "
                      "loop mode uses stop()");
  }
  return finish(/*signal_stop=*/false);
}

SupervisorStatus Engine::supervisor_status() const {
  SupervisorStatus st;
  st.enabled = cfg_.supervisor.enabled;
  st.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  st.stall_detections = stall_detections_.load(std::memory_order_relaxed);
  st.shards_reassigned = shards_reassigned_.load(std::memory_order_relaxed);
  for (const auto& w : threads_) {
    if (w->failed_permanently.load(std::memory_order_relaxed)) {
      ++st.workers_failed;
    }
  }
  return st;
}

EngineReport Engine::finish(bool signal_stop) {
  if (signal_stop) {
    stop_.store(true, std::memory_order_relaxed);
  }
  if (watchdog_.joinable()) {
    if (!signal_stop) {
      // Natural conclusion: restarts and takeovers must play out before
      // the joins below, or a dead worker's respawn would race them.
      while (!run_concluded_.load(std::memory_order_acquire) &&
             !stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    watchdog_stop_.store(true, std::memory_order_relaxed);
    watchdog_.join();
  }
  double wall = 0;
  for (auto& w : threads_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
    wall = std::max(wall, w->wall_seconds);
  }
  if (running_) {
    wall_seconds_ = wall;
    running_ = false;
    // Conservation ledger (finite runs), taken exactly once, while the
    // caller's pool is certainly still alive: every offered packet must
    // be delivered, still-unclaimed (shed), or claimed-but-undelivered
    // (lost in a dead worker's in-flight batch).
    if (!cfg_.loop && !shards_.empty()) {
      conservation_checked_ = true;
      u64 offered = 0;
      u64 claimed = 0;
      u64 delivered = 0;
      if (cfg_.shards == 0) {
        offered = caller_pool_->size();
        claimed = caller_pool_->claimed();
        for (const auto& sh : shards_) delivered += sh->sink->packets();
      } else {
        for (const auto& sh : shards_) {
          offered += sh->pool.size();
          claimed += sh->pool.claimed();
          delivered += sh->sink->packets();
        }
      }
      offered_ = offered;
      delivered_ = delivered;
      shed_ = offered - claimed;
      lost_ = claimed - delivered;
    }
  }
  // Telemetry epilogue, after every worker joined (so totals are
  // final): the sampler takes its mandatory flush tick (sum of interval
  // deltas == end-of-run totals), and the rings get one final drain so
  // drop accounting is complete even without a sampler. Idempotent —
  // stop() may be called again.
  if (sampler_ != nullptr) {
    sampler_->stop();
    timeseries_ = sampler_->take_samples();
    trace_events_ = sampler_->take_events();
    trace_truncated_ = sampler_->truncated();
    sampler_.reset();
    final_drained_ = true;
  } else if (!final_drained_) {
    const usize keep = trace_keep();
    for (const auto& t : tel_) {
      if (keep == 0) {
        t->ring.drain(nullptr);
      } else if (trace_events_.size() < keep) {
        t->ring.drain(&trace_events_);
      } else {
        trace_truncated_ += t->ring.drain(nullptr);
      }
    }
    if (keep > 0 && trace_events_.size() > keep) {
      trace_truncated_ += trace_events_.size() - keep;
      trace_events_.resize(keep);
    }
    final_drained_ = true;
  }
  if (budget_granted_ > 0) {
    cfg_.budget->release(budget_granted_);
    budget_granted_ = 0;
  }
  return collect();
}

usize Engine::trace_keep() const {
  if (!cfg_.collect_trace) return 0;
  return cfg_.trace_keep_limit == 0 ? std::numeric_limits<usize>::max()
                                    : cfg_.trace_keep_limit;
}

EngineReport Engine::run(TrafficPool& pool) {
  if (cfg_.loop) {
    throw ConfigError("Engine: run() requires a finite pool; "
                      "loop mode uses start()/stop()");
  }
  start(pool);
  // Workers exit on pool exhaustion; join without raising the stop flag
  // (raising it would cut them off after their first batch).
  return finish(/*signal_stop=*/false);
}

WorkerReport Engine::shard_report(const Shard& s) const {
  WorkerReport r;
  r.worker = s.index;
  r.batches = s.sink->batches();
  r.packets = s.sink->packets();
  r.matched = s.sink->matched();
  r.dropped = s.sink->dropped();
  r.parse_errors = s.parser->errors();
  r.cache_hits = s.sink->cache_hits();
  r.classifier_lookups = s.classifier->lookups();
  r.memory_accesses = s.sink->memory_accesses();
  r.probe_memo_hits = s.classifier->probe_memo_hits();
  r.probe_memo_invalidations = s.classifier->probe_memo_invalidations();
  r.probe_memo_conflict_evictions =
      s.classifier->probe_memo_conflict_evictions();
  r.path_scalar_loop_batches =
      s.classifier->path_batches(core::BatchPath::kScalarLoop);
  r.path_phase2_batches =
      s.classifier->path_batches(core::BatchPath::kPhase2);
  r.path_phase2_memo_batches =
      s.classifier->path_batches(core::BatchPath::kPhase2Memo);
  for (usize p = 0; p < core::kNumBatchPaths; ++p) {
    const auto path = static_cast<core::BatchPath>(p);
    r.controller_models[p] = s.classifier->controller_model(path);
    r.controller_observations[p] = s.classifier->controller_observations(path);
  }
  r.cache_misses = s.cache == nullptr ? 0 : s.cache->stats().misses;
  r.min_version = s.classifier->min_version();
  r.max_version = s.classifier->max_version();
  r.version_monotonic = s.classifier->version_monotonic();
  if (s.index < tel_.size() && tel_[s.index] != nullptr) {
    const telemetry::WorkerTelemetry& t = *tel_[s.index];
    r.trace_events_dropped = t.ring.dropped();
    r.update_visibility_samples =
        telemetry::counter_load(t.live.update_visibility_samples);
    r.update_visibility_total_ns =
        telemetry::counter_load(t.live.update_visibility_total_ns);
    r.update_visibility_max_ns =
        telemetry::counter_load(t.live.update_visibility_max_ns);
  }
  r.latency = s.sink->latency();
  r.wall_seconds = threads_[s.owner]->wall_seconds;
  r.error = threads_[s.owner]->error;
  return r;
}

WorkerReport Engine::merge_shard_reports(
    usize worker, const std::vector<const WorkerReport*>& rows) {
  WorkerReport m;
  m.worker = worker;
  std::array<usize, core::kNumBatchPaths> fitted{};
  bool first_version = true;
  for (const WorkerReport* row : rows) {
    const WorkerReport& r = *row;
    m.batches += r.batches;
    m.packets += r.packets;
    m.matched += r.matched;
    m.dropped += r.dropped;
    m.parse_errors += r.parse_errors;
    m.cache_hits += r.cache_hits;
    m.cache_misses += r.cache_misses;
    m.classifier_lookups += r.classifier_lookups;
    m.memory_accesses += r.memory_accesses;
    m.probe_memo_hits += r.probe_memo_hits;
    m.probe_memo_invalidations += r.probe_memo_invalidations;
    m.probe_memo_conflict_evictions += r.probe_memo_conflict_evictions;
    m.path_scalar_loop_batches += r.path_scalar_loop_batches;
    m.path_phase2_batches += r.path_phase2_batches;
    m.path_phase2_memo_batches += r.path_phase2_memo_batches;
    for (usize p = 0; p < core::kNumBatchPaths; ++p) {
      m.controller_observations[p] += r.controller_observations[p];
      if (r.controller_observations[p] == 0) continue;
      m.controller_models[p].ns_per_packet +=
          r.controller_models[p].ns_per_packet;
      m.controller_models[p].ns_per_distinct_key +=
          r.controller_models[p].ns_per_distinct_key;
      ++fitted[p];
    }
    if (r.packets > 0 || r.max_version > 0 || r.min_version > 0) {
      m.min_version = first_version ? r.min_version
                                    : std::min(m.min_version, r.min_version);
      m.max_version = std::max(m.max_version, r.max_version);
      first_version = false;
    }
    m.version_monotonic = m.version_monotonic && r.version_monotonic;
    m.trace_events_dropped += r.trace_events_dropped;
    m.update_visibility_samples += r.update_visibility_samples;
    m.update_visibility_total_ns += r.update_visibility_total_ns;
    m.update_visibility_max_ns =
        std::max(m.update_visibility_max_ns, r.update_visibility_max_ns);
    m.latency.merge(r.latency);
    m.wall_seconds = std::max(m.wall_seconds, r.wall_seconds);
    if (m.error.empty()) m.error = r.error;
  }
  // Cost-model coefficients are per-shard fits, not additive: average
  // over the shards that produced timed observations.
  for (usize p = 0; p < core::kNumBatchPaths; ++p) {
    if (fitted[p] == 0) continue;
    m.controller_models[p].ns_per_packet /= static_cast<double>(fitted[p]);
    m.controller_models[p].ns_per_distinct_key /=
        static_cast<double>(fitted[p]);
  }
  return m;
}

EngineReport Engine::collect() const {
  EngineReport rep;
  rep.wall_seconds = wall_seconds_;
  // Per-worker supervisor accounting + the healed-vs-fatal error rule:
  // under the supervisor, a death the watchdog healed (restart, or a
  // takeover that saved every shard) keeps the row's error empty — the
  // run delivered its packets; the messages live in rep.error_log. A
  // permanent failure that lost shards IS fatal and surfaces.
  const auto apply_status = [&](WorkerReport& r, const WorkerThread& th) {
    r.restarts = th.restarts.load(std::memory_order_relaxed);
    r.stalls = th.stalls.load(std::memory_order_relaxed);
    r.failed_permanently =
        th.failed_permanently.load(std::memory_order_relaxed);
    r.shards_lost = th.shards_lost;
    if (r.failed_permanently && th.shards_lost > 0 && r.error.empty()) {
      r.error = th.all_errors.empty()
                    ? std::string("worker failed permanently")
                    : th.all_errors.back();
    }
  };
  std::vector<WorkerReport> shard_rows;
  shard_rows.reserve(shards_.size());
  for (const auto& sh : shards_) {
    shard_rows.push_back(shard_report(*sh));
  }
  if (cfg_.shards == 0) {
    // Legacy geometry: one shard per worker thread; the shard rows ARE
    // the worker rows and `shards` stays empty.
    rep.workers = std::move(shard_rows);
    for (auto& r : rep.workers) {
      apply_status(r, *threads_[r.worker % threads_.size()]);
    }
  } else {
    for (const auto& th : threads_) {
      std::vector<const WorkerReport*> rows;
      rows.reserve(th->shards.size());
      for (const Shard* sh : th->shards) {
        rows.push_back(&shard_rows[sh->index]);
      }
      WorkerReport m = merge_shard_reports(th->index, rows);
      if (m.error.empty()) m.error = th->error;
      m.wall_seconds = th->wall_seconds;
      apply_status(m, *th);
      rep.workers.push_back(std::move(m));
    }
    rep.shards = std::move(shard_rows);
  }
  if (cfg_.capture_verdicts) {
    rep.captured.reserve(shards_.size());
    for (const auto& sh : shards_) {
      rep.captured.push_back(sh->captured);
    }
  }
  rep.timeseries = timeseries_;
  rep.trace_events = trace_events_;
  rep.trace_events_truncated = trace_truncated_;
  // Supervisor rollup + conservation ledger + the full error log.
  rep.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  rep.stall_detections = stall_detections_.load(std::memory_order_relaxed);
  rep.shards_reassigned = shards_reassigned_.load(std::memory_order_relaxed);
  rep.conservation_checked = conservation_checked_;
  rep.offered_packets = offered_;
  rep.delivered_packets = delivered_;
  rep.shed_packets = shed_;
  rep.lost_packets = lost_;
  for (const auto& th : threads_) {
    const bool failed = th->failed_permanently.load(std::memory_order_relaxed);
    if (failed) ++rep.workers_failed;
    for (usize k = 0; k < th->all_errors.size(); ++k) {
      rep.error_log.push_back(
          {th->index, static_cast<u64>(k),
           failed && k + 1 == th->all_errors.size() && th->error.empty(),
           th->all_errors[k]});
    }
    if (!th->error.empty()) {
      // Died after the watchdog wound down (or without one): final.
      rep.error_log.push_back({th->index,
                               th->restarts.load(std::memory_order_relaxed),
                               true, th->error});
    }
  }
  return rep;
}

}  // namespace pclass::dataplane
