#include "telemetry/sampler.hpp"

#include <chrono>
#include <cmath>

namespace pclass::telemetry {

StatsSampler::StatsSampler(std::vector<WorkerTelemetry*> workers,
                           u64 interval_ms, usize keep_limit)
    : workers_(std::move(workers)),
      interval_ms_(interval_ms == 0 ? 1 : interval_ms),
      keep_limit_(keep_limit) {}

StatsSampler::~StatsSampler() { stop(); }

void StatsSampler::start() {
  {
    std::lock_guard<std::mutex> lk(data_mu_);
    t_start_ns_ = steady_now_ns();
    t_prev_ns_ = t_start_ns_;
  }
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    started_ = true;
  }
  thread_ = std::thread([this] { loop(); });
}

void StatsSampler::stop() {
  // stop_mu_ serializes concurrent stop() callers (the daemon's signal
  // path can race the engine's own teardown): exactly one caller joins
  // the thread and takes the final flush; later and concurrent callers
  // return after it completed.
  std::lock_guard<std::mutex> stop_lk(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  // stop() before start(): no thread, no t_start baseline — flushing
  // here would fabricate a row with garbage timestamps. Nothing ran, so
  // there is nothing to flush either.
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final flush: the callers stop() after the workers joined, so this
  // tick captures whatever landed after the last periodic one — the
  // step that makes sum(deltas) == end-of-run totals exact.
  tick();
}

void StatsSampler::loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stopping_) {
    cv_.wait_for(lk, std::chrono::milliseconds(interval_ms_),
                 [&] { return stopping_; });
    if (stopping_) break;
    lk.unlock();
    tick();
    lk.lock();
  }
}

u64 StatsSampler::subscribe(Subscriber fn) {
  std::lock_guard<std::mutex> lk(sub_mu_);
  const u64 token = next_sub_token_++;
  subscribers_.emplace_back(token, std::move(fn));
  return token;
}

void StatsSampler::unsubscribe(u64 token) {
  std::lock_guard<std::mutex> lk(sub_mu_);
  std::erase_if(subscribers_,
                [token](const auto& s) { return s.first == token; });
}

void StatsSampler::trace_capture_start(usize limit) {
  std::lock_guard<std::mutex> lk(data_mu_);
  capturing_ = true;
  capture_limit_ = limit;
  capture_truncated_ = 0;
  capture_.clear();
}

std::vector<TraceEvent> StatsSampler::trace_capture_stop(u64* truncated) {
  std::lock_guard<std::mutex> lk(data_mu_);
  capturing_ = false;
  if (truncated != nullptr) *truncated = capture_truncated_;
  capture_truncated_ = 0;
  return std::move(capture_);
}

void StatsSampler::tick() {
  const u64 now = steady_now_ns();
  LiveSnapshot cur{};
  for (const WorkerTelemetry* w : workers_) {
    if (w != nullptr) cur.add(w->live);
  }

  StatsSample s;
  bool active = false;
  {
    std::lock_guard<std::mutex> lk(data_mu_);
    const bool want_payload = keep_limit_ > 0 || capturing_;
    for (WorkerTelemetry* w : workers_) {
      if (w == nullptr) continue;
      if (want_payload) {
        w->ring.drain(&scratch_);
      } else {
        w->ring.drain(nullptr);  // collection off; drop accounting only
      }
    }
    if (!scratch_.empty()) {
      for (const TraceEvent& e : scratch_) {
        if (keep_limit_ > 0) {
          if (events_.size() < keep_limit_) {
            events_.push_back(e);
          } else {
            ++truncated_;
          }
        }
        if (capturing_) {
          if (capture_limit_ == 0 || capture_.size() < capture_limit_) {
            capture_.push_back(e);
          } else {
            ++capture_truncated_;
          }
        }
      }
      scratch_.clear();
    }

    s.t_ns = now - t_start_ns_;
    // Two ticks on the same steady-clock ns (a stop() flush right after
    // a periodic tick) must not divide by the zero interval below; the
    // deltas are all zero then too, so the row is dropped as idle.
    s.interval_ns = now - t_prev_ns_;
    s.packets = cur.packets - prev_.packets;
    s.batches = cur.batches - prev_.batches;
    s.cache_hits = cur.cache_hits - prev_.cache_hits;
    s.classifier_lookups = cur.classifier_lookups - prev_.classifier_lookups;
    s.memory_accesses = cur.memory_accesses - prev_.memory_accesses;
    s.mpps = s.interval_ns == 0
                 ? 0.0
                 : static_cast<double>(s.packets) * 1e3 /
                       static_cast<double>(s.interval_ns);
    std::array<u64, AtomicHistogram::kBuckets> delta_buckets;
    u64 delta_count = 0;
    for (usize i = 0; i < delta_buckets.size(); ++i) {
      delta_buckets[i] = cur.latency_buckets[i] - prev_.latency_buckets[i];
      delta_count += delta_buckets[i];
    }
    s.p50_cycles = static_cast<u64>(std::llround(
        dataplane::LatencyHistogram::percentile_from(delta_buckets,
                                                     delta_count, 50)));
    s.p99_cycles = static_cast<u64>(std::llround(
        dataplane::LatencyHistogram::percentile_from(delta_buckets,
                                                     delta_count, 99)));
    s.min_version = cur.min_version;
    s.max_version = cur.max_version;
    s.update_visibility_samples =
        cur.update_visibility_samples - prev_.update_visibility_samples;
    const u64 vis_ns =
        cur.update_visibility_total_ns - prev_.update_visibility_total_ns;
    s.update_visibility_mean_ns =
        s.update_visibility_samples == 0
            ? 0.0
            : static_cast<double>(vis_ns) /
                  static_cast<double>(s.update_visibility_samples);

    // Idle ticks produce no row: an all-zero delta adds nothing to the
    // sum invariant. Any non-zero delta keeps the row, since prev_
    // advances either way: a worker stores packets before
    // memory_accesses, so a tick between the two stores leaves the
    // next row with only a memory_accesses delta.
    active = s.packets != 0 || s.batches != 0 || s.cache_hits != 0 ||
             s.classifier_lookups != 0 ||
             s.memory_accesses != 0 || delta_count != 0 ||
             s.update_visibility_samples != 0;
    if (active) {
      samples_.push_back(s);
    }
    prev_ = cur;
    t_prev_ns_ = now;
  }

  if (active) {
    // Push outside data_mu_ (a subscriber may call samples_snapshot()),
    // but under sub_mu_ so unsubscribe() can block until in-flight
    // callbacks return.
    std::lock_guard<std::mutex> lk(sub_mu_);
    for (const auto& [token, fn] : subscribers_) {
      fn(s);
    }
  }
}

}  // namespace pclass::telemetry
