/// \file live_stats.hpp
/// Per-worker live counters: the mid-run-readable mirror of the
/// end-of-run WorkerReport fields.
///
/// Ownership/ordering model: every counter is a single-writer relaxed
/// atomic — the owning worker publishes its running totals once per
/// batch with `load(relaxed) + store(relaxed)` (which compiles to a
/// plain add, no lock-prefixed RMW), and the StatsSampler reads them
/// relaxed from its own thread. Because the worker publishes *totals*
/// (not deltas), the sampler's interval deltas always sum exactly to
/// the end-of-run totals — the invariant the telemetry tests and the CI
/// gate assert. Each WorkerTelemetry is cache-line aligned so two
/// workers never share a line.
#pragma once

#include <array>
#include <atomic>

#include "dataplane/stats.hpp"
#include "telemetry/trace_ring.hpp"

namespace pclass::telemetry {

/// Relaxed read/modify helpers for the single-writer counters.
[[nodiscard]] inline u64 counter_load(const std::atomic<u64>& a) {
  return a.load(std::memory_order_relaxed);
}
inline void counter_store(std::atomic<u64>& a, u64 v) {
  a.store(v, std::memory_order_relaxed);
}
inline void counter_add(std::atomic<u64>& a, u64 d) {
  a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

/// Mid-run-readable latency histogram: same bucketing as the
/// end-of-run dataplane::LatencyHistogram, but each bucket is a
/// single-writer relaxed atomic so the sampler can difference interval
/// snapshots for live p50/p99.
class AtomicHistogram {
 public:
  static constexpr usize kBuckets = dataplane::LatencyHistogram::kBuckets;

  void record(u64 v) {
    counter_add(buckets_[dataplane::LatencyHistogram::bucket_of(v)], 1);
  }

  [[nodiscard]] std::array<u64, kBuckets> snapshot() const {
    std::array<u64, kBuckets> out;
    for (usize i = 0; i < kBuckets; ++i) out[i] = counter_load(buckets_[i]);
    return out;
  }

 private:
  std::array<std::atomic<u64>, kBuckets> buckets_{};
};

/// One worker's live counter block. Fields mirror WorkerReport; all are
/// running totals published by the worker's pipeline elements.
struct WorkerLive {
  std::atomic<u64> packets{0};
  std::atomic<u64> batches{0};
  std::atomic<u64> matched{0};
  std::atomic<u64> dropped{0};
  std::atomic<u64> parse_errors{0};
  std::atomic<u64> cache_hits{0};
  std::atomic<u64> cache_misses{0};
  std::atomic<u64> classifier_lookups{0};
  std::atomic<u64> memory_accesses{0};
  /// Latest rule-program version this worker classified against
  /// (0 until the first batch).
  std::atomic<u64> snapshot_version{0};
  /// Update-visibility latency: each time the worker observes a higher
  /// published version than before, it charges `observe_time -
  /// publish_time(version)` here (see PublishClock). samples/total/max
  /// make both a mean and a worst case recoverable.
  std::atomic<u64> update_visibility_samples{0};
  std::atomic<u64> update_visibility_total_ns{0};
  std::atomic<u64> update_visibility_max_ns{0};
  AtomicHistogram latency;
};

/// Coherent-enough copy of one worker's WorkerLive (or a sum over
/// workers), taken with relaxed loads. Used by the sampler for interval
/// differencing.
struct LiveSnapshot {
  u64 packets = 0;
  u64 batches = 0;
  u64 cache_hits = 0;
  u64 classifier_lookups = 0;
  u64 memory_accesses = 0;
  u64 update_visibility_samples = 0;
  u64 update_visibility_total_ns = 0;
  u64 min_version = 0;  ///< lowest nonzero snapshot_version (0 = none)
  u64 max_version = 0;
  std::array<u64, AtomicHistogram::kBuckets> latency_buckets{};

  /// Accumulate one worker's live block into this (sum) snapshot.
  void add(const WorkerLive& w) {
    packets += counter_load(w.packets);
    batches += counter_load(w.batches);
    cache_hits += counter_load(w.cache_hits);
    classifier_lookups += counter_load(w.classifier_lookups);
    memory_accesses += counter_load(w.memory_accesses);
    update_visibility_samples += counter_load(w.update_visibility_samples);
    update_visibility_total_ns += counter_load(w.update_visibility_total_ns);
    const u64 v = counter_load(w.snapshot_version);
    if (v != 0) {
      min_version = min_version == 0 ? v : std::min(min_version, v);
      max_version = std::max(max_version, v);
    }
    const auto b = w.latency.snapshot();
    for (usize i = 0; i < b.size(); ++i) latency_buckets[i] += b[i];
  }
};

/// Everything telemetry-related one worker owns: its live counter block
/// and its trace ring. Cache-line aligned; allocated per worker by the
/// Engine, handed to the pipeline elements as a raw pointer (nullptr =
/// telemetry off, the overhead-gate baseline).
struct alignas(64) WorkerTelemetry {
  explicit WorkerTelemetry(u32 worker_id,
                           usize ring_capacity = TraceRing::kDefaultCapacity)
      : worker(worker_id), ring(ring_capacity) {}

  u32 worker;
  WorkerLive live;
  TraceRing ring;
};

}  // namespace pclass::telemetry
