/// \file stats.hpp
/// Per-worker measurement for the dataplane runtime: a cheap log-scale
/// latency histogram (lookup cycles per packet) with percentile
/// extraction, and the per-worker / engine-wide report structs the
/// benches and the CLI print.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/path_controller.hpp"
#include "net/five_tuple.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/trace_ring.hpp"

namespace pclass::dataplane {

/// One packet's verdict as the ActionSink saw it, in arrival order
/// (EngineConfig::capture_verdicts). `version` is the
/// rule-program snapshot the batch was classified against, which is
/// what lets the sharded differential fuzzer check every verdict
/// against a LinearSearch oracle built at exactly that version.
struct CapturedVerdict {
  net::FiveTuple tuple{};
  bool parse_error = false;
  bool matched = false;
  RuleId rule{};
  Priority priority = 0;
  u32 action_token = 0;
  u64 version = 0;  ///< batch's snapshot version
};

/// Log-linear histogram of per-packet lookup latency (in modelled
/// device cycles): four sub-buckets per power of two (HDR-histogram
/// style, 2 mantissa bits), so percentiles resolve to within ~12.5%
/// instead of the 2x a pure log2 bucketing gives — fine enough that a
/// 25% p99 shift (e.g. the batch engine's probe memo on fw-like sets)
/// is visible in the scenario reports. Constant memory, O(1) record.
class LatencyHistogram {
 public:
  static constexpr usize kBuckets = 256;

  void record(u64 cycles) {
    ++buckets_[bucket_of(cycles)];
    ++count_;
    sum_ += cycles;
    min_ = count_ == 1 ? cycles : std::min(min_, cycles);
    max_ = std::max(max_, cycles);
  }

  void merge(const LatencyHistogram& o) {
    for (usize i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    if (o.count_ > 0) {
      min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
      max_ = std::max(max_, o.max_);
    }
    count_ += o.count_;
    sum_ += o.sum_;
  }

  [[nodiscard]] u64 count() const { return count_; }
  [[nodiscard]] u64 min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] u64 max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Value at percentile \p p (0..100), linearly interpolated within
  /// the winning bucket (the target rank's midpoint share of the bucket
  /// width), clamped to the observed min/max so a single sample reports
  /// itself exactly and no percentile escapes the data range.
  [[nodiscard]] u64 percentile(double p) const {
    if (count_ == 0) return 0;
    const double v = percentile_from(buckets_, count_, p);
    return std::clamp(static_cast<u64>(std::llround(v)), min_, max_);
  }

  // Log-linear indexing: values < 4 get their own bucket; above that,
  // the exponent selects a group of 4 sub-buckets addressed by the two
  // bits after the leading one. Public so telemetry's AtomicHistogram
  // shares the exact bucketing (interval snapshots stay mergeable with
  // end-of-run histograms).
  [[nodiscard]] static usize bucket_of(u64 v) {
    if (v < 4) return static_cast<usize>(v);
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;  // >= 2
    const u64 sub = (v >> (e - 2)) & 3;
    return std::min<usize>(4 * static_cast<usize>(e - 2) +
                               static_cast<usize>(sub) + 4,
                           kBuckets - 1);
  }

  /// Smallest value mapping to bucket \p i (inverse of bucket_of:
  /// bucket_of(bucket_floor(i)) == i for every reachable bucket).
  [[nodiscard]] static u64 bucket_floor(usize i) {
    if (i < 4) return static_cast<u64>(i);
    const unsigned e = static_cast<unsigned>((i - 4) / 4) + 2;
    const u64 sub = (i - 4) % 4;
    return (u64{4} + sub) << (e - 2);
  }

  /// Interpolated percentile over raw bucket counts (\p count samples):
  /// the target rank is placed at its midpoint share of the winning
  /// bucket's [floor, next-floor) width. Shared by instance percentiles
  /// and the StatsSampler's interval-delta percentiles; unclamped (the
  /// caller may not know min/max), monotonic in \p p.
  [[nodiscard]] static double percentile_from(
      std::span<const u64> buckets, u64 count, double p) {
    if (count == 0) return 0.0;
    const double target =
        std::clamp(p / 100.0 * static_cast<double>(count), 1.0,
                   static_cast<double>(count));
    u64 seen = 0;
    for (usize i = 0; i < buckets.size(); ++i) {
      const u64 c = buckets[i];
      if (c == 0) continue;
      if (static_cast<double>(seen + c) >= target) {
        const u64 lo = bucket_floor(i);
        const u64 hi =
            i + 1 < kBuckets ? bucket_floor(i + 1) : lo;  // overflow: floor
        // Midpoint convention: the k-th of c samples in the bucket sits
        // at (k - 0.5)/c of the width.
        const double frac = std::clamp(
            (target - static_cast<double>(seen) - 0.5) / static_cast<double>(c),
            0.0, 1.0);
        return static_cast<double>(lo) +
               frac * static_cast<double>(hi - lo);
      }
      seen += c;
    }
    return static_cast<double>(bucket_floor(kBuckets - 1));
  }

 private:
  std::array<u64, kBuckets> buckets_{};
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = 0;
  u64 max_ = 0;
};

/// One worker's end-of-run measurement.
struct WorkerReport {
  usize worker = 0;
  u64 batches = 0;
  u64 packets = 0;
  u64 matched = 0;
  u64 dropped = 0;       ///< table miss or explicit drop action
  u64 parse_errors = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  u64 classifier_lookups = 0;  ///< full 4-phase lookups (cache misses)
  u64 memory_accesses = 0;     ///< modelled block-memory reads (per-worker)
  u64 probe_memo_hits = 0;     ///< combiner probes served by the memo
  /// Times the persistent probe memo dropped its entries (initial bind
  /// plus one per snapshot swap this worker classified across).
  u64 probe_memo_invalidations = 0;
  /// Memo replacements that overwrote a live entry of another key — the
  /// conflict misses the 2-way geometry exists to reduce.
  u64 probe_memo_conflict_evictions = 0;
  /// Batches served via each phase-2 execution path (the per-worker
  /// controller's choices; forced policies count here too).
  u64 path_scalar_loop_batches = 0;
  u64 path_phase2_batches = 0;
  u64 path_phase2_memo_batches = 0;
  /// The controller's fitted per-path cost model
  /// (ns = a*packets + b*distinct_keys), indexed by core::BatchPath,
  /// plus the timed observation count behind each fit (0 under forced
  /// policies, which skip the clock — the models stay zero there).
  std::array<core::PathCostModel, core::kNumBatchPaths> controller_models{};
  std::array<u64, core::kNumBatchPaths> controller_observations{};
  u64 min_version = 0;   ///< lowest rule-program version observed
  u64 max_version = 0;   ///< highest rule-program version observed
  bool version_monotonic = true;  ///< versions never went backwards
  /// TraceRing events lost to overwrite before a drain reached them
  /// (0 when telemetry is off or the ring kept up).
  u64 trace_events_dropped = 0;
  /// Update-visibility latency (publish -> this worker observing the
  /// new version): observation count, summed ns and worst case. Zero
  /// when the program never changed mid-run (finite scenarios).
  u64 update_visibility_samples = 0;
  u64 update_visibility_total_ns = 0;
  u64 update_visibility_max_ns = 0;
  LatencyHistogram latency;       ///< per-packet lookup cycles
  double wall_seconds = 0;
  /// Non-empty if the worker died on an exception (exceptions must not
  /// escape a worker thread — that would std::terminate the process).
  /// Under the supervisor, healed workers (died but restarted, run
  /// concluded) report empty here — their death messages live in
  /// EngineReport::error_log; only a permanent failure that actually
  /// lost traffic (shards_lost > 0) is fatal enough to surface here.
  std::string error;
  // ---- supervisor accounting (zero when the supervisor is off) ----
  u64 restarts = 0;  ///< watchdog respawns of this worker
  u64 stalls = 0;    ///< heartbeat-stagnation episodes detected
  bool failed_permanently = false;  ///< dead post-retry (max_restarts spent)
  /// Undrained shards this worker took to the grave (no survivor to
  /// reassign them to — their remaining packets are shed).
  u64 shards_lost = 0;

  [[nodiscard]] double cache_hit_rate() const {
    const u64 total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double mpps() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(packets) / 1e6 /
                                     wall_seconds;
  }
};

/// Engine-wide update-visibility rollup (see WorkerReport's
/// update_visibility_* fields).
struct UpdateVisibility {
  u64 samples = 0;
  double mean_ns = 0;
  u64 max_ns = 0;
};

/// One worker death, with enough context to tell a healed incarnation
/// from a permanent failure (EngineReport::error_log — the "surface ALL
/// worker errors" view; first_error() stays the compat single-error
/// view).
struct WorkerErrorDetail {
  usize worker = 0;
  /// Restarts completed before this death (0 = first incarnation).
  u64 restarts = 0;
  /// True when this death ended the worker for good (no retry left, or
  /// the supervisor was off).
  bool permanent = false;
  std::string message;
};

/// Whole-engine rollup.
///
/// `workers` is always the authoritative, double-count-free view: its
/// per-counter sums are the engine totals whatever the shard geometry.
/// Unsharded engines put one row per worker thread there (as always).
/// Sharded engines put one *merged* row per worker thread (summing the
/// disjoint shards that thread owns) and expose the raw per-shard rows
/// in `shards`.
struct EngineReport {
  std::vector<WorkerReport> workers;
  /// Per-shard raw rows (WorkerReport::worker = shard index); empty for
  /// unsharded engines. Invariant: sum(shards) == sum(workers).
  std::vector<WorkerReport> shards;
  /// Per-shard (or per-worker when unsharded) verdict streams, arrival
  /// order; filled when EngineConfig::capture_verdicts is set.
  std::vector<std::vector<CapturedVerdict>> captured;
  double wall_seconds = 0;
  /// The StatsSampler's interval series (empty when
  /// EngineConfig::stats_interval_ms == 0). Invariant: per-counter
  /// interval deltas sum to the end-of-run totals.
  std::vector<telemetry::StatsSample> timeseries;
  /// Drained TraceRing events (EngineConfig::collect_trace).
  std::vector<telemetry::TraceEvent> trace_events;
  /// Spans drained past EngineConfig::trace_keep_limit — measured but
  /// not retained for the export (distinct from trace_events_dropped(),
  /// which is ring-overwrite loss).
  u64 trace_events_truncated = 0;
  // ---- conservation ledger (finite runs; see docs/ROBUSTNESS.md) ----
  /// True when the engine computed the ledger (finite pool; loop-mode
  /// runs have no "offered" total to conserve against).
  bool conservation_checked = false;
  u64 offered_packets = 0;    ///< packets the run was asked to deliver
  u64 delivered_packets = 0;  ///< packets that reached an ActionSink
  /// Offered but never claimed by any source (their owner died
  /// unrecoverably with no survivor to take the shard).
  u64 shed_packets = 0;
  /// Claimed off a pool but never delivered — in flight inside a worker
  /// that died (at most one batch per death).
  u64 lost_packets = 0;
  // ---- supervisor rollup ----
  u64 worker_restarts = 0;
  u64 stall_detections = 0;
  u64 shards_reassigned = 0;
  u64 workers_failed = 0;  ///< permanently failed workers (post-retry)
  /// Every worker death in order of (worker, incarnation) — healed and
  /// permanent alike. Empty when nothing died.
  std::vector<WorkerErrorDetail> error_log;

  /// The conservation invariant: every offered packet is delivered,
  /// shed, or accounted lost in flight — exactly. Vacuously true when
  /// the ledger was not computed (loop mode).
  [[nodiscard]] bool conserved() const {
    return !conservation_checked ||
           delivered_packets + shed_packets + lost_packets == offered_packets;
  }

  [[nodiscard]] u64 packets() const {
    u64 n = 0;
    for (const auto& w : workers) n += w.packets;
    return n;
  }
  [[nodiscard]] u64 matched() const {
    u64 n = 0;
    for (const auto& w : workers) n += w.matched;
    return n;
  }
  [[nodiscard]] double aggregate_mpps() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(packets()) / 1e6 /
                                     wall_seconds;
  }
  /// First worker error, or empty when every worker ran to completion.
  [[nodiscard]] std::string first_error() const {
    for (const auto& w : workers) {
      if (!w.error.empty()) return w.error;
    }
    return {};
  }
  [[nodiscard]] bool versions_monotonic() const {
    for (const auto& w : workers) {
      if (!w.version_monotonic) return false;
    }
    return true;
  }
  [[nodiscard]] LatencyHistogram merged_latency() const {
    LatencyHistogram h;
    for (const auto& w : workers) h.merge(w.latency);
    return h;
  }
  [[nodiscard]] u64 trace_events_dropped() const {
    u64 n = 0;
    for (const auto& w : workers) n += w.trace_events_dropped;
    return n;
  }
  [[nodiscard]] UpdateVisibility update_visibility() const {
    UpdateVisibility v;
    u64 total_ns = 0;
    for (const auto& w : workers) {
      v.samples += w.update_visibility_samples;
      total_ns += w.update_visibility_total_ns;
      v.max_ns = std::max(v.max_ns, w.update_visibility_max_ns);
    }
    v.mean_ns = v.samples == 0 ? 0.0
                               : static_cast<double>(total_ns) /
                                     static_cast<double>(v.samples);
    return v;
  }
};

}  // namespace pclass::dataplane
