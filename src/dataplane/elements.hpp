/// \file elements.hpp
/// The standard element set of the dataplane pipeline:
///
///   PacketSource -> Parser -> FlowCache -> Classifier -> ActionSink
///
/// PacketSource pulls bursts from a shared TrafficPool (lock-free atomic
/// cursor, so N workers partition one input stream without contention).
/// Parser turns raw bytes into 5-tuples (phase 1 of Fig. 3 plus the
/// pre-classifier drop path). FlowCache serves repeat flows from a
/// per-worker exact-match table (the paper's first-packet-of-a-flow
/// premise). Classifier acquires the current RuleProgram snapshot once
/// per batch and runs the full 4-phase lookup for cache misses.
/// ActionSink applies verdict accounting and latency measurement.
#pragma once

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <vector>

#include "core/flow_cache.hpp"
#include "dataplane/element.hpp"
#include "dataplane/rule_program.hpp"
#include "dataplane/stats.hpp"
#include "net/packet.hpp"
#include "net/trace.hpp"
#include "telemetry/live_stats.hpp"

namespace pclass::dataplane {

/// A shared, immutable-after-setup pool of input traffic with a
/// lock-free claim cursor. Workers grab disjoint spans of it; in loop
/// mode the cursor wraps, modelling an endless line-rate feed.
class TrafficPool {
 public:
  TrafficPool() = default;
  // Movable for factory returns (the atomic cursor restarts at the
  // moved-from position; pools are only moved during setup).
  TrafficPool(TrafficPool&& o) noexcept
      : packets_(std::move(o.packets_)),
        tuples_(std::move(o.tuples_)),
        cursor_(o.cursor_.load(std::memory_order_relaxed)) {}
  TrafficPool& operator=(TrafficPool&& o) noexcept {
    packets_ = std::move(o.packets_);
    tuples_ = std::move(o.tuples_);
    cursor_.store(o.cursor_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }

  /// Pre-parsed header entry (trace-driven workloads).
  /// \throws ConfigError if the pool already holds raw packets — a pool
  ///         serves one entry kind; mixing would silently drop traffic.
  void add(const net::FiveTuple& t) {
    if (!packets_.empty()) {
      throw ConfigError("TrafficPool: cannot mix tuples into a packet pool");
    }
    tuples_.push_back(t);
  }
  /// Raw packet entry (wire-format workloads).
  /// \throws ConfigError if the pool already holds pre-parsed tuples.
  void add(net::Packet p) {
    if (!tuples_.empty()) {
      throw ConfigError("TrafficPool: cannot mix packets into a tuple pool");
    }
    packets_.push_back(std::move(p));
  }

  /// Build a pool from a trace; \p materialize_packets synthesizes real
  /// IPv4 bytes for each header so the Parser element has work to do.
  [[nodiscard]] static TrafficPool from_trace(const net::Trace& trace,
                                              bool materialize_packets);

  [[nodiscard]] usize size() const {
    return packets_.empty() ? tuples_.size() : packets_.size();
  }

  /// Claim up to the batch's remaining capacity. Returns the number of
  /// entries added; 0 means the pool is exhausted (finite mode only —
  /// with \p loop the cursor wraps and this never returns 0).
  usize fill(net::PacketBatch& batch, bool loop);

  /// Rewind the claim cursor (e.g. between bench phases).
  void reset() { cursor_.store(0, std::memory_order_relaxed); }

  /// Entries claimed off a finite pool so far. The raw cursor
  /// overshoots the pool size (fill() claims a whole batch's worth and
  /// discovers exhaustion after), so clamp — the conservation ledger's
  /// "claimed" side (shed = size() - claimed()). Meaningless with loop.
  [[nodiscard]] u64 claimed() const {
    return std::min<u64>(cursor_.load(std::memory_order_relaxed), size());
  }

  /// Entry views for the flow-steering split (one of the two is always
  /// empty — a pool serves a single entry kind).
  [[nodiscard]] const std::vector<net::FiveTuple>& tuples() const {
    return tuples_;
  }
  [[nodiscard]] const std::vector<net::Packet>& packets() const {
    return packets_;
  }

 private:
  std::vector<net::Packet> packets_;
  std::vector<net::FiveTuple> tuples_;
  std::atomic<u64> cursor_{0};
};

/// Head element: refills the batch from the pool and forwards it.
class PacketSource : public Element {
 public:
  PacketSource(TrafficPool* pool, bool loop)
      : Element("source"), pool_(pool), loop_(loop) {}

  void push_batch(net::PacketBatch& batch) override;

  /// True once a finite pool ran dry (the worker's termination signal).
  [[nodiscard]] bool exhausted() const { return exhausted_; }
  [[nodiscard]] u64 batches() const { return batches_; }

 private:
  TrafficPool* pool_;
  bool loop_;
  bool exhausted_ = false;
  u64 batches_ = 0;
};

/// Phase 1: split raw bytes into the 5-tuple; non-IPv4 input takes the
/// drop path (resolved, unmatched, parse_error).
class Parser : public Element {
 public:
  explicit Parser(telemetry::WorkerTelemetry* tel = nullptr)
      : Element("parser"), tel_(tel) {}

  void push_batch(net::PacketBatch& batch) override;

  [[nodiscard]] u64 parsed() const { return parsed_; }
  [[nodiscard]] u64 errors() const { return errors_; }

 private:
  telemetry::WorkerTelemetry* tel_;
  u64 parsed_ = 0;
  u64 errors_ = 0;
};

/// Per-worker exact-match fast path. The cache is flushed whenever the
/// published rule-program version moves (the conservative invalidation
/// the seed's SwitchDevice uses); the one-batch window during which a
/// worker may still serve a verdict cached from the previous version is
/// the usual update-propagation delay of a distributed dataplane.
class FlowCacheElement : public Element {
 public:
  FlowCacheElement(const RuleProgramPublisher* programs, u32 depth,
                   const std::string& name = "flow_cache",
                   telemetry::WorkerTelemetry* tel = nullptr)
      : Element(name),
        programs_(programs),
        cache_(name, depth == 0 ? 1 : depth),
        seen_version_(programs->version()),
        tel_(tel) {}

  void push_batch(net::PacketBatch& batch) override;

  /// Classifier back-fill: install the verdict of a full lookup made
  /// against snapshot \p version. If the classifier raced ahead of the
  /// version this element saw at batch start, the older entries are
  /// flushed once here — so fresh verdicts are never discarded by the
  /// next batch's version check.
  void fill_verdict(const net::FiveTuple& t,
                    const std::optional<core::RuleEntry>& verdict,
                    u64 version) {
    if (version != seen_version_) {
      cache_.invalidate_all();
      seen_version_ = version;
    }
    cache_.fill(t, verdict);
  }

  [[nodiscard]] const core::FlowCacheStats& stats() const {
    return cache_.stats();
  }

 private:
  const RuleProgramPublisher* programs_;
  core::FlowCache cache_;
  u64 seen_version_ = 0;
  telemetry::WorkerTelemetry* tel_;
};

/// Phases 2-4: acquire the current RuleProgram (one atomic load per
/// batch), feed every unresolved packet through the classifier's batch
/// entry point in one call (which classifies each distinct 5-tuple once;
/// the element owns the reusable BatchScratch, so steady-state batches
/// allocate nothing), and stamp the batch with the snapshot version.
class ClassifierElement : public Element {
 public:
  explicit ClassifierElement(const RuleProgramPublisher* programs,
                             FlowCacheElement* cache = nullptr,
                             telemetry::WorkerTelemetry* tel = nullptr)
      : Element("classifier"), programs_(programs), cache_(cache),
        tel_(tel) {}

  void push_batch(net::PacketBatch& batch) override;

  /// Headers handed to the classifier (the flow-cache misses), counting
  /// duplicates within a batch.
  [[nodiscard]] u64 lookups() const { return lookups_; }
  /// Benchmark shim (see core::BatchPath): always 0.
  [[nodiscard]] u64 probe_memo_hits() const { return 0; }
  /// Benchmark shim (see core::BatchPath): every non-empty batch counts
  /// under kScalarLoop.
  [[nodiscard]] u64 path_batches(core::BatchPath p) const {
    return p == core::BatchPath::kScalarLoop ? batches_ : 0;
  }
  /// Lowest/highest snapshot version observed; both 0 when the worker
  /// never processed a batch (the sentinel must not leak into reports).
  [[nodiscard]] u64 min_version() const {
    return seen_any_ ? min_version_ : 0;
  }
  [[nodiscard]] u64 max_version() const { return max_version_; }
  [[nodiscard]] bool version_monotonic() const { return monotonic_; }

 private:
  /// Mirror the running totals into the live counter block, record the
  /// update-visibility sample when the observed version advanced, and
  /// push this batch's span event into the trace ring. Only called when
  /// telemetry is attached.
  void publish_telemetry(const net::PacketBatch& batch, u64 version,
                         u64 t_start_ns, bool version_advanced);

  const RuleProgramPublisher* programs_;
  FlowCacheElement* cache_;
  telemetry::WorkerTelemetry* tel_;
  std::vector<net::FiveTuple> keys_;       // scratch, reused per batch
  std::vector<core::ClassifyResult> res_;  // scratch, reused per batch
  std::vector<usize> slots_;               // scratch, reused per batch
  core::BatchScratch scratch_;             // dedup table, reused per batch
  u64 lookups_ = 0;
  u64 batches_ = 0;  // non-empty batches handed to the classifier
  u64 min_version_ = std::numeric_limits<u64>::max();
  u64 max_version_ = 0;
  bool monotonic_ = true;
  bool seen_any_ = false;
};

/// Tail element: verdict accounting and latency measurement. With a
/// \p capture vector attached it also records every packet's verdict in
/// arrival order (the sharded differential fuzzer's input) — finite runs only; the engine rejects capture in
/// loop mode.
class ActionSink : public Element {
 public:
  explicit ActionSink(telemetry::WorkerTelemetry* tel = nullptr,
                      std::vector<CapturedVerdict>* capture = nullptr)
      : Element("sink"), tel_(tel), capture_(capture) {}

  void push_batch(net::PacketBatch& batch) override;

  [[nodiscard]] u64 packets() const { return packets_; }
  [[nodiscard]] u64 matched() const { return matched_; }
  [[nodiscard]] u64 dropped() const { return dropped_; }
  [[nodiscard]] u64 forwarded() const { return forwarded_; }
  [[nodiscard]] u64 cache_hits() const { return cache_hits_; }
  [[nodiscard]] u64 batches() const { return batches_; }
  /// Modelled block-memory reads this worker's lookups performed,
  /// accumulated from per-packet CycleRecorder charges (the per-worker
  /// replacement for the old shared hw::Memory read counters).
  [[nodiscard]] u64 memory_accesses() const { return memory_accesses_; }
  [[nodiscard]] const LatencyHistogram& latency() const { return latency_; }

 private:
  telemetry::WorkerTelemetry* tel_;
  std::vector<CapturedVerdict>* capture_;
  u64 packets_ = 0;
  u64 matched_ = 0;
  u64 dropped_ = 0;
  u64 forwarded_ = 0;
  u64 cache_hits_ = 0;
  u64 batches_ = 0;
  u64 memory_accesses_ = 0;
  LatencyHistogram latency_;
};

}  // namespace pclass::dataplane
