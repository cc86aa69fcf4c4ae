/// \file sample.hpp
/// The StatsSampler's per-interval delta record, split into its own
/// header so dataplane::EngineReport can carry a time series without
/// pulling in the sampler (whose live-counter types include
/// dataplane/stats.hpp — keeping this struct dependency-free breaks
/// that cycle).
#pragma once

#include "common/types.hpp"

namespace pclass::telemetry {

/// One interval's delta record (engine-wide sums over all workers).
struct StatsSample {
  u64 t_ns = 0;         ///< end of the interval, since sampler start
  u64 interval_ns = 0;  ///< actual (measured) interval length
  u64 packets = 0;      ///< packets sunk during the interval
  u64 batches = 0;
  u64 cache_hits = 0;
  u64 classifier_lookups = 0;
  u64 memory_accesses = 0;
  double mpps = 0;  ///< instantaneous packets/interval in Mpps
  /// Interval latency percentiles (modelled lookup cycles), computed
  /// from the bucket deltas of the live histograms.
  u64 p50_cycles = 0;
  u64 p99_cycles = 0;
  /// Snapshot versions across workers at sample time (0 = none yet).
  u64 min_version = 0;
  u64 max_version = 0;
  /// Update-visibility observations landing in this interval and their
  /// mean latency (see WorkerLive::update_visibility_*).
  u64 update_visibility_samples = 0;
  double update_visibility_mean_ns = 0;
};

}  // namespace pclass::telemetry
