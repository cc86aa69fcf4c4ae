#include "dataplane/elements.hpp"

#include "sdn/flow_mod.hpp"

namespace pclass::dataplane {

// ---- TrafficPool ----------------------------------------------------------

TrafficPool TrafficPool::from_trace(const net::Trace& trace,
                                    bool materialize_packets) {
  TrafficPool pool;
  for (const auto& e : trace) {
    if (materialize_packets) {
      pool.add(net::make_packet(e.header));
    } else {
      pool.add(e.header);
    }
  }
  return pool;
}

usize TrafficPool::fill(net::PacketBatch& batch, bool loop) {
  const usize total = size();
  if (total == 0 || batch.full()) return 0;
  const usize want = batch.capacity() - batch.size();
  const u64 start = cursor_.fetch_add(want, std::memory_order_relaxed);
  usize added = 0;
  for (usize k = 0; k < want; ++k) {
    u64 idx = start + k;
    if (!loop && idx >= total) break;
    idx %= total;
    if (packets_.empty()) {
      batch.push(tuples_[idx]);
    } else {
      batch.push(&packets_[idx]);
    }
    ++added;
  }
  return added;
}

// ---- PacketSource ---------------------------------------------------------

void PacketSource::push_batch(net::PacketBatch& batch) {
  batch.clear();
  const usize n = pool_->fill(batch, loop_);
  if (n == 0) {
    // Finite pool drained (or empty pool in loop mode): end of input.
    exhausted_ = true;
    return;
  }
  ++batches_;
  forward(batch);
}

// ---- Parser ---------------------------------------------------------------

void Parser::push_batch(net::PacketBatch& batch) {
  for (usize i = 0; i < batch.size(); ++i) {
    net::PacketMeta& m = batch.meta(i);
    if (m.tuple) continue;  // pre-parsed entry
    const net::Packet* p = batch.packet(i);
    const std::optional<net::FiveTuple> t =
        p == nullptr ? std::nullopt
                     : net::parse_five_tuple(p->bytes);
    if (t) {
      m.tuple = t;
      ++parsed_;
    } else {
      // Pre-classifier drop path: one cycle in the parser stage,
      // mirroring classify_packet()'s non-IPv4 handling.
      m.parse_error = true;
      m.resolved = true;
      m.lookup_cycles += 1;
      ++errors_;
    }
  }
  if (tel_ != nullptr) {
    telemetry::counter_store(tel_->live.parse_errors, errors_);
  }
  forward(batch);
}

// ---- FlowCacheElement -----------------------------------------------------

void FlowCacheElement::push_batch(net::PacketBatch& batch) {
  const u64 v = programs_->version();
  if (v != seen_version_) {
    cache_.invalidate_all();
    seen_version_ = v;
  }
  for (usize i = 0; i < batch.size(); ++i) {
    net::PacketMeta& m = batch.meta(i);
    if (m.resolved || !m.tuple) continue;
    hw::CycleRecorder rec;
    const auto cached = cache_.lookup(*m.tuple, &rec);
    m.lookup_cycles += rec.cycles();
    if (!cached) continue;  // miss: the classifier resolves it
    m.resolved = true;
    m.from_cache = true;
    if (*cached) {
      const core::RuleEntry& e = **cached;
      m.matched = true;
      m.rule = e.rule;
      m.priority = e.priority;
      m.action_token = e.action;
    }
  }
  if (tel_ != nullptr) {
    telemetry::counter_store(tel_->live.cache_hits, cache_.stats().hits);
    telemetry::counter_store(tel_->live.cache_misses, cache_.stats().misses);
  }
  forward(batch);
}

// ---- ClassifierElement ----------------------------------------------------

void ClassifierElement::push_batch(net::PacketBatch& batch) {
  // Clock reads only when telemetry is attached: the off configuration
  // (the overhead-gate baseline) pays nothing but this branch.
  const u64 t_start = tel_ != nullptr ? telemetry::steady_now_ns() : 0;
  const std::shared_ptr<const RuleProgram> snap = programs_->acquire();
  const u64 v = snap->version();
  batch.rule_version = v;
  const bool version_advanced = seen_any_ && v > max_version_;
  if (seen_any_ && v < max_version_) {
    monotonic_ = false;
  }
  seen_any_ = true;
  min_version_ = std::min(min_version_, v);
  max_version_ = std::max(max_version_, v);

  keys_.clear();
  slots_.clear();
  for (usize i = 0; i < batch.size(); ++i) {
    const net::PacketMeta& m = batch.meta(i);
    if (!m.resolved && m.tuple) {
      slots_.push_back(i);
      keys_.push_back(*m.tuple);
    }
  }
  res_.assign(keys_.size(), core::ClassifyResult{});
  snap->classifier().classify_batch(keys_, res_, scratch_);
  lookups_ += keys_.size();

  for (usize k = 0; k < slots_.size(); ++k) {
    net::PacketMeta& m = batch.meta(slots_[k]);
    const core::ClassifyResult& r = res_[k];
    memo_hits_ += r.memo_hits;
    m.resolved = true;
    m.lookup_cycles += r.cycles;
    m.memory_accesses += r.memory_accesses;
    if (r.match) {
      m.matched = true;
      m.rule = r.match->rule;
      m.priority = r.match->priority;
      m.action_token = r.match->action;
    }
    if (cache_ != nullptr) {
      cache_->fill_verdict(keys_[k], r.match, v);
    }
  }
  if (tel_ != nullptr) {
    publish_telemetry(batch, v, t_start, version_advanced);
  }
  forward(batch);
}

void ClassifierElement::publish_telemetry(const net::PacketBatch& batch,
                                          u64 version, u64 t_start_ns,
                                          bool version_advanced) {
  telemetry::WorkerLive& live = tel_->live;
  const u64 t_end = telemetry::steady_now_ns();

  // Update visibility: the first batch after the published version
  // moved past everything this worker had seen. The publisher stamped
  // the version just before its swap; observe - publish is the
  // end-to-end latency of the update becoming effective here. t_start
  // was read before acquire(), so clamp the (rare) case of the clock
  // read racing the publish.
  if (version_advanced) {
    if (const std::optional<u64> t_pub =
            programs_->publish_clock().lookup(version)) {
      const u64 lat = t_start_ns > *t_pub ? t_start_ns - *t_pub : 0;
      telemetry::counter_add(live.update_visibility_samples, 1);
      telemetry::counter_add(live.update_visibility_total_ns, lat);
      if (lat > telemetry::counter_load(live.update_visibility_max_ns)) {
        telemetry::counter_store(live.update_visibility_max_ns, lat);
      }
    }
  }

  // Mirror the running totals (totals, not deltas: the sampler's
  // interval differences then sum exactly to the end-of-run report).
  telemetry::counter_store(live.classifier_lookups, lookups_);
  telemetry::counter_store(live.probe_memo_hits, memo_hits_);
  telemetry::counter_store(live.probe_memo_invalidations,
                           scratch_.memo_invalidations);
  const u64 conflicts = scratch_.memo.conflict_evictions();
  telemetry::counter_store(live.probe_memo_conflict_evictions, conflicts);
  telemetry::counter_store(
      live.path_scalar_loop_batches,
      scratch_.controller.batches(core::BatchPath::kScalarLoop));
  telemetry::counter_store(
      live.path_phase2_batches,
      scratch_.controller.batches(core::BatchPath::kPhase2));
  telemetry::counter_store(
      live.path_phase2_memo_batches,
      scratch_.controller.batches(core::BatchPath::kPhase2Memo));
  telemetry::counter_store(live.snapshot_version, version);

  // One span event per batch into the SPSC ring.
  telemetry::TraceEvent ev;
  ev.t_start_ns = t_start_ns;
  ev.duration_ns = t_end > t_start_ns ? t_end - t_start_ns : 0;
  ev.worker = tel_->worker;
  ev.packets = static_cast<u32>(batch.size());
  ev.lookups = static_cast<u32>(keys_.size());
  ev.distinct_keys = static_cast<u32>(scratch_.last_batch_distinct);
  ev.path = scratch_.last_batch_path;
  ev.memo_hits = static_cast<u32>(memo_hits_ - last_memo_hits_);
  ev.memo_conflicts = static_cast<u32>(conflicts - last_memo_conflicts_);
  ev.snapshot_version = version;
  tel_->ring.push(ev);
  last_memo_hits_ = memo_hits_;
  last_memo_conflicts_ = conflicts;
}

// ---- ActionSink -----------------------------------------------------------

void ActionSink::push_batch(net::PacketBatch& batch) {
  ++batches_;
  for (usize i = 0; i < batch.size(); ++i) {
    const net::PacketMeta& m = batch.meta(i);
    ++packets_;
    latency_.record(m.lookup_cycles);
    if (tel_ != nullptr) tel_->live.latency.record(m.lookup_cycles);
    memory_accesses_ += m.memory_accesses;
    if (capture_ != nullptr) {
      CapturedVerdict cv;
      if (m.tuple) cv.tuple = *m.tuple;
      cv.parse_error = m.parse_error;
      cv.matched = m.matched;
      cv.rule = m.rule;
      cv.priority = m.priority;
      cv.action_token = m.action_token;
      cv.version = batch.rule_version;
      capture_->push_back(cv);
    }
    if (m.from_cache) ++cache_hits_;
    if (!m.matched) {
      ++dropped_;  // parse error or table miss: default drop
      continue;
    }
    ++matched_;
    const sdn::ActionSpec a = sdn::ActionSpec::decode(m.action_token);
    if (a.kind == sdn::ActionSpec::Kind::kDrop) {
      ++dropped_;
    } else {
      ++forwarded_;
    }
  }
  if (tel_ != nullptr) {
    telemetry::WorkerLive& live = tel_->live;
    telemetry::counter_store(live.packets, packets_);
    telemetry::counter_store(live.batches, batches_);
    telemetry::counter_store(live.matched, matched_);
    telemetry::counter_store(live.dropped, dropped_);
    telemetry::counter_store(live.memory_accesses, memory_accesses_);
  }
  forward(batch);
}

}  // namespace pclass::dataplane
