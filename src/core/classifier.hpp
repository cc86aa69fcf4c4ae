/// \file classifier.hpp
/// The paper's contribution: a configurable, label-based, parallel
/// single-field lookup architecture for SDN packet classification
/// (Fig. 2), with controller-driven incremental update (Fig. 4) and the
/// four-phase pipelined lookup of Fig. 3:
///
///   phase 1  split the header into 7 dimension keys
///   phase 2  per-dimension parallel lookup -> label-list pointers
///   phase 3  combine labels into the 68-bit key, hash
///   phase 4  Rule Filter access -> HPMR + action
///
/// One object models both sides of the SDN split: the *controller-side*
/// update path (label tables, structure builders — all pure software,
/// §IV.A) and the *device-side* lookup path, which touches only hw::
/// memories/registers so every cycle and access count in the evaluation
/// is measured, not estimated.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "alg/binary_search_tree.hpp"
#include "alg/label_table.hpp"
#include "alg/multibit_trie.hpp"
#include "alg/port_registers.hpp"
#include "alg/protocol_lut.hpp"
#include "core/config.hpp"
#include "core/rule_filter.hpp"
#include "hwsim/pipeline.hpp"
#include "hwsim/shared_memory.hpp"
#include "hwsim/synthesis.hpp"
#include "hwsim/update_bus.hpp"
#include "net/packet.hpp"
#include "ruleset/rule_set.hpp"

namespace pclass::core {

/// Outcome and measured cost of classifying one header.
///
/// Cycle-charging contract (what every lookup entry point guarantees):
///   cycles = 1 (header split) + max over the 7 dimension recorders
///            (phase 2 runs in parallel; the phase costs the slowest
///            engine) + the tail recorder (label merge + every
///            partial-filter check and Rule Filter probe, serial);
///   memory_accesses = the *sum* of all recorders' block-memory reads.
/// classify_batch() returns, per packet, exactly the result classify()
/// returns for that header, field for field.
struct ClassifyResult {
  /// The matched rule (HPMR under CrossProduct; under FirstLabel, the
  /// rule owning the first-label combination, when present).
  std::optional<RuleEntry> match;
  u64 cycles = 0;            ///< end-to-end latency of this lookup
  u64 memory_accesses = 0;   ///< total block-memory reads
  /// Rule Filter probes issued in phase 3 (label combinations the
  /// bounded combine did not cut).
  u64 crossproduct_probes = 0;
  /// Partial-combination filter checks issued in phase 3 (one per
  /// src_ip_hi label the bounded combine reached; not Rule Filter
  /// probes).
  u64 filter_checks = 0;
};

/// Per-block memory occupancy snapshot.
struct MemoryBlockReport {
  std::string name;
  u64 capacity_bits = 0;
  u64 used_bits = 0;
};

/// Device memory map (Table V/VI source data).
struct MemoryReport {
  std::vector<MemoryBlockReport> blocks;
  u64 total_capacity_bits = 0;
  u64 total_used_bits = 0;
  u64 register_bits = 0;
};

/// Reusable scratch of classify_batch(): the open-addressed table that
/// dedups a batch by exact 5-tuple. Callers that classify batches
/// continuously (one dataplane worker = one scratch) reuse it so the
/// steady-state batch path performs no heap allocation; the convenience
/// classify_batch(in, out) overload creates a throwaway one.
struct BatchScratch {
  /// Slot -> 1 + the batch index of the first header carrying the
  /// slot's tuple (0 = empty). A batch of n headers uses the first
  /// next_pow2(max(16, 2n)) slots; the vector grows to that and never
  /// shrinks.
  std::vector<u32> slots;
  /// Distinct tuples in the last batch (the trace event's
  /// distinct_keys).
  usize distinct = 0;
};

/// Compatibility shim for the repository benchmark, which still reports
/// the per-batch path share (`core.classifier.path_share.scalar_loop`,
/// `.phase2`, `.phase2_memo`) and `core.classifier.memo_hits_per_lookup`.
/// There is one batch path now: every non-empty batch counts under
/// kScalarLoop and the other two stay 0. The shim goes when the
/// benchmark retires those four metrics.
enum class BatchPath : u8 { kScalarLoop, kPhase2, kPhase2Memo };
inline constexpr usize kNumBatchPaths = 3;

/// The configurable classification device plus its controller shadow.
class ConfigurableClassifier {
 public:
  explicit ConfigurableClassifier(ClassifierConfig cfg = {});
  ~ConfigurableClassifier();

  ConfigurableClassifier(const ConfigurableClassifier&) = delete;
  ConfigurableClassifier& operator=(const ConfigurableClassifier&) = delete;

  // ---- controller API (update path) ----

  /// Install one rule (Fig. 4 flow). Returns the measured update cost.
  /// \throws ConfigError on duplicate id or duplicate match part;
  ///         CapacityError when any hardware structure is full.
  hw::UpdateStats add_rule(const ruleset::Rule& r);

  /// Bulk-install a rule set (single BST rebuild per dimension when the
  /// BST configuration is active).
  hw::UpdateStats add_rules(const ruleset::RuleSet& rules);

  /// Remove an installed rule.
  hw::UpdateStats remove_rule(RuleId id);

  /// OpenFlow MODIFY: replace the action (and optionally priority) of an
  /// installed rule without touching the lookup structures — a single
  /// in-place Rule Filter rewrite (3 bus cycles, like an insert).
  /// Changing the priority additionally refreshes the IP label lists it
  /// orders.
  hw::UpdateStats modify_rule(RuleId id, ruleset::Action action);

  /// Drive the IPalg_s select line (§III.A): clears the deactivating
  /// engines, re-binds the shared blocks (Fig. 5 flush) and rebuilds the
  /// newly selected engines from the label tables. Returns the cost.
  hw::UpdateStats set_ip_algorithm(IpAlgorithm alg);

  /// Phase-3 policy (software decision; free).
  void set_combine_mode(CombineMode mode) { cfg_.combine_mode = mode; }

  // ---- data-plane API (lookup path) ----

  /// Classify a parsed 5-tuple. Charges per the ClassifyResult
  /// contract: the 7 phase-2 engines record in parallel (max), the
  /// merge + Rule Filter tail records serially (sum).
  [[nodiscard]] ClassifyResult classify(const net::FiveTuple& h) const;

  /// Parse + classify raw packet bytes; nullopt result for non-IPv4.
  [[nodiscard]] ClassifyResult classify_packet(
      std::span<const u8> bytes) const;

  /// Batched lookup: classify `in[i]` into `out[i]` for the whole span.
  /// This is the entry point the dataplane engine drives per worker
  /// batch; `out.size()` must be >= `in.size()`.
  ///
  /// The batch is deduplicated by exact 5-tuple: classify() runs once
  /// per distinct tuple and every duplicate receives a copy of that
  /// result, so out[i] equals classify(in[i]) field for field.
  /// \throws ConfigError when `out` is shorter than `in`.
  ///
  /// Thread-safe against other concurrent const lookups (the update
  /// path is not — the dataplane publishes immutable snapshots instead).
  void classify_batch(std::span<const net::FiveTuple> in,
                      std::span<ClassifyResult> out) const;

  /// Same, reusing caller-owned scratch so continuous batch callers
  /// (one dataplane worker = one scratch) allocate nothing per batch.
  void classify_batch(std::span<const net::FiveTuple> in,
                      std::span<ClassifyResult> out,
                      BatchScratch& scratch) const;

  // ---- introspection ----

  [[nodiscard]] const ClassifierConfig& config() const { return cfg_; }

  [[nodiscard]] IpAlgorithm ip_algorithm() const { return cfg_.ip_algorithm; }
  [[nodiscard]] CombineMode combine_mode() const { return cfg_.combine_mode; }
  [[nodiscard]] usize rule_count() const { return installed_.size(); }
  [[nodiscard]] std::optional<ruleset::Rule> installed_rule(RuleId id) const;

  /// Snapshot extraction: every installed rule (id order), so a
  /// dataplane publisher can seed a fresh replica from a live device.
  [[nodiscard]] std::vector<ruleset::Rule> installed_rules() const;

  /// Cumulative update-bus statistics since construction.
  [[nodiscard]] const hw::UpdateStats& update_stats() const {
    return bus_.stats();
  }

  /// Fig. 3 pipeline model for the current configuration.
  [[nodiscard]] hw::Pipeline lookup_pipeline() const;

  /// Memory map with capacity and live occupancy per block.
  [[nodiscard]] MemoryReport memory_report() const;

  /// Table V-shaped resource estimate for the current device.
  [[nodiscard]] hw::SynthesisReport synthesis_report() const;

  /// Unique labels currently live in dimension \p d.
  [[nodiscard]] usize label_count(Dimension d) const;

  /// The label-list store of IP dimension \p ip_dim_index (0..3), for
  /// dedup statistics (Ablation B).
  [[nodiscard]] const alg::LabelListStore& label_store(
      usize ip_dim_index) const {
    return *lists_.at(ip_dim_index);
  }

  /// The label IP dimension \p ip_dim_index (0..3) gives \p r's
  /// segment, read as an uncounted controller peek; nullopt when no
  /// installed rule holds that segment.
  [[nodiscard]] std::optional<Label> ip_label(usize ip_dim_index,
                                              const ruleset::Rule& r) const {
    return ip_tables_.at(ip_dim_index).find(ip_segment(r, ip_dim_index));
  }

  /// The phase-3 partial-combination filter.
  [[nodiscard]] const PartialFilter& partial_filter() const {
    return *partial_filter_;
  }

  /// The bound the partial filter stores for \p r's label prefix
  /// (source port, destination port, protocol, src_ip_hi), read as an
  /// uncounted controller peek; nullopt when a field of \p r has no
  /// label or the prefix has no entry.
  [[nodiscard]] std::optional<PriorityBound> partial_filter_bound(
      const ruleset::Rule& r) const;

 private:
  struct InstalledRule {
    ruleset::Rule rule;
    Key68 key;
  };

  // The four IP dimensions in engine-array order.
  static constexpr std::array<Dimension, 4> kIpDims = {
      Dimension::kSrcIpHi, Dimension::kSrcIpLo, Dimension::kDstIpHi,
      Dimension::kDstIpLo};

  [[nodiscard]] static ruleset::SegmentPrefix ip_segment(
      const ruleset::Rule& r, usize ip_dim_index);

  /// What add_rules() defers to the end of a bulk load: new IP prefixes
  /// for the single BST rebuild (BST configuration only), every port
  /// and protocol value whose word the load creates or re-bounds (value
  /// -> created), and every partial-filter key the load touches (key ->
  /// its best priority before the load, nullopt if new), so each word
  /// is written once with its final bound.
  struct BulkStage {
    std::array<std::vector<std::pair<ruleset::SegmentPrefix, Label>>, 4>
        bst;
    std::map<ruleset::PortRange, bool> sport;
    std::map<ruleset::PortRange, bool> dport;
    std::map<ruleset::ProtoMatch, bool> proto;
    std::map<u32, std::optional<Priority>> filter;
  };

  /// Acquire all 7 labels for a rule, inserting/refreshing engine state
  /// (and port/protocol bounds) as needed. When \p bulk is non-null,
  /// the BulkStage work is staged there instead of written per rule.
  std::array<Label, kNumDimensions> acquire_labels(const ruleset::Rule& r,
                                                   hw::CommandLog& log,
                                                   BulkStage* bulk);

  /// Write what add_rules() staged.
  void flush_bulk(BulkStage& bulk, hw::CommandLog& log);

  void release_labels(const ruleset::Rule& r, hw::CommandLog& log);

  /// Best priority of any installed rule under partial-filter key
  /// \p fk (from the controller shadow); nullopt when none.
  [[nodiscard]] std::optional<Priority> prefix_best(u32 fk) const;

  /// Account an installed rule of priority \p prio under key \p fk:
  /// program a new entry or rewrite a bound that improved (staged in
  /// \p bulk when non-null).
  void filter_acquire(u32 fk, Priority prio, hw::CommandLog& log,
                      BulkStage* bulk);

  /// Undo filter_acquire(): tombstone the entry when the last rule
  /// leaves it, else rewrite a bound that moved.
  void filter_release(u32 fk, Priority prio, hw::CommandLog& log);

  /// Move partial-filter entry \p fk from best priority \p before to
  /// \p after (nullopt = no rule under the key): one hash + one write
  /// for a new entry or a moved bound, one tombstone write when the
  /// last rule left, nothing otherwise.
  void reprogram_prefix(u32 fk, std::optional<Priority> before,
                        std::optional<Priority> after, hw::CommandLog& log);

  /// Charge a command batch on the update bus; returns the batch stats.
  hw::UpdateStats apply(hw::CommandLog& log);

  /// Phase-2 lookup of one IP dimension through the active engine.
  [[nodiscard]] alg::ListRef ip_lookup(usize ip_dim_index, u16 key,
                                       hw::CycleRecorder* rec) const;

  /// The exact phase-3 combine of classify() over the seven label
  /// lists, indexed by dimension. Every list comes in ascending-bound
  /// order with its bounds in \p bounds. Walks the label combinations
  /// depth-first (port and protocol dimensions outermost), checks the
  /// partial-combination filter once a src_ip_hi label is chosen, and
  /// cuts every branch that no rule holds or whose bound is strictly
  /// worse than the best hit so far. Sets out.match,
  /// out.crossproduct_probes and out.filter_checks, and charges probes
  /// and checks to \p tail.
  void bounded_combine(const std::array<LabelVec, kNumDimensions>& lists,
                       const std::array<BoundVec, kNumDimensions>& bounds,
                       hw::CycleRecorder& tail, ClassifyResult& out) const;

  void rebuild_active_ip_engines(hw::CommandLog& log);

  /// Program rule \p r (match fingerprint \p fp) under its merged
  /// label key into the Rule Filter and the partial filter (staged in
  /// \p bulk when non-null) and record it as installed. A failed
  /// partial-filter write takes the Rule Filter entry back out.
  void install(const ruleset::Rule& r, u64 fp,
               const std::array<Label, kNumDimensions>& labels,
               hw::CommandLog& log, BulkStage* bulk);

  ClassifierConfig cfg_;

  // Controller-side label bookkeeping.
  std::array<alg::LabelTable<ruleset::SegmentPrefix>, 4> ip_tables_;
  alg::LabelTable<ruleset::PortRange> sport_table_;
  alg::LabelTable<ruleset::PortRange> dport_table_;
  alg::LabelTable<ruleset::ProtoMatch> proto_table_;
  /// Best priority per live label: orders the IP label lists and gives
  /// the bounds written into them, and is what the port/protocol bound
  /// fields were last written from.
  std::array<std::vector<Priority>, kNumDimensions> label_prio_;

  // Device-side blocks.
  std::array<std::unique_ptr<alg::LabelListStore>, 4> lists_;
  std::array<std::unique_ptr<hw::SharedMemory>, 4> shared_;
  std::array<std::unique_ptr<alg::MultiBitTrie>, 4> mbt_;
  std::array<std::unique_ptr<alg::BinarySearchTree>, 4> bst_;
  std::array<std::unique_ptr<alg::RangeVectorHash>, 4> rvh_;
  std::unique_ptr<alg::PortRegisterFile> sport_regs_;
  std::unique_ptr<alg::PortRegisterFile> dport_regs_;
  std::unique_ptr<alg::ProtocolLut> proto_lut_;
  std::unique_ptr<RuleFilter> rule_filter_;
  std::unique_ptr<PartialFilter> partial_filter_;
  /// Controller shadow of the partial filter: the priorities of the
  /// installed rules under each key, ascending, so the first is the
  /// key's best. A key with no rule has no entry.
  std::unordered_map<u32, std::vector<Priority>> prefix_prios_;

  hw::UpdateBus bus_;
  std::map<RuleId, InstalledRule> installed_;
  std::unordered_map<u64, RuleId> match_index_;  // fingerprint -> rule
};

}  // namespace pclass::core
