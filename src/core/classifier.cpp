#include "core/classifier.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"

namespace pclass::core {

namespace {

hw::SharedRole role_of(IpAlgorithm a) {
  // Only the two paper engines time-share the Fig. 5 block; the RVH
  // owns its table, so this is never called with kRvh.
  return a == IpAlgorithm::kMbt ? hw::SharedRole::kMbtLevel2
                                : hw::SharedRole::kBstNodes;
}

u64 ipalg_signal(IpAlgorithm a) {
  switch (a) {
    case IpAlgorithm::kMbt: return 0;
    case IpAlgorithm::kBst: return 1;
    case IpAlgorithm::kRvh: return 2;
  }
  return 0;
}

constexpr unsigned kSharedWordBits = 33;  // max(MBT entry 29, BST node 33)

constexpr usize kSport = index_of(Dimension::kSrcPort);
constexpr usize kDport = index_of(Dimension::kDstPort);
constexpr usize kProto = index_of(Dimension::kProtocol);
constexpr usize kSrcIpHi = index_of(Dimension::kSrcIpHi);
/// The dimensions whose labels carry a device-resident priority bound.
constexpr std::array<usize, 3> kBoundedDims = {kSport, kDport, kProto};

/// Salt separating the partial filter's hash seed from the Rule
/// Filter's.
constexpr u64 kPartialFilterSalt = 0x5041525446494C54ULL;

/// Process-unique device ids (start at 1; 0 is ProbeMemo's "unbound").
u64 next_device_id() {
  static std::atomic<u64> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

ConfigurableClassifier::ConfigurableClassifier(ClassifierConfig cfg)
    : cfg_(cfg),
      device_id_(next_device_id()),
      ip_tables_{alg::LabelTable<ruleset::SegmentPrefix>(Dimension::kSrcIpHi),
                 alg::LabelTable<ruleset::SegmentPrefix>(Dimension::kSrcIpLo),
                 alg::LabelTable<ruleset::SegmentPrefix>(Dimension::kDstIpHi),
                 alg::LabelTable<ruleset::SegmentPrefix>(
                     Dimension::kDstIpLo)},
      sport_table_(Dimension::kSrcPort),
      dport_table_(Dimension::kDstPort),
      proto_table_(Dimension::kProtocol) {
  for (Dimension d : kAllDimensions) {
    label_prio_[index_of(d)].assign(usize{1} << label_bits(d), kNoPriority);
  }

  const u32 mbt_l2_depth =
      cfg_.mbt.level_capacity.size() > 1 && cfg_.mbt.strides.size() > 1
          ? cfg_.mbt.level_capacity[1] * (u32{1} << cfg_.mbt.strides[1])
          : 0;
  const u32 shared_depth = std::max(mbt_l2_depth, cfg_.bst.max_nodes);

  for (usize i = 0; i < 4; ++i) {
    const Dimension d = kIpDims[i];
    const std::string name = std::string("ip.") + to_string(d);
    lists_[i] = std::make_unique<alg::LabelListStore>(
        name + ".labels", cfg_.label_store_depth, kIpLabelBits);

    auto prio_cb = [this, idx = index_of(d)](Label l) {
      return label_prio_[idx][l.value];
    };

    alg::MbtConfig mc = cfg_.mbt;
    alg::BstConfig bc = cfg_.bst;
    hw::Memory* shared_block = nullptr;
    if (cfg_.share_ip_memory) {
      shared_[i] = std::make_unique<hw::SharedMemory>(
          name + ".shared", shared_depth, kSharedWordBits);
      shared_block = &shared_[i]->block();
      mc.word_bits_override = kSharedWordBits;
      bc.word_bits_override = kSharedWordBits;
    }
    mbt_[i] = std::make_unique<alg::MultiBitTrie>(
        name + ".mbt", mc, *lists_[i], prio_cb, shared_block,
        /*shared_level_index=*/1);
    bst_[i] = std::make_unique<alg::BinarySearchTree>(name, bc, *lists_[i],
                                                      prio_cb, shared_block);
    rvh_[i] = std::make_unique<alg::RangeVectorHash>(name, cfg_.rvh,
                                                     *lists_[i], prio_cb);
    if (cfg_.share_ip_memory && cfg_.ip_algorithm != IpAlgorithm::kRvh) {
      shared_[i]->bind(role_of(cfg_.ip_algorithm));
    }
  }

  sport_regs_ = std::make_unique<alg::PortRegisterFile>("port.src",
                                                        cfg_.ports);
  dport_regs_ = std::make_unique<alg::PortRegisterFile>("port.dst",
                                                        cfg_.ports);
  proto_lut_ = std::make_unique<alg::ProtocolLut>("proto");
  rule_filter_ = std::make_unique<RuleFilter>(
      "rule_filter", cfg_.rule_filter_depth, cfg_.rule_filter_max_probes,
      cfg_.hash_seed);
  partial_filter_ = std::make_unique<PartialFilter>(
      "partial_filter", cfg_.rule_filter_depth, cfg_.rule_filter_max_probes,
      mix64(cfg_.hash_seed ^ kPartialFilterSalt));
}

ConfigurableClassifier::~ConfigurableClassifier() = default;

ruleset::SegmentPrefix ConfigurableClassifier::ip_segment(
    const ruleset::Rule& r, usize ip_dim_index) {
  switch (ip_dim_index) {
    case 0: return r.src_ip.hi_segment();
    case 1: return r.src_ip.lo_segment();
    case 2: return r.dst_ip.hi_segment();
    case 3: return r.dst_ip.lo_segment();
    default: throw InternalError("bad ip dimension index");
  }
}

hw::UpdateStats ConfigurableClassifier::apply(hw::CommandLog& log) {
  // Every update-path mutation funnels through here, so bumping the
  // epoch exactly here is what makes a persistent ProbeMemo safe: the
  // next bind() sees a new epoch and drops every cached verdict.
  ++device_epoch_;
  hw::UpdateBus batch;
  for (const hw::UpdateCommand& cmd : log.take()) {
    bus_.charge(cmd);
    batch.charge(cmd);
  }
  return batch.stats();
}

std::array<Label, kNumDimensions> ConfigurableClassifier::acquire_labels(
    const ruleset::Rule& r, hw::CommandLog& log, BulkStage* bulk) {
  std::array<Label, kNumDimensions> labels{};

  for (usize i = 0; i < 4; ++i) {
    const Dimension d = kIpDims[i];
    const ruleset::SegmentPrefix v = ip_segment(r, i);
    const alg::AcquireResult acq = ip_tables_[i].acquire(v, r.priority);
    labels[index_of(d)] = acq.label;
    const Priority best = ip_tables_[i].best_priority(v);
    Priority& shadow = label_prio_[index_of(d)][acq.label.value];
    if (acq.created) {
      shadow = best;
      switch (cfg_.ip_algorithm) {
        case IpAlgorithm::kMbt:
          mbt_[i]->insert(v, acq.label, log);
          break;
        case IpAlgorithm::kRvh:
          rvh_[i]->insert(v, acq.label, log);
          break;
        case IpAlgorithm::kBst:
          if (bulk != nullptr) {
            bulk->bst[i].emplace_back(v, acq.label);
          } else {
            bst_[i]->insert(v, acq.label, log);
          }
          break;
      }
    } else if (shadow != best) {
      shadow = best;
      switch (cfg_.ip_algorithm) {
        case IpAlgorithm::kMbt:
          mbt_[i]->refresh(v, log);
          break;
        case IpAlgorithm::kRvh:
          rvh_[i]->refresh(v, log);
          break;
        case IpAlgorithm::kBst:
          // bulk BST: the single rebuild at the end re-sorts everything
          if (bulk == nullptr) {
            bst_[i]->refresh(v, log);
          }
          break;
      }
    }
  }

  // Port and protocol words carry their label's bound: programmed with
  // the label, rewritten when the label's best priority moves.
  auto do_field = [&](auto& table, auto& engine, const auto& v, Dimension d,
                      auto* staged) {
    const alg::AcquireResult acq = table.acquire(v, r.priority);
    labels[index_of(d)] = acq.label;
    Priority& shadow = label_prio_[index_of(d)][acq.label.value];
    const Priority best = table.best_priority(v);
    const bool rebound = !acq.created && to_bound(best) != to_bound(shadow);
    shadow = best;
    if (staged != nullptr) {
      if (acq.created || rebound) staged->emplace(v, acq.created);
    } else if (acq.created) {
      engine.insert(v, acq.label, log, to_bound(best));
    } else if (rebound) {
      engine.set_bound(v, to_bound(best), log);
    }
  };
  do_field(sport_table_, *sport_regs_, r.src_port, Dimension::kSrcPort,
           bulk != nullptr ? &bulk->sport : nullptr);
  do_field(dport_table_, *dport_regs_, r.dst_port, Dimension::kDstPort,
           bulk != nullptr ? &bulk->dport : nullptr);
  do_field(proto_table_, *proto_lut_, r.proto, Dimension::kProtocol,
           bulk != nullptr ? &bulk->proto : nullptr);
  return labels;
}

void ConfigurableClassifier::flush_bulk(BulkStage& bulk,
                                        hw::CommandLog& log) {
  auto program = [&](auto& table, auto& engine, const auto& staged,
                     Dimension d) {
    for (const auto& [v, created] : staged) {
      const Label l = *table.find(v);
      const PriorityBound b = to_bound(label_prio_[index_of(d)][l.value]);
      if (created) {
        engine.insert(v, l, log, b);
      } else {
        engine.set_bound(v, b, log);
      }
    }
  };
  program(sport_table_, *sport_regs_, bulk.sport, Dimension::kSrcPort);
  program(dport_table_, *dport_regs_, bulk.dport, Dimension::kDstPort);
  program(proto_table_, *proto_lut_, bulk.proto, Dimension::kProtocol);

  for (const auto& [fk, before] : bulk.filter) {
    reprogram_prefix(fk, before, prefix_best(fk), log);
  }
  bulk.filter.clear();

  if (cfg_.ip_algorithm == IpAlgorithm::kBst) {
    for (usize i = 0; i < 4; ++i) {
      bst_[i]->insert_bulk(bulk.bst[i], log);
    }
  }
}

void ConfigurableClassifier::release_labels(const ruleset::Rule& r,
                                            hw::CommandLog& log) {
  for (usize i = 0; i < 4; ++i) {
    const Dimension d = kIpDims[i];
    const ruleset::SegmentPrefix v = ip_segment(r, i);
    const alg::ReleaseResult rel = ip_tables_[i].release(v, r.priority);
    if (rel.freed) {
      label_prio_[index_of(d)][rel.label.value] = kNoPriority;
      switch (cfg_.ip_algorithm) {
        case IpAlgorithm::kMbt: mbt_[i]->remove(v, log); break;
        case IpAlgorithm::kBst: bst_[i]->remove(v, log); break;
        case IpAlgorithm::kRvh: rvh_[i]->remove(v, log); break;
      }
    } else {
      const Priority best = ip_tables_[i].best_priority(v);
      Priority& shadow = label_prio_[index_of(d)][rel.label.value];
      if (shadow != best) {
        shadow = best;
        switch (cfg_.ip_algorithm) {
          case IpAlgorithm::kMbt: mbt_[i]->refresh(v, log); break;
          case IpAlgorithm::kBst: bst_[i]->refresh(v, log); break;
          case IpAlgorithm::kRvh: rvh_[i]->refresh(v, log); break;
        }
      }
    }
  }

  auto do_field = [&](auto& table, auto& engine, const auto& v,
                      Dimension d) {
    const alg::ReleaseResult rel = table.release(v, r.priority);
    Priority& shadow = label_prio_[index_of(d)][rel.label.value];
    if (rel.freed) {
      shadow = kNoPriority;
      engine.remove(v, log);
      return;
    }
    const Priority best = table.best_priority(v);
    if (to_bound(best) != to_bound(shadow)) {
      engine.set_bound(v, to_bound(best), log);
    }
    shadow = best;
  };
  do_field(sport_table_, *sport_regs_, r.src_port, Dimension::kSrcPort);
  do_field(dport_table_, *dport_regs_, r.dst_port, Dimension::kDstPort);
  do_field(proto_table_, *proto_lut_, r.proto, Dimension::kProtocol);
}

std::optional<Priority> ConfigurableClassifier::prefix_best(u32 fk) const {
  const auto it = prefix_prios_.find(fk);
  if (it == prefix_prios_.end()) return std::nullopt;
  return it->second.front();
}

void ConfigurableClassifier::filter_acquire(u32 fk, Priority prio,
                                            hw::CommandLog& log,
                                            BulkStage* bulk) {
  auto it = prefix_prios_.find(fk);
  const std::optional<Priority> before =
      it == prefix_prios_.end() ? std::nullopt
                                : std::optional<Priority>(it->second.front());
  if (bulk != nullptr) {
    bulk->filter.try_emplace(fk, before);
  } else {
    reprogram_prefix(fk, before, std::min(before.value_or(prio), prio), log);
  }
  if (it == prefix_prios_.end()) {
    it = prefix_prios_.emplace(fk, std::vector<Priority>{}).first;
  }
  std::vector<Priority>& prios = it->second;
  prios.insert(std::upper_bound(prios.begin(), prios.end(), prio), prio);
}

void ConfigurableClassifier::filter_release(u32 fk, Priority prio,
                                            hw::CommandLog& log) {
  const auto it = prefix_prios_.find(fk);
  if (it == prefix_prios_.end()) {
    throw InternalError("partial filter shadow lost a prefix");
  }
  std::vector<Priority>& prios = it->second;
  const auto pos = std::lower_bound(prios.begin(), prios.end(), prio);
  if (pos == prios.end() || *pos != prio) {
    throw InternalError("partial filter shadow lost a rule");
  }
  const Priority before = prios.front();
  prios.erase(pos);
  std::optional<Priority> after;
  if (prios.empty()) {
    prefix_prios_.erase(it);
  } else {
    after = prios.front();
  }
  reprogram_prefix(fk, before, after, log);
}

void ConfigurableClassifier::reprogram_prefix(u32 fk,
                                              std::optional<Priority> before,
                                              std::optional<Priority> after,
                                              hw::CommandLog& log) {
  if (!after) {
    partial_filter_->remove(fk, log);  // the controller knows the slot
  } else if (!before || to_bound(*after) != to_bound(*before)) {
    log.hash_compute("partial_filter.hash");
    if (before) {
      partial_filter_->set_bound(fk, to_bound(*after), log);
    } else {
      partial_filter_->insert(fk, to_bound(*after), log);
    }
  }
}

void ConfigurableClassifier::install(
    const ruleset::Rule& r, u64 fp,
    const std::array<Label, kNumDimensions>& labels, hw::CommandLog& log,
    BulkStage* bulk) {
  const Key68 key = Key68::merge(labels);
  log.hash_compute("rule_filter.hash");
  rule_filter_->insert_reseeding(
      key, RuleEntry{r.id, r.priority, r.action.token}, log);
  cfg_.hash_seed = rule_filter_->table().seed();
  try {
    filter_acquire(PartialFilter::key_of(key), r.priority, log, bulk);
  } catch (...) {
    rule_filter_->remove(key, log);
    throw;
  }
  installed_.emplace(r.id, InstalledRule{r, key});
  match_index_.emplace(fp, r.id);
}

hw::UpdateStats ConfigurableClassifier::add_rule(const ruleset::Rule& r) {
  if (!r.id.valid()) {
    throw ConfigError("add_rule: rule must carry a valid RuleId");
  }
  if (installed_.contains(r.id)) {
    throw ConfigError("add_rule: duplicate rule id " +
                      std::to_string(r.id.value));
  }
  const u64 fp = ruleset::match_fingerprint(r);
  if (match_index_.contains(fp)) {
    throw ConfigError("add_rule: a rule with an identical match part is "
                      "already installed (id " +
                      std::to_string(match_index_.at(fp).value) + ")");
  }
  hw::CommandLog log;
  install(r, fp, acquire_labels(r, log, nullptr), log, nullptr);
  return apply(log);
}

hw::UpdateStats ConfigurableClassifier::add_rules(
    const ruleset::RuleSet& rules) {
  hw::CommandLog log;
  BulkStage staged;
  try {
    for (const ruleset::Rule& r : rules) {
      if (!r.id.valid()) {
        throw ConfigError("add_rules: rule must carry a valid RuleId");
      }
      if (installed_.contains(r.id)) {
        throw ConfigError("add_rules: duplicate rule id " +
                          std::to_string(r.id.value));
      }
      const u64 fp = ruleset::match_fingerprint(r);
      if (match_index_.contains(fp)) {
        throw ConfigError("add_rules: duplicate match part (dedup the set "
                          "first)");
      }
      install(r, fp, acquire_labels(r, log, &staged), log, &staged);
    }
  } catch (...) {
    // The rules before the failing one stay installed: program their
    // staged words too, so the device matches the label tables.
    flush_bulk(staged, log);
    throw;
  }
  flush_bulk(staged, log);
  return apply(log);
}

hw::UpdateStats ConfigurableClassifier::remove_rule(RuleId id) {
  const auto it = installed_.find(id);
  if (it == installed_.end()) {
    throw ConfigError("remove_rule: rule " + std::to_string(id.value) +
                      " is not installed");
  }
  hw::CommandLog log;
  rule_filter_->remove(it->second.key, log);
  filter_release(PartialFilter::key_of(it->second.key),
                 it->second.rule.priority, log);
  release_labels(it->second.rule, log);
  match_index_.erase(ruleset::match_fingerprint(it->second.rule));
  installed_.erase(it);
  return apply(log);
}

hw::UpdateStats ConfigurableClassifier::modify_rule(RuleId id,
                                                    ruleset::Action action) {
  const auto it = installed_.find(id);
  if (it == installed_.end()) {
    throw ConfigError("modify_rule: rule " + std::to_string(id.value) +
                      " is not installed");
  }
  hw::CommandLog log;
  ruleset::Rule& rule = it->second.rule;
  rule.action = action;
  log.hash_compute("rule_filter.hash");
  rule_filter_->modify(it->second.key,
                       RuleEntry{rule.id, rule.priority, action.token}, log);
  return apply(log);
}

hw::UpdateStats ConfigurableClassifier::set_ip_algorithm(IpAlgorithm alg) {
  if (alg == cfg_.ip_algorithm) {
    return {};
  }
  hw::CommandLog log;
  // 1. Clear the deactivating engines while their binding is still live.
  for (usize i = 0; i < 4; ++i) {
    switch (cfg_.ip_algorithm) {
      case IpAlgorithm::kMbt: mbt_[i]->clear(log); break;
      case IpAlgorithm::kBst: bst_[i]->clear(log); break;
      case IpAlgorithm::kRvh: rvh_[i]->clear(log); break;
    }
  }
  // 2. Flush + re-bind the shared blocks (Fig. 5). The RVH owns its
  // table, so selecting it leaves the shared blocks bound (and empty)
  // where the last trie-family engine left them.
  if (cfg_.share_ip_memory && alg != IpAlgorithm::kRvh) {
    for (usize i = 0; i < 4; ++i) {
      shared_[i]->bind(role_of(alg));
    }
  }
  // 3. Drive the select line.
  log.config_toggle("IPalg_s", ipalg_signal(alg));
  cfg_.ip_algorithm = alg;
  // 4. Rebuild the newly selected engines from the label tables.
  rebuild_active_ip_engines(log);
  return apply(log);
}

void ConfigurableClassifier::rebuild_active_ip_engines(hw::CommandLog& log) {
  for (usize i = 0; i < 4; ++i) {
    std::vector<std::pair<ruleset::SegmentPrefix, Label>> live;
    ip_tables_[i].for_each(
        [&](const ruleset::SegmentPrefix& v, Label l, Priority) {
          live.emplace_back(v, l);
        });
    if (cfg_.ip_algorithm == IpAlgorithm::kBst) {
      bst_[i]->insert_bulk(live, log);
    } else if (cfg_.ip_algorithm == IpAlgorithm::kRvh) {
      for (const auto& [v, l] : live) {
        rvh_[i]->insert(v, l, log);
      }
    } else {
      for (const auto& [v, l] : live) {
        mbt_[i]->insert(v, l, log);
      }
    }
  }
}

alg::ListRef ConfigurableClassifier::ip_lookup(usize ip_dim_index, u16 key,
                                               hw::CycleRecorder* rec) const {
  switch (cfg_.ip_algorithm) {
    case IpAlgorithm::kMbt: return mbt_[ip_dim_index]->lookup(key, rec);
    case IpAlgorithm::kBst: return bst_[ip_dim_index]->lookup(key, rec);
    case IpAlgorithm::kRvh: return rvh_[ip_dim_index]->lookup(key, rec);
  }
  return alg::ListRef{};
}

ClassifyResult ConfigurableClassifier::classify(
    const net::FiveTuple& h) const {
  ClassifyResult out;

  // Phase 2: the seven dimension lookups run in parallel; each gets its
  // own recorder, the phase costs the slowest one. All label lists live
  // in stack scratch (SmallVec) — the steady-state lookup path performs
  // no heap allocation.
  std::array<hw::CycleRecorder, kNumDimensions> recs;
  std::array<alg::ListRef, 4> ip_refs;
  for (usize i = 0; i < 4; ++i) {
    const u16 key = static_cast<u16>(
        net::dimension_key(h, kIpDims[i]) & 0xFFFFu);
    ip_refs[i] = ip_lookup(i, key, &recs[index_of(kIpDims[i])]);
  }

  hw::CycleRecorder tail;  // phases 3 + 4
  tail.charge(1, 0);       // label merge network

  if (cfg_.combine_mode == CombineMode::kFirstLabel) {
    // §III.B: "This combination is the product of the highest priority
    // label stored in the first position in the list of each output
    // algorithm." Only the first label of each dimension is needed, so
    // no lists are materialized at all.
    std::array<Label, kNumDimensions> first{};
    first[index_of(Dimension::kSrcPort)] = sport_regs_->lookup_first(
        h.src_port, &recs[index_of(Dimension::kSrcPort)]);
    first[index_of(Dimension::kDstPort)] = dport_regs_->lookup_first(
        h.dst_port, &recs[index_of(Dimension::kDstPort)]);
    first[index_of(Dimension::kProtocol)] = proto_lut_->lookup_first(
        h.protocol, &recs[index_of(Dimension::kProtocol)]);
    bool miss = !first[index_of(Dimension::kSrcPort)].valid() ||
                !first[index_of(Dimension::kDstPort)].valid() ||
                !first[index_of(Dimension::kProtocol)].valid();
    for (usize i = 0; i < 4 && !miss; ++i) {
      if (ip_refs[i].empty()) {
        miss = true;
        break;
      }
      first[index_of(kIpDims[i])] =
          lists_[i]->read_first(ip_refs[i], &recs[index_of(kIpDims[i])]);
    }
    if (!miss) {
      out.crossproduct_probes = 1;
      out.match = rule_filter_->lookup(Key68::merge(first), &tail);
    }
  } else {
    // CrossProduct: the exact bounded combine over the (short) label
    // lists, keeping the highest-priority hit.
    std::array<LabelVec, kNumDimensions> lists;
    std::array<BoundVec, kNumDimensions> bounds;
    for (usize i = 0; i < 4; ++i) {
      lists_[i]->read_list_into(ip_refs[i], &recs[index_of(kIpDims[i])],
                                lists[index_of(kIpDims[i])]);
    }
    sport_regs_->lookup_bounded_into(h.src_port, &recs[kSport],
                                     lists[kSport], bounds[kSport]);
    dport_regs_->lookup_bounded_into(h.dst_port, &recs[kDport],
                                     lists[kDport], bounds[kDport]);
    proto_lut_->lookup_bounded_into(h.protocol, &recs[kProto], lists[kProto],
                                    bounds[kProto]);
    CombineLists in;
    for (usize d = 0; d < kNumDimensions; ++d) {
      in.labels[d] = lists[d].begin();
      in.len[d] = lists[d].size();
    }
    for (const usize d : kBoundedDims) {
      in.bounds[d] = bounds[d].begin();
    }
    bounded_combine(in, tail, nullptr, out);
  }

  u64 phase2_cycles = 0;
  for (const auto& r : recs) {
    phase2_cycles = std::max(phase2_cycles, r.cycles());
    out.memory_accesses += r.memory_accesses();
  }
  out.cycles = 1 /*split*/ + phase2_cycles + tail.cycles();
  out.memory_accesses += tail.memory_accesses();
  return out;
}

u64 ConfigurableClassifier::bounded_combine(const CombineLists& lists,
                                            hw::CycleRecorder& tail,
                                            ProbeMemo* memo,
                                            ClassifyResult& out) const {
  // Walk order: the bounded (port, protocol) dimensions outermost, so
  // their bounds can cut whole subtrees of IP-label combinations.
  static constexpr std::array<Dimension, kNumDimensions> kWalk = {
      Dimension::kSrcPort, Dimension::kDstPort, Dimension::kProtocol,
      Dimension::kSrcIpHi, Dimension::kSrcIpLo, Dimension::kDstIpHi,
      Dimension::kDstIpLo};
  for (const usize len : lists.len) {
    if (len == 0) return 0;  // a dimension matched nothing: no combination
  }
  auto bound_at = [&](usize d, usize i) -> Priority {
    return lists.bounds[d] != nullptr ? lists.bounds[d][i] : 0;
  };
  // rest[k]: the largest of the smallest bounds of walk levels k and
  // deeper (each list ascends, so its smallest bound is its first).
  std::array<Priority, kNumDimensions + 1> rest{};
  for (usize k = kNumDimensions; k-- > 0;) {
    rest[k] = std::max(rest[k + 1], bound_at(index_of(kWalk[k]), 0));
  }

  std::array<Label, kNumDimensions> combo{};
  std::optional<RuleEntry> best;
  hw::CycleRecorder checks;  // partial-filter checks, never memoized
  auto walk = [&](auto& self, usize k, Priority acc) -> void {
    const usize d = index_of(kWalk[k]);
    for (usize i = 0; i < lists.len[d]; ++i) {
      Priority b = std::max(acc, bound_at(d, i));
      // Every rule under this branch has priority >= max(b, rest). Cut
      // only when that is strictly worse than the best hit (an equal
      // priority may still win on the lower rule id); the list ascends,
      // so the rest of it is cut too.
      if (best && std::max(b, rest[k + 1]) > best->priority) return;
      combo[d] = lists.labels[d][i];
      if (d == kSrcIpHi) {
        // The 4-label prefix is complete: no rule holds it on a miss;
        // on a hit every rule under it has priority >= the stored
        // bound. The src_ip_hi list is not bound-ordered, so only this
        // branch is cut.
        ++out.filter_checks;
        const std::optional<PriorityBound> held = partial_filter_->check(
            PartialFilter::key_of(combo[kSport], combo[kDport],
                                  combo[kProto], combo[kSrcIpHi]),
            &checks);
        if (!held) continue;
        b = std::max<Priority>(b, *held);
        if (best && std::max(b, rest[k + 1]) > best->priority) continue;
      }
      if (k + 1 < kNumDimensions) {
        self(self, k + 1, b);
        continue;
      }
      if (++out.crossproduct_probes > cfg_.max_crossproduct_probes) {
        throw InternalError("phase-3 combine probe bound exceeded — label "
                            "lists pathologically long");
      }
      const Key68 key = Key68::merge(combo);
      const std::optional<RuleEntry> hit =
          memo != nullptr
              ? rule_filter_->lookup_memo(key, &tail, *memo, out.memo_hits)
              : rule_filter_->lookup(key, &tail);
      if (hit && (!best || hit->priority < best->priority ||
                  (hit->priority == best->priority &&
                   hit->rule < best->rule))) {
        best = hit;
      }
    }
  };
  walk(walk, 0, 0);
  out.match = best;
  tail.charge(checks.cycles(), checks.memory_accesses());
  return checks.cycles();
}

ClassifyResult ConfigurableClassifier::classify_packet(
    std::span<const u8> bytes) const {
  const std::optional<net::FiveTuple> t = net::parse_five_tuple(bytes);
  if (!t) {
    ClassifyResult miss;
    miss.cycles = 1;  // drop in the parser stage
    return miss;
  }
  return classify(*t);
}

void ConfigurableClassifier::classify_batch(
    std::span<const net::FiveTuple> in,
    std::span<ClassifyResult> out) const {
  BatchScratch scratch;
  classify_batch(in, out, scratch);
}

void ConfigurableClassifier::classify_batch(
    std::span<const net::FiveTuple> in, std::span<ClassifyResult> out,
    BatchScratch& scratch) const {
  if (out.size() < in.size()) {
    throw ConfigError("classify_batch: output span smaller than input");
  }
  if (in.size() <= 1) {
    // Single-packet batches have nothing to share; the scalar path is
    // the phase-2 engine's exact cost model without its scaffolding.
    // A one-header batch still counts as a scalar-loop batch (untimed,
    // so it stays out of the cost fit); an empty call counts on no path.
    if (!in.empty()) {
      out[0] = classify(in[0]);
      scratch.controller.observe(BatchPath::kScalarLoop, -1.0, 1, 1);
    }
    scratch.last_batch_path = BatchPath::kScalarLoop;
    scratch.last_batch_distinct = 0;
    return;
  }

  // Pick the execution path: forced by policy, or by the per-scratch
  // controller's cost model evaluated at this batch's (packets,
  // distinct_keys) point. Every path yields identical verdicts and
  // per-packet memory accesses, so this only moves host work. The
  // distinct count is only computed when the controller consumes it —
  // forced policies skip the fingerprint pass entirely.
  const bool memo_eligible = cfg_.batch_probe_memo;
  const bool adaptive = cfg_.batch_path_policy == PathPolicy::kAdaptive;
  usize distinct = in.size();
  if (adaptive) {
    // Streaming distinct count: one pass over the same header
    // fingerprints the former sort+unique consumed, deduplicated
    // through an open-addressed presence table (load factor <= 1/2),
    // so the count is value-identical without the per-batch O(n log n)
    // sort. A fingerprint of 0 would collide with the empty-slot
    // sentinel, so it is tracked out-of-band.
    auto& tab = scratch.distinct_fp;
    const usize cap =
        static_cast<usize>(next_pow2(std::max<u64>(16, u64{in.size()} * 2)));
    if (tab.size() != cap) {
      tab.assign(cap, 0);
    } else {
      std::fill(tab.begin(), tab.end(), 0);
    }
    const usize mask = cap - 1;
    bool seen_zero = false;
    usize count = 0;
    for (const net::FiveTuple& t : in) {
      const u64 fp = std::hash<net::FiveTuple>{}(t);
      if (fp == 0) {
        count += !seen_zero;
        seen_zero = true;
        continue;
      }
      usize slot = static_cast<usize>(mix64(fp)) & mask;
      while (tab[slot] != fp) {
        if (tab[slot] == 0) {
          tab[slot] = fp;
          ++count;
          break;
        }
        slot = (slot + 1) & mask;
      }
    }
    distinct = count;
  }
  BatchPath path = BatchPath::kPhase2;
  switch (cfg_.batch_path_policy) {
    case PathPolicy::kForceScalarLoop:
      path = BatchPath::kScalarLoop;
      break;
    case PathPolicy::kForcePhase2:
      path = memo_eligible ? BatchPath::kPhase2Memo : BatchPath::kPhase2;
      break;
    case PathPolicy::kAdaptive:
      path = scratch.controller.choose(memo_eligible, in.size(), distinct);
      break;
  }

  // Host timing only when the controller consumes it: forced policies
  // skip the two clock reads per batch so forced ablation rows carry no
  // overhead the scalar baseline doesn't (observe() with a negative
  // cost still keeps the per-path batch counters truthful).
  std::chrono::steady_clock::time_point t0;
  if (adaptive) t0 = std::chrono::steady_clock::now();
  if (path == BatchPath::kScalarLoop) {
    for (usize i = 0; i < in.size(); ++i) {
      out[i] = classify(in[i]);
    }
  } else {
    classify_batch_phase2(in, out, scratch,
                          path == BatchPath::kPhase2Memo);
  }
  double ns = -1.0;
  if (adaptive) {
    ns = std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
             .count();
  }
  scratch.controller.observe(path, ns, in.size(), distinct);
  scratch.last_batch_path = path;
  scratch.last_batch_distinct = adaptive ? distinct : 0;
}

namespace {

/// Linear search of the per-batch list-read memo (distinct refs per
/// batch are few; a flat scan beats hashing at these sizes).
BatchScratch::ListReadMemo* find_list_memo(
    std::vector<BatchScratch::ListReadMemo>& memo, u32 ref_addr) {
  for (auto& m : memo) {
    if (m.ref_addr == ref_addr) return &m;
  }
  return nullptr;
}

/// Content hash of one dimension's pooled label list, cached per
/// distinct (off, len) span per batch (identical spans share a pool
/// range by construction, so the packed span is a perfect cache key).
u64 span_content_hash(BatchScratch& s, usize d, alg::LabelSpan sp) {
  const u64 packed = (u64{sp.off} << 32) | sp.len;
  for (const BatchScratch::SpanHash& c : s.span_hashes[d]) {
    if (c.packed == packed) return c.hash;
  }
  u64 h = mix64(0x5349474E00000000ULL ^ sp.len);
  for (u32 k = 0; k < sp.len; ++k) {
    h = mix64(h ^ s.pools[d][sp.off + k].value);
  }
  s.span_hashes[d].push_back({packed, h});
  return h;
}

/// Exact content equality of two spans of the same dimension pool (the
/// collision-proof confirm behind a combine-signature match).
bool span_content_equal(const std::vector<Label>& pool, alg::LabelSpan a,
                        alg::LabelSpan b) {
  if (a.off == b.off && a.len == b.len) return true;
  if (a.len != b.len) return false;
  for (u32 k = 0; k < a.len; ++k) {
    if (pool[a.off + k].value != pool[b.off + k].value) return false;
  }
  return true;
}

}  // namespace

void ConfigurableClassifier::classify_batch_phase2(
    std::span<const net::FiveTuple> in, std::span<ClassifyResult> out,
    BatchScratch& s, bool use_memo) const {
  const usize n = in.size();
  for (usize d = 0; d < kNumDimensions; ++d) {
    s.keys[d].resize(n);
    s.recs[d].assign(n, hw::CycleRecorder{});
    s.pools[d].clear();
    s.bound_pools[d].clear();
    s.spans[d].assign(n, alg::LabelSpan{});
    s.span_hashes[d].clear();
  }
  for (usize i = 0; i < 4; ++i) {
    s.ip_refs[i].assign(n, alg::ListRef{});
    s.list_memo[i].clear();
  }
  s.combine_memo.clear();

  // Gather + sort the per-dimension key lanes for the whole batch.
  for (usize p = 0; p < n; ++p) {
    for (Dimension d : kAllDimensions) {
      s.keys[index_of(d)][p] =
          alg::BatchKey{net::dimension_key(in[p], d) & 0xFFFFu,
                        static_cast<u32>(p)};
    }
  }
  for (usize d = 0; d < kNumDimensions; ++d) {
    alg::sort_batch_keys(s.keys[d]);
  }

  // Phase 2, batched: each engine resolves its sorted run once.
  for (usize i = 0; i < 4; ++i) {
    const usize d = index_of(kIpDims[i]);
    switch (cfg_.ip_algorithm) {
      case IpAlgorithm::kMbt:
        mbt_[i]->lookup_batch_into(s.keys[d], s.ip_refs[i], s.recs[d]);
        break;
      case IpAlgorithm::kBst:
        bst_[i]->lookup_batch_into(s.keys[d], s.ip_refs[i], s.recs[d]);
        break;
      case IpAlgorithm::kRvh:
        rvh_[i]->lookup_batch_into(s.keys[d], s.ip_refs[i], s.recs[d]);
        break;
    }
  }
  const bool cross = cfg_.combine_mode == CombineMode::kCrossProduct;
  // FirstLabel needs only each dimension's winner: the first-label
  // variants skip list materialization and the priority-network sort
  // (mirroring the scalar path's lookup_first), at identical cost.
  if (cross) {
    sport_regs_->lookup_batch_into(s.keys[kSport], s.recs[kSport],
                                   s.pools[kSport], s.bound_pools[kSport],
                                   s.spans[kSport]);
    dport_regs_->lookup_batch_into(s.keys[kDport], s.recs[kDport],
                                   s.pools[kDport], s.bound_pools[kDport],
                                   s.spans[kDport]);
    proto_lut_->lookup_batch_into(s.keys[kProto], s.recs[kProto],
                                  s.pools[kProto], s.bound_pools[kProto],
                                  s.spans[kProto]);
  } else {
    sport_regs_->lookup_first_batch_into(
        s.keys[index_of(Dimension::kSrcPort)],
        s.recs[index_of(Dimension::kSrcPort)],
        s.pools[index_of(Dimension::kSrcPort)],
        s.spans[index_of(Dimension::kSrcPort)]);
    dport_regs_->lookup_first_batch_into(
        s.keys[index_of(Dimension::kDstPort)],
        s.recs[index_of(Dimension::kDstPort)],
        s.pools[index_of(Dimension::kDstPort)],
        s.spans[index_of(Dimension::kDstPort)]);
    proto_lut_->lookup_first_batch_into(
        s.keys[index_of(Dimension::kProtocol)],
        s.recs[index_of(Dimension::kProtocol)],
        s.pools[index_of(Dimension::kProtocol)],
        s.spans[index_of(Dimension::kProtocol)]);
  }
  if (cross) {
    // IP label-list reads, one per distinct ref per batch; every packet
    // sharing the ref replays the recorded cost (same list, same
    // walk). Iterating in sorted-key order keeps equal refs adjacent.
    for (usize i = 0; i < 4; ++i) {
      const usize d = index_of(kIpDims[i]);
      for (const alg::BatchKey& lane : s.keys[d]) {
        const alg::ListRef ref = s.ip_refs[i][lane.slot];
        BatchScratch::ListReadMemo* m =
            find_list_memo(s.list_memo[i], ref.addr);
        if (m == nullptr) {
          hw::CycleRecorder rc;
          LabelVec tmp;
          lists_[i]->read_list_into(ref, &rc, tmp);
          BatchScratch::ListReadMemo fresh;
          fresh.ref_addr = ref.addr;
          fresh.span.off = static_cast<u32>(s.pools[d].size());
          fresh.span.len = static_cast<u32>(tmp.size());
          fresh.cycles = rc.cycles();
          fresh.accesses = rc.memory_accesses();
          s.pools[d].insert(s.pools[d].end(), tmp.begin(), tmp.end());
          s.list_memo[i].push_back(fresh);
          m = &s.list_memo[i].back();
        }
        s.recs[d][lane.slot].charge(m->cycles, m->accesses);
        s.spans[d][lane.slot] = m->span;
      }
    }
  }

  // The combination-probe memo, bound to this device's (id, epoch):
  // carried over unchanged, cached combinations from earlier batches of
  // the same program keep serving; any device change (snapshot swap
  // rotates the worker onto a different replica, or an in-place update
  // bumped the epoch) drops every entry before a stale verdict could
  // serve.
  ProbeMemo* memo = nullptr;
  if (use_memo) {
    // Rebuild on any size mismatch — including shrinks: a config asking
    // for a 16-slot memo must actually get one (the fuzz harness's
    // set-pressure dimension depends on it), not silently keep the
    // scratch's larger default.
    if (s.memo.slots() != ProbeMemo::normalized_slots(cfg_.batch_memo_slots)) {
      s.memo = ProbeMemo(cfg_.batch_memo_slots);
    }
    if (s.memo.bind(device_id_, device_epoch_)) ++s.memo_invalidations;
    memo = &s.memo;
  }

  // Phases 3 + 4 per packet, combining the batch-shared phase-2 results.
  for (usize p = 0; p < n; ++p) {
    ClassifyResult& res = out[p];
    res = ClassifyResult{};
    u64 tail_cycles = 0;
    u64 tail_accesses = 0;

    if (!cross) {
      hw::CycleRecorder tail;
      tail.charge(1, 0);  // label merge network
      // FirstLabel: same control flow (and therefore the same charges)
      // as the scalar path — ports/proto first, then the IP refs until
      // the first empty one.
      std::array<Label, kNumDimensions> first{};
      for (const Dimension d :
           {Dimension::kSrcPort, Dimension::kDstPort, Dimension::kProtocol}) {
        const alg::LabelSpan sp = s.spans[index_of(d)][p];
        first[index_of(d)] =
            sp.empty() ? Label{} : s.pools[index_of(d)][sp.off];
      }
      bool miss = !first[index_of(Dimension::kSrcPort)].valid() ||
                  !first[index_of(Dimension::kDstPort)].valid() ||
                  !first[index_of(Dimension::kProtocol)].valid();
      for (usize i = 0; i < 4 && !miss; ++i) {
        const alg::ListRef ref = s.ip_refs[i][p];
        if (ref.empty()) {
          miss = true;
          break;
        }
        BatchScratch::ListReadMemo* m =
            find_list_memo(s.list_memo[i], ref.addr);
        if (m == nullptr) {
          hw::CycleRecorder rc;
          BatchScratch::ListReadMemo fresh;
          fresh.ref_addr = ref.addr;
          fresh.first = lists_[i]->read_first(ref, &rc);
          fresh.cycles = rc.cycles();
          fresh.accesses = rc.memory_accesses();
          s.list_memo[i].push_back(fresh);
          m = &s.list_memo[i].back();
        }
        s.recs[index_of(kIpDims[i])][p].charge(m->cycles, m->accesses);
        first[index_of(kIpDims[i])] = m->first;
      }
      if (!miss) {
        res.crossproduct_probes = 1;
        const Key68 key = Key68::merge(first);
        res.match = memo != nullptr
                        ? rule_filter_->lookup_memo(key, &tail, *memo,
                                                    res.memo_hits)
                        : rule_filter_->lookup(key, &tail);
      }
      tail_cycles = tail.cycles();
      tail_accesses = tail.memory_accesses();
    } else {
      // Combine-level dedup: packets whose 7 label lists have identical
      // *contents* run an identical combine — run it once per distinct
      // list set and replay verdict + tail cost. The signature is a
      // per-dimension content hash (span identity would under-group:
      // distinct port keys with identical lists get distinct pool
      // ranges); a signature match is confirmed by exact comparison
      // against the leader's spans so a hash collision cannot share.
      std::array<u64, kNumDimensions> sig;
      for (usize d = 0; d < kNumDimensions; ++d) {
        sig[d] = span_content_hash(s, d, s.spans[d][p]);
      }
      BatchScratch::CombineMemo* cm = nullptr;
      for (auto& m : s.combine_memo) {
        if (m.sig != sig) continue;
        bool same = true;
        for (usize d = 0; d < kNumDimensions && same; ++d) {
          same = span_content_equal(s.pools[d], m.spans[d], s.spans[d][p]);
        }
        if (same) {
          cm = &m;
          break;
        }
      }
      if (cm == nullptr) {
        BatchScratch::CombineMemo fresh;
        fresh.sig = sig;
        for (usize d = 0; d < kNumDimensions; ++d) {
          fresh.spans[d] = s.spans[d][p];
        }
        hw::CycleRecorder tail;
        tail.charge(1, 0);  // label merge network
        CombineLists lists;
        for (usize d = 0; d < kNumDimensions; ++d) {
          const alg::LabelSpan sp = s.spans[d][p];
          lists.labels[d] = s.pools[d].data() + sp.off;
          lists.len[d] = sp.len;
        }
        for (const usize d : kBoundedDims) {
          lists.bounds[d] = s.bound_pools[d].data() + s.spans[d][p].off;
        }
        ClassifyResult combined;
        fresh.filter_cycles = bounded_combine(lists, tail, memo, combined);
        fresh.match = combined.match;
        fresh.probes = combined.crossproduct_probes;
        fresh.memo_hits = combined.memo_hits;
        fresh.filter_checks = combined.filter_checks;
        fresh.tail_cycles = tail.cycles();
        fresh.tail_accesses = tail.memory_accesses();
        s.combine_memo.push_back(fresh);
        cm = &s.combine_memo.back();
        res.match = cm->match;
        res.crossproduct_probes = cm->probes;
        res.memo_hits = cm->memo_hits;
        res.filter_checks = cm->filter_checks;
        tail_cycles = cm->tail_cycles;
        tail_accesses = cm->tail_accesses;
      } else {
        // Repeat list set. With the combination memo active, every
        // probe of this packet was just cached by its leader: each is
        // served in one cycle, still charging the replaced probe's
        // reads; the filter checks are charged in full. With the memo
        // off (nothing was cached), replay the leader's full tail —
        // cycle-exact with the scalar path.
        res.match = cm->match;
        res.crossproduct_probes = cm->probes;
        res.filter_checks = cm->filter_checks;
        if (memo != nullptr) {
          res.memo_hits = cm->probes;
          tail_cycles = 1 + cm->probes + cm->filter_cycles;
        } else {
          res.memo_hits = 0;
          tail_cycles = cm->tail_cycles;
        }
        tail_accesses = cm->tail_accesses;
      }
    }

    u64 phase2_cycles = 0;
    for (usize d = 0; d < kNumDimensions; ++d) {
      phase2_cycles = std::max(phase2_cycles, s.recs[d][p].cycles());
      res.memory_accesses += s.recs[d][p].memory_accesses();
    }
    res.cycles = 1 /*split*/ + phase2_cycles + tail_cycles;
    res.memory_accesses += tail_accesses;
  }
}

std::vector<ruleset::Rule> ConfigurableClassifier::installed_rules() const {
  std::vector<ruleset::Rule> out;
  out.reserve(installed_.size());
  for (const auto& [id, ir] : installed_) {
    out.push_back(ir.rule);
  }
  return out;
}

std::optional<ruleset::Rule> ConfigurableClassifier::installed_rule(
    RuleId id) const {
  const auto it = installed_.find(id);
  if (it == installed_.end()) return std::nullopt;
  return it->second.rule;
}

hw::Pipeline ConfigurableClassifier::lookup_pipeline() const {
  u64 ip_latency, ip_ii;
  if (cfg_.ip_algorithm == IpAlgorithm::kMbt) {
    ip_latency = u64{cfg_.mbt.read_cycles} * cfg_.mbt.strides.size() + 1;
    ip_ii = 1;  // fully pipelined levels
  } else if (cfg_.ip_algorithm == IpAlgorithm::kRvh) {
    // Worst case probes every live range-vector signature once: one
    // hash cycle plus one table read per signature group.
    u64 groups = 1;
    for (usize i = 0; i < 4; ++i) {
      groups = std::max<u64>(groups, rvh_[i]->live_length_count());
    }
    ip_latency = groups * (u64{cfg_.rvh.read_cycles} + 1) + 1;
    ip_ii = groups;  // iterative probe loop on one port: not pipelined
  } else {
    u64 depth = 1;
    for (usize i = 0; i < 4; ++i) {
      depth = std::max<u64>(depth, bst_[i]->depth());
    }
    ip_latency = depth * cfg_.bst.read_cycles + 1;
    ip_ii = depth;  // iterative walk on one port: not pipelined
  }
  const u64 field_latency = std::max<u64>(ip_latency, 2);
  return hw::Pipeline{{
      {"header-split", 1, 1},
      {"field-lookup", field_latency, ip_ii},
      {"label-combine", 2, 1},
      {"rule-filter", 1, 1},
  }};
}

MemoryReport ConfigurableClassifier::memory_report() const {
  MemoryReport rep;
  auto add = [&](const std::string& name, u64 cap, u64 used) {
    rep.blocks.push_back({name, cap, used});
    rep.total_capacity_bits += cap;
    rep.total_used_bits += used;
  };

  for (usize i = 0; i < 4; ++i) {
    const auto& strides = cfg_.mbt.strides;
    for (usize k = 0; k < mbt_[i]->levels(); ++k) {
      const hw::Memory& m = mbt_[i]->level_memory(k);
      const bool is_shared = cfg_.share_ip_memory && k == 1;
      const u64 mbt_used = static_cast<u64>(mbt_[i]->node_count(k)) *
                           (u64{1} << strides[k]) * m.word_bits();
      if (is_shared) {
        // The RVH owns its table, so with it selected the shared block
        // holds no live engine data at all.
        const u64 used = cfg_.ip_algorithm == IpAlgorithm::kMbt
                             ? mbt_used
                         : cfg_.ip_algorithm == IpAlgorithm::kBst
                             ? bst_[i]->live_node_bits()
                             : 0;
        add(shared_[i]->physical().name(), m.capacity_bits(), used);
      } else {
        add(m.name(), m.capacity_bits(), mbt_used);
      }
    }
    if (!cfg_.share_ip_memory) {
      add(bst_[i]->memory().name(), bst_[i]->capacity_bits(),
          bst_[i]->live_node_bits());
    }
    add(rvh_[i]->memory().name(), rvh_[i]->capacity_bits(),
        rvh_[i]->live_node_bits());
    add(lists_[i]->memory().name(), lists_[i]->memory().capacity_bits(),
        lists_[i]->live_bits());
  }
  add(proto_lut_->memory().name(), proto_lut_->memory().capacity_bits(),
      proto_lut_->memory().capacity_bits());
  add(rule_filter_->memory().name(),
      rule_filter_->memory().capacity_bits(),
      u64{rule_filter_->size()} * rule_filter_->memory().word_bits());
  add(partial_filter_->memory().name(),
      partial_filter_->memory().capacity_bits(),
      u64{partial_filter_->size()} * partial_filter_->memory().word_bits());

  rep.register_bits = sport_regs_->registers().total_bits() +
                      dport_regs_->registers().total_bits() +
                      proto_lut_->wildcard_register().total_bits();
  return rep;
}

hw::SynthesisReport ConfigurableClassifier::synthesis_report() const {
  hw::SynthesisModel sm;
  for (usize i = 0; i < 4; ++i) {
    for (usize k = 0; k < mbt_[i]->levels(); ++k) {
      sm.add_memory(mbt_[i]->level_memory(k));  // shared block counted here
    }
    if (!cfg_.share_ip_memory) {
      sm.add_memory(bst_[i]->memory());
    }
    sm.add_memory(rvh_[i]->memory());
    sm.add_memory(lists_[i]->memory());
  }
  sm.add_memory(proto_lut_->memory());
  sm.add_memory(rule_filter_->memory());
  sm.add_memory(partial_filter_->memory());
  sm.add_register_file(sport_regs_->registers());
  sm.add_register_file(dport_regs_->registers());
  sm.add_register_file(proto_lut_->wildcard_register());
  // Four pipeline phases; the inter-phase registers carry the split
  // header plus the widest intermediate (7 list pointers / 68-bit key).
  sm.add_pipeline_stages(4, 160);
  sm.add_hash_units(2);  // Rule Filter probes + partial-filter checks
  sm.set_fmax_mhz(cfg_.fmax_mhz);
  sm.set_pins_used(500);
  return sm.report();
}

std::optional<PriorityBound> ConfigurableClassifier::partial_filter_bound(
    const ruleset::Rule& r) const {
  const std::optional<Label> sport = sport_table_.find(r.src_port);
  const std::optional<Label> dport = dport_table_.find(r.dst_port);
  const std::optional<Label> proto = proto_table_.find(r.proto);
  const std::optional<Label> src_hi = ip_tables_[0].find(ip_segment(r, 0));
  if (!sport || !dport || !proto || !src_hi) return std::nullopt;
  return partial_filter_->check(
      PartialFilter::key_of(*sport, *dport, *proto, *src_hi), nullptr);
}

usize ConfigurableClassifier::label_count(Dimension d) const {
  switch (d) {
    case Dimension::kSrcIpHi: return ip_tables_[0].size();
    case Dimension::kSrcIpLo: return ip_tables_[1].size();
    case Dimension::kDstIpHi: return ip_tables_[2].size();
    case Dimension::kDstIpLo: return ip_tables_[3].size();
    case Dimension::kSrcPort: return sport_table_.size();
    case Dimension::kDstPort: return dport_table_.size();
    case Dimension::kProtocol: return proto_table_.size();
  }
  return 0;
}

}  // namespace pclass::core
