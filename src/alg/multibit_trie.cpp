#include "alg/multibit_trie.hpp"

#include <algorithm>
#include <array>

namespace pclass::alg {

namespace {

// Fixed pointer widths of the node-entry encoding. Level capacities and
// list-store depths are validated against them at construction.
constexpr unsigned kChildBits = 12;   // up to 4096 nodes per level
constexpr unsigned kAddrBits = 16;    // list store depth up to 65536
constexpr unsigned kMinWordBits = 1 + kChildBits + kAddrBits;

// Entry word layout (LSB first): child_valid(1) child(12) list_addr(16).
hw::Word encode_entry(bool child_valid, u64 child, u64 list_addr) {
  hw::WordPacker p;
  p.push(child_valid ? 1 : 0, 1);
  p.push(child, kChildBits);
  p.push(list_addr, kAddrBits);
  return p.word();
}

}  // namespace

MultiBitTrie::MultiBitTrie(const std::string& name, MbtConfig cfg,
                           LabelListStore& lists,
                           std::function<Priority(Label)> prio_of,
                           hw::Memory* shared_level,
                           usize shared_level_index)
    : cfg_(std::move(cfg)), lists_(lists), prio_of_(std::move(prio_of)) {
  if (cfg_.strides.empty()) {
    throw ConfigError("MultiBitTrie: need at least one stride");
  }
  unsigned sum = 0;
  for (unsigned s : cfg_.strides) {
    if (s == 0 || s > 12) {
      throw ConfigError("MultiBitTrie: stride must be in [1, 12]");
    }
    sum += s;
    cum_.push_back(sum);
  }
  if (sum != 16) {
    throw ConfigError("MultiBitTrie: strides must sum to 16 (one segment)");
  }
  if (cfg_.level_capacity.size() != cfg_.strides.size()) {
    throw ConfigError("MultiBitTrie: level_capacity size must match strides");
  }
  cfg_.level_capacity[0] = 1;  // exactly one root node
  for (u32 c : cfg_.level_capacity) {
    if (c == 0 || c > (u32{1} << kChildBits)) {
      throw ConfigError("MultiBitTrie: level capacity out of range");
    }
  }
  if (lists_.memory().depth() > (u32{1} << kAddrBits)) {
    throw ConfigError("MultiBitTrie: list store too deep for address field");
  }
  if (!prio_of_) {
    throw ConfigError("MultiBitTrie: priority callback required");
  }

  // The word-width override exists to match the shared block's geometry
  // (Fig. 5); owned levels always use the minimal entry width.
  const unsigned shared_word_bits =
      std::max(kMinWordBits, cfg_.word_bits_override == 0
                                 ? kMinWordBits
                                 : cfg_.word_bits_override);
  for (usize k = 0; k < cfg_.strides.size(); ++k) {
    const u32 depth = cfg_.level_capacity[k] * (u32{1} << cfg_.strides[k]);
    if (shared_level != nullptr && k == shared_level_index) {
      if (shared_level->depth() < depth ||
          shared_level->word_bits() < shared_word_bits) {
        throw ConfigError("MultiBitTrie: shared level memory too small");
      }
      mem_.push_back(shared_level);
    } else {
      owned_mem_.push_back(std::make_unique<hw::Memory>(
          name + ".L" + std::to_string(k), depth, kMinWordBits,
          cfg_.read_cycles));
      mem_.push_back(owned_mem_.back().get());
    }
  }

  pool_.resize(cfg_.strides.size());
  free_ids_.resize(cfg_.strides.size());
  for (usize k = 0; k < cfg_.strides.size(); ++k) {
    dirty_.emplace_back(cfg_.level_capacity[k], false);
  }
  // Root node: always live, entries all empty.
  SwNode root;
  root.entries.resize(usize{1} << cfg_.strides[0]);
  root.live = true;
  pool_[0].push_back(std::move(root));
}

unsigned MultiBitTrie::level_word_bits(usize level) const {
  return mem_[level]->word_bits();
}

usize MultiBitTrie::anchor_level(u8 prefix_len) const {
  for (usize k = 0; k < cum_.size(); ++k) {
    if (prefix_len <= cum_[k]) return k;
  }
  throw InternalError("MultiBitTrie: prefix longer than segment");
}

u32 MultiBitTrie::entry_index(u16 key, usize level) const {
  const unsigned shift = 16 - cum_[level];
  return static_cast<u32>((key >> shift) & mask_low(cfg_.strides[level]));
}

MultiBitTrie::Span MultiBitTrie::covered_span(ruleset::SegmentPrefix p,
                                              usize level) const {
  const unsigned prev = level == 0 ? 0 : cum_[level - 1];
  const unsigned span_bits = cum_[level] - std::max<unsigned>(p.length, prev);
  const u32 base = entry_index(p.value, level);
  // Host bits of p.value are zero, so base already has zeros in the
  // expanded positions.
  return Span{base, base + (u32{1} << span_bits) - 1};
}

i64 MultiBitTrie::alloc_node(usize level, i64 parent, u32 parent_entry,
                             hw::CommandLog& log) {
  i64 id;
  if (!free_ids_[level].empty()) {
    id = free_ids_[level].back();
    free_ids_[level].pop_back();
  } else {
    if (pool_[level].size() >= cfg_.level_capacity[level]) {
      throw CapacityError("MultiBitTrie '" + mem_[level]->name() +
                          "': node pool exhausted at level " +
                          std::to_string(level));
    }
    id = static_cast<i64>(pool_[level].size());
    pool_[level].emplace_back();
  }
  SwNode& n = pool_[level][static_cast<usize>(id)];
  n = SwNode{};
  n.entries.resize(usize{1} << cfg_.strides[level]);
  n.parent = parent;
  n.parent_entry = parent_entry;
  n.live = true;

  // New entries cover nothing of their own: each caches the parent
  // entry's list but stores the null pointer and inherits it through the
  // lookup's deepest-pointer fallback. Their words are all zero, which a
  // clean slot already holds; only a dirty slot needs them written.
  const std::vector<Label>& inherited =
      pool_[level - 1][static_cast<usize>(parent)].entries[parent_entry].list;
  for (SwEntry& entry : n.entries) {
    entry.list = inherited;
  }
  if (dirty_[level][static_cast<usize>(id)]) {
    for (u32 e = 0; e < n.entries.size(); ++e) {
      write_entry(level, id, e, log);
    }
    dirty_[level][static_cast<usize>(id)] = false;
  }
  return id;
}

void MultiBitTrie::free_node(usize level, i64 id) {
  SwNode& n = pool_[level][static_cast<usize>(id)];
  for (SwEntry& e : n.entries) {
    if (e.child >= 0 || !e.ref.empty()) {
      // The slot's device words stay as they are: the next alloc_node
      // of this slot must overwrite them.
      dirty_[level][static_cast<usize>(id)] = true;
    }
    lists_.release(e.ref);
  }
  n = SwNode{};
  free_ids_[level].push_back(static_cast<u32>(id));
}

void MultiBitTrie::write_entry(usize level, i64 node, u32 entry,
                               hw::CommandLog& log) {
  const SwNode& n = pool_[level][static_cast<usize>(node)];
  const SwEntry& e = n.entries[entry];
  const u32 addr =
      static_cast<u32>(node) * (u32{1} << cfg_.strides[level]) + entry;
  log.memory_write(*mem_[level], addr,
                   encode_entry(e.child >= 0,
                                e.child >= 0 ? static_cast<u64>(e.child) : 0,
                                e.ref.addr));
}

i64 MultiBitTrie::walk_to_anchor(ruleset::SegmentPrefix p, bool create,
                                 hw::CommandLog& log) {
  const usize target = anchor_level(p.length);
  i64 node = 0;
  for (usize k = 0; k < target; ++k) {
    const u32 idx = entry_index(p.value, k);
    SwEntry& e = pool_[k][static_cast<usize>(node)].entries[idx];
    if (e.child < 0) {
      if (!create) {
        throw InternalError("MultiBitTrie: path missing for known prefix");
      }
      e.child = alloc_node(k + 1, node, idx, log);
      write_entry(k, node, idx, log);
      // Re-fetch: alloc_node may have grown the pool vector.
    }
    node = pool_[k][static_cast<usize>(node)].entries[idx].child;
  }
  return node;
}

std::vector<Label> MultiBitTrie::inherited_of(usize level, i64 node) const {
  const SwNode& n = pool_[level][static_cast<usize>(node)];
  if (n.parent < 0) {
    return {};
  }
  return pool_[level - 1][static_cast<usize>(n.parent)]
      .entries[n.parent_entry]
      .list;
}

std::vector<Label> MultiBitTrie::compose_list(
    const SwNode& node, usize level, u32 entry,
    const std::vector<Label>& inherited) const {
  std::vector<Label> out = inherited;
  for (const auto& [q, l] : node.anchored) {
    const Span s = covered_span(q, level);
    if (entry >= s.lo && entry <= s.hi) {
      out.push_back(l);
    }
  }
  std::sort(out.begin(), out.end(), [&](Label a, Label b) {
    const Priority pa = prio_of_(a), pb = prio_of_(b);
    return pa != pb ? pa < pb : a.value < b.value;
  });
  return out;
}

void MultiBitTrie::recompute_entry(usize level, i64 node, u32 entry,
                                   const std::vector<Label>& inherited,
                                   hw::CommandLog& log, bool force) {
  SwNode& n = pool_[level][static_cast<usize>(node)];
  std::vector<Label> fresh = compose_list(n, level, entry, inherited);
  SwEntry& e = n.entries[entry];
  const bool changed = fresh != e.list;
  if (!changed && !force) {
    return;  // nothing below can have changed either (same inherited base)
  }
  if (changed) {
    // Only an entry with its own anchored coverage stores a pointer;
    // the others inherit the same list through the lookup fallback.
    const ListRef new_ref = fresh.size() > inherited.size()
                                ? lists_.acquire(fresh, log)
                                : ListRef{};
    lists_.release(e.ref);
    const bool moved = new_ref != e.ref;
    e.ref = new_ref;
    e.list = std::move(fresh);
    if (moved) {
      write_entry(level, node, entry, log);
    }
  }
  if (e.child >= 0) {
    const i64 child = e.child;
    const usize child_entries = usize{1} << cfg_.strides[level + 1];
    for (u32 ce = 0; ce < child_entries; ++ce) {
      recompute_entry(level + 1, child, ce, e.list, log, force);
    }
  }
}

void MultiBitTrie::recompute_span(ruleset::SegmentPrefix p,
                                  hw::CommandLog& log, bool force) {
  const auto it = prefix_anchor_.find(p);
  if (it == prefix_anchor_.end()) {
    throw InternalError("MultiBitTrie: recompute of unknown prefix");
  }
  const auto [level, node] = it->second;
  const Span s = covered_span(p, level);
  const std::vector<Label> inherited = inherited_of(level, node);
  for (u32 e = s.lo; e <= s.hi; ++e) {
    recompute_entry(level, node, e, inherited, log, force);
  }
}

void MultiBitTrie::insert(ruleset::SegmentPrefix p, Label label,
                          hw::CommandLog& log) {
  if (prefix_anchor_.contains(p)) {
    throw InternalError("MultiBitTrie: duplicate prefix insert");
  }
  const usize level = anchor_level(p.length);
  const i64 node = walk_to_anchor(p, /*create=*/true, log);
  pool_[level][static_cast<usize>(node)].anchored.emplace(p, label);
  prefix_anchor_.emplace(p, std::make_pair(level, node));
  recompute_span(p, log, /*force=*/false);
}

void MultiBitTrie::remove(ruleset::SegmentPrefix p, hw::CommandLog& log) {
  const auto it = prefix_anchor_.find(p);
  if (it == prefix_anchor_.end()) {
    throw InternalError("MultiBitTrie: remove of unknown prefix");
  }
  const auto [level, node] = it->second;
  SwNode& n = pool_[level][static_cast<usize>(node)];
  n.anchored.erase(p);
  // Recompute while the anchor entry still exists, then drop bookkeeping.
  const Span s = covered_span(p, level);
  const std::vector<Label> inherited = inherited_of(level, node);
  for (u32 e = s.lo; e <= s.hi; ++e) {
    recompute_entry(level, node, e, inherited, log, /*force=*/false);
  }
  prefix_anchor_.erase(it);
  prune_upwards(level, node, log);
}

void MultiBitTrie::refresh(ruleset::SegmentPrefix p, hw::CommandLog& log) {
  // A priority change can reorder lists anywhere under the anchor span
  // even when intermediate lists look unchanged -> forced descent.
  recompute_span(p, log, /*force=*/true);
}

void MultiBitTrie::prune_upwards(usize level, i64 node,
                                 hw::CommandLog& log) {
  while (level > 0) {
    SwNode& n = pool_[level][static_cast<usize>(node)];
    if (!n.anchored.empty()) {
      return;
    }
    for (const SwEntry& e : n.entries) {
      if (e.child >= 0) {
        return;
      }
    }
    const i64 parent = n.parent;
    const u32 parent_entry = n.parent_entry;
    free_node(level, node);
    SwEntry& pe =
        pool_[level - 1][static_cast<usize>(parent)].entries[parent_entry];
    pe.child = -1;
    write_entry(level - 1, parent, parent_entry, log);
    --level;
    node = parent;
  }
}

void MultiBitTrie::clear(hw::CommandLog& log) {
  // Free everything below the root (free_node marks the slots dirty: their
  // words are not wiped), then reset the root entries.
  for (usize k = 1; k < pool_.size(); ++k) {
    for (usize id = 0; id < pool_[k].size(); ++id) {
      if (pool_[k][id].live) {
        free_node(k, static_cast<i64>(id));
      }
    }
    pool_[k].clear();
    free_ids_[k].clear();
  }
  SwNode& root = pool_[0][0];
  root.anchored.clear();
  for (u32 e = 0; e < root.entries.size(); ++e) {
    lists_.release(root.entries[e].ref);
    root.entries[e] = SwEntry{};
    write_entry(0, 0, e, log);
  }
  prefix_anchor_.clear();
}

ListRef MultiBitTrie::lookup(u16 key, hw::CycleRecorder* rec) const {
  u64 node = 0;
  u64 result = ListRef::kNull;
  for (usize k = 0; k < cfg_.strides.size(); ++k) {
    const u32 addr = static_cast<u32>(node) * (u32{1} << cfg_.strides[k]) +
                     entry_index(key, k);
    const hw::Word w = mem_[k]->read(addr, rec);
    hw::WordUnpacker u(w);
    const u64 child_valid = u.pull(1);
    const u64 child = u.pull(kChildBits);
    const u64 list_addr = u.pull(kAddrBits);
    if (list_addr != ListRef::kNull) {
      result = list_addr;
    }
    if (child_valid == 0) {
      break;
    }
    node = child;
  }
  return ListRef{static_cast<u32>(result)};
}

void MultiBitTrie::lookup_batch_into(std::span<const BatchKey> sorted,
                                     std::span<ListRef> refs,
                                     std::span<hw::CycleRecorder> recs) const {
  // Path cache of the previous distinct key's walk: the decoded entry
  // word at each visited level. Two sorted neighbours agree on levels
  // 0..d-1 exactly when their top cum_[d-1] bits agree, so the cached
  // words stay valid for the shared prefix of the next walk.
  struct LevelVisit {
    u64 list_addr = ListRef::kNull;
    bool child_valid = false;
    u64 child = 0;
  };
  constexpr usize kMaxLevels = 16;  // strides sum to 16, >= 1 bit each
  std::array<LevelVisit, kMaxLevels> path{};
  usize cached_depth = 0;  // levels of `path` that are valid
  u16 cached_key = 0;
  const usize levels = cfg_.strides.size();

  for (const BatchKey& lane : sorted) {
    const u16 key = static_cast<u16>(lane.key);
    hw::CycleRecorder& rec = recs[lane.slot];
    u64 node = 0;
    u64 result = ListRef::kNull;
    usize k = 0;
    bool terminated = false;
    // 1. Reuse the shared prefix of the previous walk (host-free; the
    //    modeled per-level fetch is still charged per packet).
    for (; k < cached_depth && entry_index(key, k) == entry_index(cached_key, k);
         ++k) {
      rec.charge(mem_[k]->read_cycles(), 1);
      const LevelVisit& v = path[k];
      if (v.list_addr != ListRef::kNull) result = v.list_addr;
      if (!v.child_valid) {
        terminated = true;
        ++k;
        break;
      }
      node = v.child;
    }
    // 2. Continue with real reads from the divergence level, refreshing
    //    the path cache from there down.
    if (!terminated) {
      for (; k < levels; ++k) {
        const u32 addr = static_cast<u32>(node) *
                             (u32{1} << cfg_.strides[k]) +
                         entry_index(key, k);
        hw::WordUnpacker u(mem_[k]->read(addr, &rec));
        LevelVisit v;
        v.child_valid = u.pull(1) != 0;
        v.child = u.pull(kChildBits);
        v.list_addr = u.pull(kAddrBits);
        path[k] = v;
        if (v.list_addr != ListRef::kNull) result = v.list_addr;
        if (!v.child_valid) {
          ++k;
          break;
        }
        node = v.child;
      }
      cached_depth = k;
      cached_key = key;
    }
    refs[lane.slot] = ListRef{static_cast<u32>(result)};
  }
}

u64 MultiBitTrie::live_node_bits() const {
  u64 bits = 0;
  for (usize k = 0; k < pool_.size(); ++k) {
    const u64 live = static_cast<u64>(node_count(k));
    bits += live * (u64{1} << cfg_.strides[k]) * level_word_bits(k);
  }
  return bits;
}

u64 MultiBitTrie::capacity_bits() const {
  u64 bits = 0;
  for (const hw::Memory* m : mem_) {
    bits += m->capacity_bits();
  }
  return bits;
}

usize MultiBitTrie::node_count(usize level) const {
  usize live = 0;
  for (const SwNode& n : pool_[level]) {
    if (n.live) ++live;
  }
  return live;
}

}  // namespace pclass::alg
