#include "alg/label_list_store.hpp"

#include "common/hash.hpp"

namespace pclass::alg {

namespace {

constexpr usize kInitialIndexSlots = 16;

/// One list element as the index keys it: label, then its bound.
u32 pack(u16 label, PriorityBound bound) {
  return u32{label} | (u32{bound} << 16);
}

u32 hash_of(const std::vector<u32>& key) {
  u64 h = key.size();
  for (const u32 w : key) {
    h = mix64(h ^ w);
  }
  return static_cast<u32>(h);
}

}  // namespace

LabelListStore::LabelListStore(std::string name, u32 depth,
                               unsigned label_bits)
    : mem_(std::move(name), depth, label_bits + 1 + kPriorityBoundBits),
      label_bits_(label_bits),
      index_(kInitialIndexSlots) {
  if (label_bits == 0 || label_bits > 16) {
    throw ConfigError("LabelListStore: label_bits must be in [1, 16]");
  }
  if (depth < 2) {
    throw ConfigError("LabelListStore: depth must be >= 2");
  }
}

u32 LabelListStore::allocate(u32 len) {
  // First fit over the coalesced free map; fall back to the bump pointer.
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    if (it->second >= len) {
      const u32 addr = it->first;
      const u32 block_len = it->second;
      free_blocks_.erase(it);
      if (block_len > len) {
        free_blocks_.emplace(addr + len, block_len - len);
      }
      return addr;
    }
  }
  if (u64{bump_} + len > mem_.depth()) {
    throw CapacityError("LabelListStore '" + mem_.name() +
                        "': out of label memory (depth " +
                        std::to_string(mem_.depth()) + ")");
  }
  const u32 addr = bump_;
  bump_ += len;
  return addr;
}

void LabelListStore::free_block(u32 addr, u32 len) {
  auto [it, inserted] = free_blocks_.emplace(addr, len);
  if (!inserted) {
    throw InternalError("LabelListStore: double free");
  }
  // Coalesce with successor.
  if (auto next = std::next(it);
      next != free_blocks_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_blocks_.erase(next);
  }
  // Coalesce with predecessor.
  if (it != free_blocks_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_blocks_.erase(it);
      it = prev;
    }
  }
  // Shrink the bump pointer when the tail becomes free.
  if (it->first + it->second == bump_) {
    bump_ = it->first;
    free_blocks_.erase(it);
  }
}

u32 LabelListStore::packed_at(u32 addr) const {
  const hw::Word w = mem_.read(addr, nullptr);
  return pack(static_cast<u16>(w.get(0, label_bits_)),
              static_cast<PriorityBound>(
                  w.get(label_bits_ + 1, kPriorityBoundBits)));
}

void LabelListStore::words_at(u32 addr, std::vector<u32>& out) const {
  out.clear();
  for (; addr < mem_.depth(); ++addr) {
    out.push_back(packed_at(addr));
    if (mem_.read(addr, nullptr).get(label_bits_, 1) != 0) return;
  }
  throw InternalError("LabelListStore: list runs past the memory");
}

usize LabelListStore::find_slot(const std::vector<u32>& key, u32 hash) const {
  const usize mask = index_.size() - 1;
  for (usize slot = hash & mask;; slot = (slot + 1) & mask) {
    const Record& r = index_[slot];
    if (r.addr == ListRef::kNull) return slot;
    if (r.hash != hash || r.len != key.size()) continue;
    u32 i = 0;
    while (i < r.len && packed_at(r.addr + i) == key[i]) ++i;
    if (i == r.len) return slot;
  }
}

void LabelListStore::grow_index() {
  std::vector<Record> old(index_.size() * 2);
  old.swap(index_);
  const usize mask = index_.size() - 1;
  for (const Record& r : old) {
    if (r.addr == ListRef::kNull) continue;
    usize slot = r.hash & mask;
    while (index_[slot].addr != ListRef::kNull) slot = (slot + 1) & mask;
    index_[slot] = r;
  }
}

ListRef LabelListStore::acquire(const std::vector<Label>& list,
                                const PrioOf& prio_of, hw::CommandLog& log) {
  if (list.empty()) {
    throw ConfigError("LabelListStore: cannot store an empty list "
                      "(use ListRef::kNull)");
  }
  key_.clear();
  for (const Label l : list) {
    key_.push_back(pack(l.value, to_bound(prio_of(l))));
  }
  const u32 hash = hash_of(key_);
  usize slot = find_slot(key_, hash);
  if (index_[slot].addr != ListRef::kNull) {
    ++index_[slot].refcount;
    return ListRef{index_[slot].addr};
  }
  const auto len = static_cast<u32>(list.size());
  const u32 addr = allocate(len);
  for (u32 i = 0; i < len; ++i) {
    hw::WordPacker p;
    p.push(list[i].value, label_bits_);
    p.push(i + 1 == len ? 1 : 0, 1);  // end-of-list flag
    p.push(key_[i] >> 16, kPriorityBoundBits);
    log.memory_write(mem_, addr + i, p.word());
  }
  if (2 * (live_lists_ + 1) > index_.size()) {
    grow_index();
    slot = find_slot(key_, hash);
  }
  index_[slot] = Record{addr, len, 1, hash};
  ++live_lists_;
  live_words_ += len;
  return ListRef{addr};
}

ListRef LabelListStore::repoint(ListRef held, const std::vector<Label>& list,
                                const PrioOf& prio_of, hw::CommandLog& log) {
  if (list.empty()) {
    release(held);
    return ListRef{};
  }
  if (!held.empty()) {
    // The holder's list has list.size() words when its labels match:
    // a longer or shorter one differs in a label or the end flag first.
    bool serves = true;
    for (usize i = 0; i < list.size() && serves; ++i) {
      const hw::Word w = mem_.read(held.addr + static_cast<u32>(i), nullptr);
      serves = w.get(0, label_bits_) == list[i].value &&
               (w.get(label_bits_, 1) != 0) == (i + 1 == list.size()) &&
               w.get(label_bits_ + 1, kPriorityBoundBits) <=
                   to_bound(prio_of(list[i]));
    }
    if (serves) return held;
  }
  const ListRef fresh = acquire(list, prio_of, log);
  release(held);
  return fresh;
}

void LabelListStore::release(ListRef ref) {
  if (ref.empty()) {
    return;
  }
  // The list's record sits on the chain of its content's hash.
  words_at(ref.addr, key_);
  const usize mask = index_.size() - 1;
  usize slot = hash_of(key_) & mask;
  while (index_[slot].addr != ref.addr) {
    if (index_[slot].addr == ListRef::kNull) {
      throw InternalError("LabelListStore: release of unknown list");
    }
    slot = (slot + 1) & mask;
  }
  Record& rec = index_[slot];
  if (--rec.refcount > 0) {
    return;
  }
  const u32 len = rec.len;
  // Backward-shift deletion keeps every chain free of holes.
  for (usize next = (slot + 1) & mask; index_[next].addr != ListRef::kNull;
       next = (next + 1) & mask) {
    const usize home = index_[next].hash & mask;
    if (((next - home) & mask) >= ((next - slot) & mask)) {
      index_[slot] = index_[next];
      slot = next;
    }
  }
  index_[slot] = Record{};
  --live_lists_;
  free_block(ref.addr, len);
  live_words_ -= len;
}

std::vector<ListRef> LabelListStore::live_lists() const {
  std::vector<ListRef> out;
  out.reserve(live_lists_);
  for (const Record& r : index_) {
    if (r.addr != ListRef::kNull) out.push_back(ListRef{r.addr});
  }
  return out;
}

u64 LabelListStore::total_references() const {
  u64 refs = 0;
  for (const Record& r : index_) {
    refs += r.refcount;
  }
  return refs;
}

u64 LabelListStore::replicated_words() const {
  u64 words = 0;
  for (const Record& r : index_) {
    words += u64{r.refcount} * r.len;
  }
  return words;
}

Label LabelListStore::read_first(ListRef ref, hw::CycleRecorder* rec) const {
  if (ref.empty()) {
    return Label{};
  }
  const hw::Word w = mem_.read(ref.addr, rec);
  return Label{static_cast<u16>(w.get(0, label_bits_))};
}

std::vector<Label> LabelListStore::read_list(ListRef ref,
                                             hw::CycleRecorder* rec) const {
  LabelVec labels;
  BoundVec bounds;
  read_bounded_into(ref, rec, labels, bounds);
  return std::vector<Label>(labels.begin(), labels.end());
}

void LabelListStore::read_bounded_into(ListRef ref, hw::CycleRecorder* rec,
                                       LabelVec& labels,
                                       BoundVec& bounds) const {
  if (ref.empty()) {
    return;
  }
  u32 addr = ref.addr;
  while (true) {
    const hw::Word w = mem_.read(addr, rec);
    labels.push_back(Label{static_cast<u16>(w.get(0, label_bits_))});
    bounds.push_back(static_cast<PriorityBound>(
        w.get(label_bits_ + 1, kPriorityBoundBits)));
    if (w.get(label_bits_, 1) != 0) {
      break;
    }
    ++addr;
  }
}

}  // namespace pclass::alg
