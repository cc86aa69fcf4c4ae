/// \file label_list_store.hpp
/// The "Labels memory block" (§III.D): priority-ordered lists of labels,
/// stored one label per word with an end-of-list flag. Every per-field
/// algorithm resolves a search key to a *pointer* into this store
/// (§III.B phase 2: "The result from each algorithm is a pointer to a
/// list of matching labels").
///
/// Each word also carries the label's priority *bound*: to_bound of the
/// label's best priority when the list was written. A list is sorted by
/// priority, so its bounds ascend, and the phase-3 combine can cut the
/// rest of a list once a bound is worse than its best hit.
///
/// Storage is content-addressed with reference counting: identical lists
/// (common, because controlled prefix expansion places one prefix's list
/// on several sibling entries, and backends resolve the same covering
/// set at different places) are stored once. This is the label method's
/// memory saving made concrete. Content means the (label, bound) words,
/// so two lists with the same labels but different stored bounds are two
/// lists.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/update_bus.hpp"

namespace pclass::alg {

/// Pointer to a list in a LabelListStore. Address 0 is reserved as the
/// null (empty) list, so node encodings can use plain zero.
struct ListRef {
  static constexpr u32 kNull = 0;
  u32 addr = kNull;

  [[nodiscard]] constexpr bool empty() const { return addr == kNull; }
  friend constexpr auto operator<=>(ListRef, ListRef) = default;
};

/// Controller callback: the current best rule priority of a label.
using PrioOf = std::function<Priority(Label)>;

/// Content-addressed, ref-counted label-list memory.
///
/// Word layout (LSB first): label(label_bits) eol(1) bound(16).
class LabelListStore {
 public:
  /// \param label_bits  width of one label; the word is label_bits + 1
  ///                    (end-of-list flag) + 16 (bound).
  /// \param depth       words of backing memory.
  LabelListStore(std::string name, u32 depth, unsigned label_bits);

  /// Find-or-store \p list (must be non-empty, already in final order),
  /// each label's bound taken from \p prio_of, and take one reference.
  /// New lists are uploaded through \p log.
  /// \throws CapacityError when the memory cannot hold the list.
  [[nodiscard]] ListRef acquire(const std::vector<Label>& list,
                                const PrioOf& prio_of, hw::CommandLog& log);

  /// Point a holder of \p held at \p list instead, under the lazy bound
  /// rule: \p held is kept when it stores exactly \p list's labels and
  /// none of its bounds is above the label's current one (a stale-low
  /// bound is still a valid lower bound, and still ascends, because it
  /// is a sorted snapshot). Otherwise the list is acquired with current
  /// bounds and \p held released. An empty \p list releases \p held and
  /// returns the null list.
  [[nodiscard]] ListRef repoint(ListRef held, const std::vector<Label>& list,
                                const PrioOf& prio_of, hw::CommandLog& log);

  /// Drop one reference to the list at \p ref; frees the block when the
  /// count reaches zero (no device writes needed — stale words are
  /// unreachable once no node points at them).
  void release(ListRef ref);

  /// Hardware path: read only the first (highest-priority) label —
  /// one memory access, the §V.B "one more cycle" of the lookup.
  [[nodiscard]] Label read_first(ListRef ref, hw::CycleRecorder* rec) const;

  /// Hardware path: walk the list until the end flag (CrossProduct
  /// combining and the DCFL baseline need the full list).
  [[nodiscard]] std::vector<Label> read_list(ListRef ref,
                                             hw::CycleRecorder* rec) const;

  /// Allocation-free list walk: appends the labels, and the bound stored
  /// beside each, into caller-owned scratch (the classifier's
  /// per-lookup hot path — see common/small_vec.hpp). A null recorder
  /// is an uncounted controller peek.
  void read_bounded_into(ListRef ref, hw::CycleRecorder* rec,
                         LabelVec& labels, BoundVec& bounds) const;

  [[nodiscard]] const hw::Memory& memory() const { return mem_; }
  [[nodiscard]] unsigned label_bits() const { return label_bits_; }

  /// Words currently holding live (referenced) lists.
  [[nodiscard]] u64 live_words() const { return live_words_; }
  [[nodiscard]] u64 live_bits() const {
    return live_words_ * mem_.word_bits();
  }
  [[nodiscard]] usize distinct_lists() const { return live_lists_; }

  /// Every live list, in no particular order (controller peek).
  [[nodiscard]] std::vector<ListRef> live_lists() const;

  /// Sum of references across all live lists.
  [[nodiscard]] u64 total_references() const;

  /// Words a non-content-addressed store would hold (every reference its
  /// own copy) — the denominator of the dedup factor.
  [[nodiscard]] u64 replicated_words() const;

 private:
  /// One live list in the hash index; addr kNull marks an empty slot.
  struct Record {
    u32 addr = ListRef::kNull;
    u32 len = 0;
    u32 refcount = 0;
    u32 hash = 0;
  };

  u32 allocate(u32 len);
  void free_block(u32 addr, u32 len);
  /// The index slot of the list whose packed (label, bound) words are
  /// \p key with hash \p hash, or of the first empty slot on its chain.
  [[nodiscard]] usize find_slot(const std::vector<u32>& key, u32 hash) const;
  /// Packed (label, bound) word at \p addr (controller peek).
  [[nodiscard]] u32 packed_at(u32 addr) const;
  /// Packed (label, bound) words of the list at \p addr.
  void words_at(u32 addr, std::vector<u32>& out) const;
  void grow_index();

  hw::Memory mem_;
  unsigned label_bits_;
  /// Open-addressed (linear probing) index of the live lists, keyed by
  /// their packed words; a power of two, at most half full. The words
  /// themselves are read back from mem_.
  std::vector<Record> index_;
  std::map<u32, u32> free_blocks_;  // addr -> len (coalesced)
  std::vector<u32> key_;            // scratch: packed words of one list
  u32 bump_ = 1;  // address 0 reserved for the null list
  usize live_lists_ = 0;
  u64 live_words_ = 0;
};

}  // namespace pclass::alg
