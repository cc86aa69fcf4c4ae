/// \file rule_filter.hpp
/// The hashed memories of phases 3 and 4.
///
/// The Rule Filter memory block (§III.D, §IV.A): rules are stored at the
/// address produced by the hardware hash of their 68-bit merged label key
/// ("The final address to store each rule in the Rule Filter block is
/// performed using a hash function implemented in hardware"). The
/// partial-combination filter in front of it holds one entry per label
/// prefix that some rule holds, so the phase-3 combine can skip label
/// tuples no rule holds.
///
/// Both are a ProbeTable: collisions are resolved by linear probing; the
/// stored key is compared on lookup (the hardware's match confirm), so a
/// probe either returns the unique entry owning that key or reports a
/// miss. Deletions leave tombstones to keep probe chains intact; the
/// controller rebuilds a table under a fresh seed when its probe bound
/// is hit.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/key68.hpp"
#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/update_bus.hpp"

namespace pclass::core {

/// What the filter returns on a hit.
struct RuleEntry {
  RuleId rule;
  Priority priority = kNoPriority;
  u32 action = 0;

  friend constexpr auto operator<=>(const RuleEntry&,
                                    const RuleEntry&) = default;
};

/// A hashed table in one block memory, keyed by up to 68 bits and
/// storing a fixed-width value: the one implementation behind the Rule
/// Filter and the partial-combination filter.
///
/// Collisions are resolved by linear probing from the hashed home slot
/// (at most \p max_probes slots); the stored key is compared on lookup,
/// so a lookup either returns the unique value stored under the key or
/// reports a miss. Deletions leave tombstones so probe chains stay
/// intact; reseed() rebuilds the table under a fresh hash seed.
///
/// Word layout (LSB first): valid(1) tomb(1) key(key_bits)
/// value(value_bits). A word wider than one update-bus beat is uploaded
/// in two beats, the first with the valid bit clear, so a concurrent
/// lookup never sees a half-written entry.
class ProbeTable {
 public:
  /// Width of one pin-limited update-bus beat.
  static constexpr unsigned kBusBeatBits = 64;

  /// \throws ConfigError unless max_probes is in [1, depth], key_bits
  /// is in [1, 68] and value_bits in [1, 64].
  ProbeTable(const std::string& name, u32 depth, u32 max_probes,
             u64 hash_seed, unsigned key_bits, unsigned value_bits);

  /// Store \p value under \p key (the caller logs the hash compute).
  /// \throws CapacityError when the table is full or the probe bound
  /// is hit; InternalError on a duplicate key.
  void insert(const Key68& key, u64 value, hw::CommandLog& log);

  /// insert(), re-seeding and retrying when the probe bound is hit (the
  /// controller-side recovery §IV.A implies): successive salted seeds,
  /// at most 16 over the table's lifetime, each full re-upload metered
  /// through \p log.
  /// \throws CapacityError when the table is genuinely full or the
  /// re-seed budget is spent.
  void insert_reseeding(const Key68& key, u64 value, hw::CommandLog& log);

  /// Tombstone the entry under \p key. The controller knows the slot,
  /// so no hash is logged.
  /// \throws InternalError if the key is not present.
  void remove(const Key68& key, hw::CommandLog& log);

  /// Rewrite the value stored under \p key in place (the caller logs
  /// the hash compute).
  /// \throws InternalError if the key is not present.
  void modify(const Key68& key, u64 value, hw::CommandLog& log);

  /// Rebuild under \p new_seed: every live entry is re-hashed and
  /// re-uploaded (one hash compute each), tombstones are discarded.
  /// All-or-nothing: on CapacityError the old layout is restored and
  /// the error rethrown.
  void reseed(u64 new_seed, hw::CommandLog& log);

  void clear(hw::CommandLog& log);

  /// Look \p key up. Cycle-charging contract: one hash-unit cycle, then
  /// one memory read (1 cycle + 1 access) per slot walked, charged into
  /// \p rec (nullptr = an uncounted controller-side peek). The cost is
  /// deterministic while the table is unchanged.
  [[nodiscard]] std::optional<u64> lookup(const Key68& key,
                                          hw::CycleRecorder* rec) const;

  [[nodiscard]] const hw::Memory& memory() const { return mem_; }
  [[nodiscard]] u64 seed() const { return hasher_.seed(); }
  [[nodiscard]] u32 size() const { return live_; }
  [[nodiscard]] u32 tombstones() const { return tombstones_; }
  [[nodiscard]] double load_factor() const {
    return static_cast<double>(live_ + tombstones_) /
           static_cast<double>(mem_.depth());
  }

 private:
  struct Slot {
    bool valid = false;
    bool tombstone = false;
    Key68 key{};
    u64 value = 0;
  };

  static constexpr u32 kMaxReseeds = 16;

  /// The slot holding \p key, walking its probe chain (uncounted).
  [[nodiscard]] std::optional<u32> find(const Key68& key) const;
  [[nodiscard]] Slot decode(u32 addr, hw::CycleRecorder* rec) const;
  void encode(u32 addr, const Slot& s, hw::CommandLog& log);
  /// The next slot of a probe chain, wrapping at the table's end.
  [[nodiscard]] u32 next(u32 addr) const {
    return addr + 1 == mem_.depth() ? 0 : addr + 1;
  }

  hw::Memory mem_;
  Key68Hasher hasher_;
  u32 max_probes_;
  u64 last_candidate_;  ///< the last seed insert_reseeding() tried
  unsigned key_bits_;
  unsigned value_bits_;
  u32 reseed_attempts_ = 0;
  u32 live_ = 0;
  u32 tombstones_ = 0;
};

/// Hashed rule memory.
class RuleFilter {
 public:
  /// \param depth       bucket count.
  /// \param max_probes  linear-probe bound; insert throws CapacityError
  ///                    beyond it (the controller re-seeds or resizes).
  RuleFilter(const std::string& name, u32 depth, u32 max_probes,
             u64 hash_seed);

  // ---- controller-side update path ----

  /// Store \p entry under \p key. A rule upload is the paper's §V.A cost:
  /// the caller logs one hash compute, and the entry occupies one word
  /// (written in two pin-limited halves — two commands — matching "one
  /// cycle to store source information and one clock cycle to store
  /// destination information").
  /// \throws CapacityError when the probe bound or load limit is hit.
  /// \throws InternalError on duplicate key (rule dedup is upstream).
  void insert(const Key68& key, const RuleEntry& entry, hw::CommandLog& log);

  /// insert(), re-seeding on a probe-bound CapacityError
  /// (ProbeTable::insert_reseeding).
  void insert_reseeding(const Key68& key, const RuleEntry& entry,
                        hw::CommandLog& log);

  /// Remove the entry stored under \p key (tombstoned).
  void remove(const Key68& key, hw::CommandLog& log) {
    table_.remove(key, log);
  }

  /// Rewrite the entry stored under \p key in place (OpenFlow MODIFY:
  /// same match, new action/priority). Costs one hash (logged by the
  /// caller) plus the two-beat word rewrite — as cheap as an insert.
  /// \throws InternalError if the key is not present.
  void modify(const Key68& key, const RuleEntry& entry, hw::CommandLog& log);

  /// Rebuild the table under a fresh hash seed (the controller's answer
  /// to a probe-bound CapacityError): every live entry is re-hashed and
  /// re-uploaded; tombstones are discarded. Cost = the full re-upload,
  /// metered through \p log.
  /// \throws CapacityError if the new seed also fails (caller re-seeds
  /// again or resizes).
  void reseed(u64 new_seed, hw::CommandLog& log) {
    table_.reseed(new_seed, log);
  }

  void clear(hw::CommandLog& log) { table_.clear(log); }

  // ---- hardware-side lookup path ----

  /// Probe for \p key, charged per ProbeTable::lookup's contract. The
  /// cost of probing a given key is deterministic while the table is
  /// unchanged.
  [[nodiscard]] std::optional<RuleEntry> lookup(const Key68& key,
                                                hw::CycleRecorder* rec) const;

  // ---- introspection ----

  [[nodiscard]] const ProbeTable& table() const { return table_; }
  [[nodiscard]] const hw::Memory& memory() const { return table_.memory(); }
  [[nodiscard]] u32 size() const { return table_.size(); }
  [[nodiscard]] u32 tombstones() const { return table_.tombstones(); }
  [[nodiscard]] double load_factor() const { return table_.load_factor(); }

  /// Word layout width: valid(1) tomb(1) key(68) rule(16) prio(16)
  /// action(16) = 118 bits.
  static constexpr unsigned kWordBits = 1 + 1 + 68 + 16 + 16 + 16;

 private:
  ProbeTable table_;
};

/// The partial-combination filter of the phase-3 combine (DCFL-style
/// aggregation, Taylor & Turner): one entry per label prefix
/// (src_port, dst_port, protocol, src_ip_hi) that some installed rule
/// holds, storing the prefix's bound — the best priority of any rule
/// under it (PriorityBound, saturating). A miss proves no rule holds
/// the partial tuple; a hit bounds every rule under it.
///
/// Update costs: a new prefix is one hash + one write, a changed bound
/// one hash + one write, the last rule leaving a prefix one tombstone
/// write. The 47-bit word fits one bus beat.
class PartialFilter {
 public:
  /// Key width: 7 + 7 + 2 + 13 label bits.
  static constexpr unsigned kKeyBits =
      2 * kPortLabelBits + kProtoLabelBits + kIpLabelBits;
  /// Word layout width: valid(1) tomb(1) key(29) bound(16) = 47 bits.
  static constexpr unsigned kWordBits = 1 + 1 + kKeyBits + kPriorityBoundBits;

  PartialFilter(const std::string& name, u32 depth, u32 max_probes,
                u64 hash_seed)
      : table_(name, depth, max_probes, hash_seed, kKeyBits,
               kPriorityBoundBits) {}

  /// The filter key of a label prefix.
  [[nodiscard]] static constexpr u32 key_of(Label sport, Label dport,
                                            Label proto, Label src_ip_hi) {
    return (((((u32{sport.value} << kPortLabelBits) | dport.value)
              << kProtoLabelBits) |
             proto.value)
            << kIpLabelBits) |
           src_ip_hi.value;
  }

  /// The filter key of a merged rule key: its port and protocol labels
  /// (Key68 bits [15:0]) and its src_ip_hi label (bits [67:55]).
  [[nodiscard]] static constexpr u32 key_of(const Key68& k) {
    const u64 ports_proto = k.lo64() & mask_low(16);
    const u64 src_ip_hi = (u64{k.hi4()} << 9) | (k.lo64() >> 55);
    return static_cast<u32>((ports_proto << kIpLabelBits) | src_ip_hi);
  }

  // ---- controller-side update path (the caller logs hash computes) ----

  /// Program a new entry (ProbeTable::insert_reseeding).
  void insert(u32 key, PriorityBound bound, hw::CommandLog& log) {
    table_.insert_reseeding(Key68{0, key}, bound, log);
  }
  void set_bound(u32 key, PriorityBound bound, hw::CommandLog& log) {
    table_.modify(Key68{0, key}, bound, log);
  }
  void remove(u32 key, hw::CommandLog& log) {
    table_.remove(Key68{0, key}, log);
  }

  // ---- hardware-side lookup path ----

  /// Check \p key: its bound, or nullopt when no rule holds the prefix.
  /// Charged like a Rule Filter probe (ProbeTable::lookup).
  [[nodiscard]] std::optional<PriorityBound> check(
      u32 key, hw::CycleRecorder* rec) const {
    const std::optional<u64> v = table_.lookup(Key68{0, key}, rec);
    if (!v) return std::nullopt;
    return static_cast<PriorityBound>(*v);
  }

  // ---- introspection ----

  [[nodiscard]] const ProbeTable& table() const { return table_; }
  [[nodiscard]] const hw::Memory& memory() const { return table_.memory(); }
  [[nodiscard]] u32 size() const { return table_.size(); }

 private:
  ProbeTable table_;
};

}  // namespace pclass::core
