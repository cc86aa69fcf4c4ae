/// \file port_registers.hpp
/// Register-based port-field lookup (§III.C, Table IV): each unique port
/// range lives in one register holding {low, high, label}; all registers
/// compare against the packet's port in parallel (2 cycles, no memory
/// accesses). Matching labels are produced in the paper's priority order:
/// the exact-matching label first, then range matches from tightest to
/// widest ("The priority of Port labels is given by exact matching label
/// following by the tightest range matching label") — Table IV's example
/// orders B (exact 7812), C ([7810,7820]), A (full range) for port 7812.
///
/// Each register also carries its label's priority bound (see
/// PriorityBound), which the exact phase-3 combine reads to prune label
/// combinations that cannot beat its best hit.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "hwsim/register_file.hpp"
#include "hwsim/update_bus.hpp"
#include "ruleset/rule.hpp"

namespace pclass::alg {

/// Geometry of a port register bank.
struct PortRegistersConfig {
  /// Register count; must cover the unique port values of the target
  /// filter sets (acl1 needs 108 + wildcard, so 128 is the natural size
  /// for 7-bit labels).
  u32 count = 128;
  unsigned compare_cycles = 2;  ///< §V.B: "labels in two clock cycles"
};

/// Port-dimension engine.
class PortRegisterFile {
 public:
  PortRegisterFile(const std::string& name, PortRegistersConfig cfg = {});

  PortRegisterFile(const PortRegisterFile&) = delete;
  PortRegisterFile& operator=(const PortRegisterFile&) = delete;

  // ---- controller-side update path ----

  /// Program one register with \p range -> \p label and its priority
  /// \p bound (one register write).
  /// \throws CapacityError when all registers are in use.
  void insert(ruleset::PortRange range, Label label, hw::CommandLog& log,
              PriorityBound bound = 0);

  /// Rewrite the bound of the register holding \p range (one register
  /// write).
  void set_bound(ruleset::PortRange range, PriorityBound bound,
                 hw::CommandLog& log);

  /// Clear the register holding \p range.
  void remove(ruleset::PortRange range, hw::CommandLog& log);

  void clear(hw::CommandLog& log);

  // ---- hardware-side lookup path ----

  /// All labels whose range contains \p port, ordered exact-first then
  /// ascending range width (Table IV order). Charges the fixed parallel
  /// compare cost; register reads are not memory accesses.
  [[nodiscard]] std::vector<Label> lookup(u16 port,
                                          hw::CycleRecorder* rec) const;

  /// The matching labels with their bounds, ordered by ascending bound
  /// (ties in Table IV order): the order the bounded phase-3 combine
  /// walks. Same cost as lookup().
  void lookup_bounded_into(u16 port, hw::CycleRecorder* rec, LabelVec& out,
                           BoundVec& bounds) const;

  /// First (highest-priority) matching label only — what the FirstLabel
  /// combiner consumes. Same cost as lookup(); no allocation.
  [[nodiscard]] Label lookup_first(u16 port, hw::CycleRecorder* rec) const;

  // ---- introspection ----

  [[nodiscard]] const hw::RegisterFile& registers() const { return regs_; }
  [[nodiscard]] usize range_count() const { return slot_of_.size(); }

 private:
  /// Register word layout (LSB first): valid(1) lo(16) hi(16) label(7)
  /// bound(16).
  static hw::Word encode(bool valid, ruleset::PortRange r, Label l,
                         PriorityBound bound);

  /// Call \p fn with the decoded range match of every valid register
  /// whose range contains \p port (the parallel compare).
  template <typename Fn>
  void for_each_match(u16 port, Fn&& fn) const;

  hw::RegisterFile regs_;
  std::map<ruleset::PortRange, u32> slot_of_;
  std::vector<u32> free_slots_;
  u32 next_slot_ = 0;
};

}  // namespace pclass::alg
