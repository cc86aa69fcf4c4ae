/// \file protocol_lut.hpp
/// Protocol-field lookup (§III.C: "a simple Look-Up Table is utilized for
/// Protocol. The protocol value addresses the table where the label is
/// contained"). A 256-word memory maps the protocol byte to its exact
/// label; the wildcard label (a rule with protocol ANY) lives in a single
/// side register so programming it costs one write, not 256.
///
/// List order (§III.C.1): "The priority label for Protocol lookup is
/// determined by the exact matching value" — exact label first, wildcard
/// second. Lookup is a single memory access (§V.B: "executed in a single
/// clock cycle").
///
/// Every LUT word and the wildcard register also carry their label's
/// priority bound (see PriorityBound) for the bounded phase-3 combine.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alg/batch_keys.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/register_file.hpp"
#include "hwsim/update_bus.hpp"
#include "ruleset/rule.hpp"

namespace pclass::alg {

/// Protocol-dimension engine.
class ProtocolLut {
 public:
  explicit ProtocolLut(const std::string& name);

  ProtocolLut(const ProtocolLut&) = delete;
  ProtocolLut& operator=(const ProtocolLut&) = delete;

  // ---- controller-side update path ----

  /// Program \p match -> \p label and its priority \p bound (one LUT
  /// word, or the wildcard register).
  void insert(ruleset::ProtoMatch match, Label label, hw::CommandLog& log,
              PriorityBound bound = 0);

  /// Rewrite the bound of the programmed \p match (one LUT word or
  /// wildcard register write).
  void set_bound(ruleset::ProtoMatch match, PriorityBound bound,
                 hw::CommandLog& log);

  void remove(ruleset::ProtoMatch match, hw::CommandLog& log);

  void clear(hw::CommandLog& log);

  // ---- hardware-side lookup path ----

  /// Matching labels for protocol byte \p proto: [exact?, wildcard?].
  [[nodiscard]] std::vector<Label> lookup(u8 proto,
                                          hw::CycleRecorder* rec) const;

  /// The matching labels with their bounds, ordered by ascending bound
  /// (ties: exact first) — the bounded combine's walk order. Same cost
  /// as lookup().
  void lookup_bounded_into(u8 proto, hw::CycleRecorder* rec, LabelVec& out,
                           BoundVec& bounds) const;

  [[nodiscard]] Label lookup_first(u8 proto, hw::CycleRecorder* rec) const;

  /// Phase-2 batch lookup over \p sorted lanes (ascending by key). The
  /// LUT word of each *distinct* protocol is fetched once and its
  /// lookup_bounded_into() labels pooled (bounds into \p bound_pool at
  /// the same offsets); every lane of the run shares its pool range and
  /// is charged the scalar cost (one LUT read; the wildcard register
  /// rides for free). Requires spans/recs to cover every slot.
  void lookup_batch_into(std::span<const BatchKey> sorted,
                         std::span<hw::CycleRecorder> recs,
                         std::vector<Label>& pool,
                         std::vector<PriorityBound>& bound_pool,
                         std::span<LabelSpan> spans) const;

  /// FirstLabel batch variant: pools only the winning label (exact
  /// else wildcard) per distinct protocol; empty span = no match.
  /// Same per-lane modeled cost as lookup_first (one LUT read).
  void lookup_first_batch_into(std::span<const BatchKey> sorted,
                               std::span<hw::CycleRecorder> recs,
                               std::vector<Label>& pool,
                               std::span<LabelSpan> spans) const;

  // ---- introspection ----

  [[nodiscard]] const hw::Memory& memory() const { return lut_; }
  [[nodiscard]] const hw::RegisterFile& wildcard_register() const {
    return wc_reg_;
  }

 private:
  hw::Memory lut_;
  hw::RegisterFile wc_reg_;
};

}  // namespace pclass::alg
