/// \file flow_mod.hpp
/// OpenFlow-like southbound messages (§III.A: "The rules generated at the
/// controller are pushed to the network devices by means of an open
/// protocol such as OpenFlow"). The subset modelled here is what the
/// paper's architecture consumes: flow add/delete with a 5-tuple match,
/// priority and action, plus the configuration message that drives the
/// IPalg_s algorithm-select line.
#pragma once

#include <optional>
#include <string>
#include <variant>

#include "common/types.hpp"
#include "core/config.hpp"
#include "ruleset/rule.hpp"

namespace pclass::sdn {

/// Forwarding actions of the data plane (§I: "packet forwarding,
/// modification, and redirection to a group table").
struct ActionSpec {
  enum class Kind : u8 { kDrop, kOutput, kGroup };
  Kind kind = Kind::kDrop;
  u16 arg = 0;  ///< port number or group id

  /// Pack into the classifier's 16-bit action token.
  [[nodiscard]] u32 encode() const {
    return (u32{static_cast<u8>(kind)} << 14) | (arg & 0x3FFFu);
  }
  [[nodiscard]] static ActionSpec decode(u32 token) {
    ActionSpec a;
    a.kind = static_cast<Kind>((token >> 14) & 0x3u);
    a.arg = static_cast<u16>(token & 0x3FFFu);
    return a;
  }

  [[nodiscard]] static ActionSpec drop() { return {Kind::kDrop, 0}; }
  [[nodiscard]] static ActionSpec output(u16 port) {
    return {Kind::kOutput, port};
  }
  [[nodiscard]] static ActionSpec group(u16 id) { return {Kind::kGroup, id}; }

  friend constexpr auto operator<=>(const ActionSpec&,
                                    const ActionSpec&) = default;
};

/// Flow add/modify/delete.
struct FlowMod {
  enum class Command : u8 { kAdd, kModify, kDelete };
  Command command = Command::kAdd;
  RuleId cookie{};         ///< rule identity (OpenFlow cookie)
  ruleset::Rule match{};   ///< match part + priority (kAdd only)
  ActionSpec action{};     ///< kAdd / kModify
};

/// Algorithm (re)configuration — the programmability knob of Fig. 2,
/// widened (PR 7) to carry any subset of the runtime-tunable knobs so
/// the control plane's `set` handler rides the same southbound path
/// (and replica replay) as rule updates. Absent fields leave the
/// device's current setting untouched; `ConfigMod{core::IpAlgorithm::
/// kBst}` means "drive IPalg_s to BST" (the former use_bst bool grew a
/// third value with the RVH backend).
struct ConfigMod {
  std::optional<core::IpAlgorithm> ip_algorithm;  ///< IPalg_s value
  /// Phase-2 execution-path policy (adaptive / forced).
  std::optional<core::PathPolicy> path_policy;
};

/// Device -> controller notification.
struct FlowRemoved {
  RuleId cookie{};
  std::string reason;
};

/// Southbound message.
using Message = std::variant<FlowMod, ConfigMod>;

}  // namespace pclass::sdn
