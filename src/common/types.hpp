/// \file types.hpp
/// Fixed-width integer aliases and strong identifier types shared by every
/// pclass subsystem.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

namespace pclass {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i32 = std::int32_t;
using i64 = std::int64_t;
using usize = std::size_t;

/// Rule priority. Smaller value = higher priority (ACL order: the first
/// matching rule in the filter file wins). This matches the paper's
/// Highest Priority Matching Rule (HPMR) semantics.
using Priority = u32;

/// Sentinel priority used for "no match".
inline constexpr Priority kNoPriority = std::numeric_limits<Priority>::max();

/// Device-resident priority bound of a port or protocol label: the best
/// priority of any installed rule holding the label, in the 16-bit
/// field its register or LUT word carries. Every such rule has priority
/// >= the bound; 0 is the loosest bound (prunes nothing).
using PriorityBound = u16;
inline constexpr unsigned kPriorityBoundBits = 16;

/// The bound field's value for best priority \p p. Saturates, which
/// keeps it a valid lower bound for priorities beyond 16 bits.
[[nodiscard]] constexpr PriorityBound to_bound(Priority p) {
  return p > std::numeric_limits<PriorityBound>::max()
             ? std::numeric_limits<PriorityBound>::max()
             : static_cast<PriorityBound>(p);
}

/// Strongly-typed rule identifier. A RuleId is stable across incremental
/// updates (it is not an index into a vector that might be compacted).
struct RuleId {
  u32 value = kInvalid;

  static constexpr u32 kInvalid = std::numeric_limits<u32>::max();

  constexpr RuleId() = default;
  constexpr explicit RuleId(u32 v) : value(v) {}

  [[nodiscard]] constexpr bool valid() const { return value != kInvalid; }

  friend constexpr auto operator<=>(RuleId, RuleId) = default;
};

/// The seven lookup dimensions of the architecture (Fig. 2). Each 32-bit IP
/// address is split into two independently-searched 16-bit segments
/// (§III.C "This architecture partitions the IP address field into two
/// 16-bit segments"), so the 5-tuple becomes 7 single-field lookups.
enum class Dimension : u8 {
  kSrcIpHi = 0,  ///< high 16 bits of the source IP address
  kSrcIpLo = 1,  ///< low 16 bits of the source IP address
  kDstIpHi = 2,  ///< high 16 bits of the destination IP address
  kDstIpLo = 3,  ///< low 16 bits of the destination IP address
  kSrcPort = 4,  ///< 16-bit source port
  kDstPort = 5,  ///< 16-bit destination port
  kProtocol = 6, ///< 8-bit IP protocol
};

inline constexpr usize kNumDimensions = 7;

/// All dimensions in canonical order, for range-for iteration.
inline constexpr Dimension kAllDimensions[kNumDimensions] = {
    Dimension::kSrcIpHi, Dimension::kSrcIpLo,  Dimension::kDstIpHi,
    Dimension::kDstIpLo, Dimension::kSrcPort,  Dimension::kDstPort,
    Dimension::kProtocol};

[[nodiscard]] constexpr usize index_of(Dimension d) {
  return static_cast<usize>(d);
}

[[nodiscard]] constexpr const char* to_string(Dimension d) {
  switch (d) {
    case Dimension::kSrcIpHi: return "src_ip_hi";
    case Dimension::kSrcIpLo: return "src_ip_lo";
    case Dimension::kDstIpHi: return "dst_ip_hi";
    case Dimension::kDstIpLo: return "dst_ip_lo";
    case Dimension::kSrcPort: return "src_port";
    case Dimension::kDstPort: return "dst_port";
    case Dimension::kProtocol: return "protocol";
  }
  return "?";
}

/// Label bit-widths per dimension family (§III.C.1: "The label sizes are
/// 13 bits, 7 bits and 2 bits for IP address, Port and Protocol fields").
inline constexpr unsigned kIpLabelBits = 13;
inline constexpr unsigned kPortLabelBits = 7;
inline constexpr unsigned kProtoLabelBits = 2;

/// Width of the merged phase-3 key: 4 IP-segment labels + 2 port labels +
/// 1 protocol label = 4*13 + 2*7 + 2 = 68 bits (§III.C.1 "merged in one
/// large data segment (68 bits)").
inline constexpr unsigned kMergedKeyBits =
    4 * kIpLabelBits + 2 * kPortLabelBits + kProtoLabelBits;
static_assert(kMergedKeyBits == 68);

[[nodiscard]] constexpr unsigned label_bits(Dimension d) {
  switch (d) {
    case Dimension::kSrcIpHi:
    case Dimension::kSrcIpLo:
    case Dimension::kDstIpHi:
    case Dimension::kDstIpLo: return kIpLabelBits;
    case Dimension::kSrcPort:
    case Dimension::kDstPort: return kPortLabelBits;
    case Dimension::kProtocol: return kProtoLabelBits;
  }
  return 0;
}

/// A per-dimension label: the small tag assigned to each *unique* rule
/// field value (the DCFL label method, §III.C). Labels are dense and
/// allocated by alg::LabelAllocator; width is checked against
/// label_bits(dimension) at allocation time.
struct Label {
  u16 value = kInvalid;

  static constexpr u16 kInvalid = std::numeric_limits<u16>::max();

  constexpr Label() = default;
  constexpr explicit Label(u16 v) : value(v) {}

  [[nodiscard]] constexpr bool valid() const { return value != kInvalid; }

  friend constexpr auto operator<=>(Label, Label) = default;
};

}  // namespace pclass

template <>
struct std::hash<pclass::RuleId> {
  std::size_t operator()(pclass::RuleId id) const noexcept {
    return std::hash<pclass::u32>{}(id.value);
  }
};

template <>
struct std::hash<pclass::Label> {
  std::size_t operator()(pclass::Label l) const noexcept {
    return std::hash<pclass::u16>{}(l.value);
  }
};
