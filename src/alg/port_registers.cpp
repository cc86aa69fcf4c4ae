#include "alg/port_registers.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pclass::alg {

namespace {
constexpr unsigned kRegBits =
    1 + 16 + 16 + kPortLabelBits + kPriorityBoundBits;  // 56

/// One decoded matching register, ordered per Table IV: exact match
/// first, then tightest range, label value as a deterministic tiebreak.
struct PortMatch {
  u32 width;
  bool exact;
  Label label;
  PriorityBound bound;

  [[nodiscard]] bool before(const PortMatch& o) const {
    if (exact != o.exact) return exact;
    if (width != o.width) return width < o.width;
    return label.value < o.label.value;
  }
};
}  // namespace

PortRegisterFile::PortRegisterFile(const std::string& name,
                                   PortRegistersConfig cfg)
    : regs_(name, cfg.count, kRegBits, cfg.compare_cycles) {}

hw::Word PortRegisterFile::encode(bool valid, ruleset::PortRange r,
                                  Label l, PriorityBound bound) {
  hw::WordPacker p;
  p.push(valid ? 1 : 0, 1);
  p.push(r.lo, 16);
  p.push(r.hi, 16);
  p.push(valid ? l.value : 0, kPortLabelBits);
  p.push(valid ? bound : 0, kPriorityBoundBits);
  return p.word();
}

template <typename Fn>
void PortRegisterFile::for_each_match(u16 port, Fn&& fn) const {
  // Model of the parallel compare: decode every valid register word
  // (hardware does this combinationally).
  for (u32 i = 0; i < regs_.used_count(); ++i) {
    hw::WordUnpacker u(regs_.reg(i));
    if (u.pull(1) == 0) {
      continue;
    }
    const u16 lo = static_cast<u16>(u.pull(16));
    const u16 hi = static_cast<u16>(u.pull(16));
    const Label label{static_cast<u16>(u.pull(kPortLabelBits))};
    const auto bound = static_cast<PriorityBound>(u.pull(kPriorityBoundBits));
    if (lo <= port && port <= hi) {
      fn(PortMatch{u32{hi} - lo + 1, lo == hi, label, bound});
    }
  }
}

void PortRegisterFile::insert(ruleset::PortRange range, Label label,
                              hw::CommandLog& log, PriorityBound bound) {
  if (slot_of_.contains(range)) {
    throw InternalError("PortRegisterFile: duplicate range insert");
  }
  u32 slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (next_slot_ >= regs_.count()) {
      throw CapacityError("PortRegisterFile '" + regs_.name() +
                          "': all " + std::to_string(regs_.count()) +
                          " registers in use");
    }
    slot = next_slot_++;
  }
  slot_of_.emplace(range, slot);
  log.register_write(regs_, slot, encode(true, range, label, bound));
}

void PortRegisterFile::set_bound(ruleset::PortRange range,
                                 PriorityBound bound, hw::CommandLog& log) {
  const auto it = slot_of_.find(range);
  if (it == slot_of_.end()) {
    throw InternalError("PortRegisterFile: bound of unknown range");
  }
  hw::WordUnpacker u(regs_.reg(it->second));
  u.pull(1 + 16 + 16);
  const Label label{static_cast<u16>(u.pull(kPortLabelBits))};
  log.register_write(regs_, it->second, encode(true, range, label, bound));
}

void PortRegisterFile::remove(ruleset::PortRange range,
                              hw::CommandLog& log) {
  const auto it = slot_of_.find(range);
  if (it == slot_of_.end()) {
    throw InternalError("PortRegisterFile: remove of unknown range");
  }
  const u32 slot = it->second;
  slot_of_.erase(it);
  free_slots_.push_back(slot);
  log.register_write(regs_, slot, encode(false, {}, {}, 0));
}

void PortRegisterFile::clear(hw::CommandLog& log) {
  for (const auto& [range, slot] : slot_of_) {
    log.register_write(regs_, slot, encode(false, {}, {}, 0));
  }
  slot_of_.clear();
  free_slots_.clear();
  next_slot_ = 0;
}

std::vector<Label> PortRegisterFile::lookup(u16 port,
                                            hw::CycleRecorder* rec) const {
  if (rec != nullptr) {
    regs_.charge_lookup(*rec);
  }
  SmallVec<PortMatch, 16> matches;
  for_each_match(port, [&](const PortMatch& m) { matches.push_back(m); });
  std::sort(matches.begin(), matches.end(),
            [](const PortMatch& a, const PortMatch& b) {
              return a.before(b);
            });
  std::vector<Label> out;
  for (const PortMatch& m : matches) {
    out.push_back(m.label);
  }
  return out;
}

void PortRegisterFile::lookup_bounded_into(u16 port, hw::CycleRecorder* rec,
                                           LabelVec& out,
                                           BoundVec& bounds) const {
  if (rec != nullptr) {
    regs_.charge_lookup(*rec);
  }
  SmallVec<PortMatch, 16> matches;
  for_each_match(port, [&](const PortMatch& m) { matches.push_back(m); });
  std::sort(matches.begin(), matches.end(),
            [](const PortMatch& a, const PortMatch& b) {
              return a.bound != b.bound ? a.bound < b.bound : a.before(b);
            });
  for (const PortMatch& m : matches) {
    out.push_back(m.label);
    bounds.push_back(m.bound);
  }
}

void PortRegisterFile::lookup_batch_into(std::span<const BatchKey> sorted,
                                         std::span<hw::CycleRecorder> recs,
                                         std::vector<Label>& pool,
                                         std::vector<PriorityBound>& bound_pool,
                                         std::span<LabelSpan> spans) const {
  bool have_prev = false;
  u32 prev_key = 0;
  LabelSpan prev_span{};
  LabelVec scratch;
  BoundVec bound_scratch;
  for (const BatchKey& lane : sorted) {
    if (!have_prev || lane.key != prev_key) {
      scratch.clear();
      bound_scratch.clear();
      // Decode/sort the priority network once per distinct port; the
      // per-lane modeled cost is charged below.
      lookup_bounded_into(static_cast<u16>(lane.key), nullptr, scratch,
                          bound_scratch);
      prev_span.off = static_cast<u32>(pool.size());
      prev_span.len = static_cast<u32>(scratch.size());
      pool.insert(pool.end(), scratch.begin(), scratch.end());
      bound_pool.insert(bound_pool.end(), bound_scratch.begin(),
                        bound_scratch.end());
      prev_key = lane.key;
      have_prev = true;
    }
    regs_.charge_lookup(recs[lane.slot]);
    spans[lane.slot] = prev_span;
  }
}

void PortRegisterFile::lookup_first_batch_into(
    std::span<const BatchKey> sorted, std::span<hw::CycleRecorder> recs,
    std::vector<Label>& pool, std::span<LabelSpan> spans) const {
  bool have_prev = false;
  u32 prev_key = 0;
  LabelSpan prev_span{};
  for (const BatchKey& lane : sorted) {
    if (!have_prev || lane.key != prev_key) {
      const Label first = lookup_first(static_cast<u16>(lane.key), nullptr);
      prev_span.off = static_cast<u32>(pool.size());
      prev_span.len = first.valid() ? 1 : 0;
      if (first.valid()) pool.push_back(first);
      prev_key = lane.key;
      have_prev = true;
    }
    regs_.charge_lookup(recs[lane.slot]);
    spans[lane.slot] = prev_span;
  }
}

Label PortRegisterFile::lookup_first(u16 port,
                                     hw::CycleRecorder* rec) const {
  if (rec != nullptr) {
    regs_.charge_lookup(*rec);
  }
  // Same priority network as lookup(), tracking only the winner.
  bool found = false;
  PortMatch best{};
  for_each_match(port, [&](const PortMatch& m) {
    if (!found || m.before(best)) {
      best = m;
      found = true;
    }
  });
  return found ? best.label : Label{};
}

}  // namespace pclass::alg
