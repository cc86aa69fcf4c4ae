#include "alg/protocol_lut.hpp"

#include "common/error.hpp"

namespace pclass::alg {

namespace {
// LUT word and wildcard register: valid(1) label(2) bound(16).
constexpr unsigned kWordBits = 1 + kProtoLabelBits + kPriorityBoundBits;

hw::Word encode(bool valid, Label l, PriorityBound bound) {
  hw::WordPacker p;
  p.push(valid ? 1 : 0, 1);
  p.push(valid ? l.value : 0, kProtoLabelBits);
  p.push(valid ? bound : 0, kPriorityBoundBits);
  return p.word();
}

/// A decoded LUT word or wildcard register: nullopt when not valid.
struct Entry {
  Label label;
  PriorityBound bound;
};
std::optional<Entry> decode(const hw::Word& w) {
  hw::WordUnpacker u(w);
  if (u.pull(1) == 0) return std::nullopt;
  const Label label{static_cast<u16>(u.pull(kProtoLabelBits))};
  return Entry{label, static_cast<PriorityBound>(u.pull(kPriorityBoundBits))};
}
}  // namespace

ProtocolLut::ProtocolLut(const std::string& name)
    : lut_(name + ".lut", 256, kWordBits, /*read_cycles=*/1),
      wc_reg_(name + ".wc", 1, kWordBits, /*compare_cycles=*/0) {}

void ProtocolLut::insert(ruleset::ProtoMatch match, Label label,
                         hw::CommandLog& log, PriorityBound bound) {
  if (match.wildcard) {
    hw::WordUnpacker u(wc_reg_.reg(0));
    if (u.pull(1) != 0) {
      throw InternalError("ProtocolLut: wildcard label already programmed");
    }
    log.register_write(wc_reg_, 0, encode(true, label, bound));
    return;
  }
  hw::WordUnpacker u(lut_.read(match.value, nullptr));
  if (u.pull(1) != 0) {
    throw InternalError("ProtocolLut: duplicate protocol insert");
  }
  log.memory_write(lut_, match.value, encode(true, label, bound));
}

void ProtocolLut::set_bound(ruleset::ProtoMatch match, PriorityBound bound,
                            hw::CommandLog& log) {
  if (match.wildcard) {
    const std::optional<Entry> e = decode(wc_reg_.reg(0));
    if (!e) {
      throw InternalError("ProtocolLut: bound of unprogrammed wildcard");
    }
    log.register_write(wc_reg_, 0, encode(true, e->label, bound));
    return;
  }
  const std::optional<Entry> e = decode(lut_.read(match.value, nullptr));
  if (!e) {
    throw InternalError("ProtocolLut: bound of unknown protocol");
  }
  log.memory_write(lut_, match.value, encode(true, e->label, bound));
}

void ProtocolLut::remove(ruleset::ProtoMatch match, hw::CommandLog& log) {
  if (match.wildcard) {
    hw::WordUnpacker u(wc_reg_.reg(0));
    if (u.pull(1) == 0) {
      throw InternalError("ProtocolLut: wildcard label not programmed");
    }
    log.register_write(wc_reg_, 0, encode(false, {}, 0));
    return;
  }
  hw::WordUnpacker u(lut_.read(match.value, nullptr));
  if (u.pull(1) == 0) {
    throw InternalError("ProtocolLut: remove of unknown protocol");
  }
  log.memory_write(lut_, match.value, encode(false, {}, 0));
}

void ProtocolLut::clear(hw::CommandLog& log) {
  for (u32 v = 0; v < lut_.depth(); ++v) {
    if (hw::WordUnpacker u(lut_.read(v, nullptr)); u.pull(1) != 0) {
      log.memory_write(lut_, v, encode(false, {}, 0));
    }
  }
  if (hw::WordUnpacker u(wc_reg_.reg(0)); u.pull(1) != 0) {
    log.register_write(wc_reg_, 0, encode(false, {}, 0));
  }
}

std::vector<Label> ProtocolLut::lookup(u8 proto,
                                       hw::CycleRecorder* rec) const {
  std::vector<Label> out;
  if (const std::optional<Entry> e = decode(lut_.read(proto, rec))) {
    out.push_back(e->label);
  }
  // The wildcard register is read in the same cycle (no extra cost).
  if (const std::optional<Entry> w = decode(wc_reg_.reg(0))) {
    out.push_back(w->label);
  }
  return out;
}

void ProtocolLut::lookup_bounded_into(u8 proto, hw::CycleRecorder* rec,
                                      LabelVec& out,
                                      BoundVec& bounds) const {
  const std::optional<Entry> exact = decode(lut_.read(proto, rec));
  // The wildcard register is read in the same cycle (no extra cost).
  const std::optional<Entry> wc = decode(wc_reg_.reg(0));
  auto emit = [&](const std::optional<Entry>& e) {
    if (e) {
      out.push_back(e->label);
      bounds.push_back(e->bound);
    }
  };
  if (exact && wc && wc->bound < exact->bound) {
    emit(wc);
    emit(exact);
  } else {
    emit(exact);
    emit(wc);
  }
}

void ProtocolLut::lookup_batch_into(std::span<const BatchKey> sorted,
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
      lookup_bounded_into(static_cast<u8>(lane.key), nullptr, scratch,
                          bound_scratch);
      prev_span.off = static_cast<u32>(pool.size());
      prev_span.len = static_cast<u32>(scratch.size());
      pool.insert(pool.end(), scratch.begin(), scratch.end());
      bound_pool.insert(bound_pool.end(), bound_scratch.begin(),
                        bound_scratch.end());
      prev_key = lane.key;
      have_prev = true;
    }
    // Scalar cost: one LUT read (the wildcard register is free).
    recs[lane.slot].charge(lut_.read_cycles(), 1);
    spans[lane.slot] = prev_span;
  }
}

void ProtocolLut::lookup_first_batch_into(std::span<const BatchKey> sorted,
                                          std::span<hw::CycleRecorder> recs,
                                          std::vector<Label>& pool,
                                          std::span<LabelSpan> spans) const {
  bool have_prev = false;
  u32 prev_key = 0;
  LabelSpan prev_span{};
  for (const BatchKey& lane : sorted) {
    if (!have_prev || lane.key != prev_key) {
      const Label first = lookup_first(static_cast<u8>(lane.key), nullptr);
      prev_span.off = static_cast<u32>(pool.size());
      prev_span.len = first.valid() ? 1 : 0;
      if (first.valid()) pool.push_back(first);
      prev_key = lane.key;
      have_prev = true;
    }
    recs[lane.slot].charge(lut_.read_cycles(), 1);
    spans[lane.slot] = prev_span;
  }
}

Label ProtocolLut::lookup_first(u8 proto, hw::CycleRecorder* rec) const {
  hw::WordUnpacker u(lut_.read(proto, rec));
  if (u.pull(1) != 0) {
    return Label{static_cast<u16>(u.pull(kProtoLabelBits))};
  }
  hw::WordUnpacker w(wc_reg_.reg(0));
  if (w.pull(1) != 0) {
    return Label{static_cast<u16>(w.pull(kProtoLabelBits))};
  }
  return Label{};
}

}  // namespace pclass::alg
