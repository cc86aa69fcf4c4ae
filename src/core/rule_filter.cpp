#include "core/rule_filter.hpp"

#include <bit>

#include "common/error.hpp"

namespace pclass::core {

ProbeTable::ProbeTable(const std::string& name, u32 depth, u32 max_probes,
                       u64 hash_seed, unsigned key_bits, unsigned value_bits)
    : mem_(name, depth, 2 + key_bits + value_bits),
      hasher_(depth, hash_seed),
      max_probes_(max_probes),
      last_candidate_(hash_seed),
      key_bits_(key_bits),
      value_bits_(value_bits) {
  if (max_probes == 0 || max_probes > depth) {
    throw ConfigError("ProbeTable '" + name +
                      "': max_probes must be in [1, depth]");
  }
  if (key_bits == 0 || key_bits > 68 || value_bits == 0 || value_bits > 64) {
    throw ConfigError("ProbeTable '" + name + "': bad key/value width");
  }
}

ProbeTable::Slot ProbeTable::decode(u32 addr, hw::CycleRecorder* rec) const {
  hw::WordUnpacker u(mem_.read(addr, rec));
  Slot s;
  s.valid = u.pull(1) != 0;
  s.tombstone = u.pull(1) != 0;
  if (key_bits_ > 64) {
    const u64 key_lo = u.pull(64);
    const u64 key_hi = u.pull(key_bits_ - 64);
    s.key = Key68{static_cast<u8>(key_hi), key_lo};
  } else {
    s.key = Key68{0, u.pull(key_bits_)};
  }
  s.value = u.pull(value_bits_);
  return s;
}

void ProbeTable::encode(u32 addr, const Slot& s, hw::CommandLog& log) {
  hw::WordPacker p;
  p.push(s.valid ? 1 : 0, 1);
  p.push(s.tombstone ? 1 : 0, 1);
  if (key_bits_ > 64) {
    p.push(s.key.lo64(), 64);
    p.push(s.key.hi4() & mask_low(key_bits_ - 64), key_bits_ - 64);
  } else {
    p.push(s.key.lo64() & mask_low(key_bits_), key_bits_);
  }
  p.push(s.value & mask_low(value_bits_), value_bits_);
  const hw::Word full = p.word();
  // Pin-limited upload (§V.A): a word wider than one beat arrives in
  // two; the first stages it with the valid bit clear. A tombstone's
  // valid bit is already clear, so its full word is the one beat.
  if (mem_.word_bits() > kBusBeatBits && s.valid) {
    hw::Word staged = full;
    staged.lo &= ~u64{1};
    log.memory_write(mem_, addr, staged);
  }
  log.memory_write(mem_, addr, full);
}

void ProbeTable::insert(const Key68& key, u64 value, hw::CommandLog& log) {
  if (live_ >= mem_.depth()) {
    throw CapacityError("ProbeTable '" + mem_.name() + "': table full");
  }
  std::optional<u32> reusable;
  u32 addr = hasher_(key);
  for (u32 probe = 0; probe < max_probes_; ++probe, addr = next(addr)) {
    const Slot s = decode(addr, nullptr);
    if (s.valid && s.key == key) {
      throw InternalError("ProbeTable '" + mem_.name() +
                          "': duplicate key insert");
    }
    if (!s.valid) {
      if (s.tombstone) {
        if (!reusable) reusable = addr;
        continue;  // key may still appear later in the chain
      }
      const u32 target = reusable.value_or(addr);
      if (reusable && decode(target, nullptr).tombstone) {
        --tombstones_;
      }
      encode(target, Slot{true, false, key, value}, log);
      ++live_;
      return;
    }
  }
  if (reusable) {
    --tombstones_;
    encode(*reusable, Slot{true, false, key, value}, log);
    ++live_;
    return;
  }
  throw CapacityError("ProbeTable '" + mem_.name() +
                      "': probe bound exceeded (" +
                      std::to_string(max_probes_) +
                      ") — re-seed the hash or grow the table");
}

void ProbeTable::insert_reseeding(const Key68& key, u64 value,
                                  hw::CommandLog& log) {
  while (true) {
    try {
      insert(key, value, log);
      return;
    } catch (const CapacityError&) {
      if (live_ + 1 > mem_.depth()) {
        throw;  // genuinely full: no seed can help
      }
      // Each candidate salts the last one tried. reseed() restores the
      // previous layout when a candidate fails, so state stays
      // consistent throughout.
      bool reseeded = false;
      while (!reseeded && reseed_attempts_ < kMaxReseeds) {
        ++reseed_attempts_;
        last_candidate_ = mix64(last_candidate_ + reseed_attempts_);
        try {
          reseed(last_candidate_, log);
          reseeded = true;
        } catch (const CapacityError&) {
          // candidate seed also clusters; try the next one
        }
      }
      if (!reseeded) {
        throw;
      }
    }
  }
}

std::optional<u32> ProbeTable::find(const Key68& key) const {
  u32 addr = hasher_(key);
  for (u32 probe = 0; probe < max_probes_; ++probe, addr = next(addr)) {
    const Slot s = decode(addr, nullptr);
    if (s.valid && s.key == key) {
      return addr;
    }
    if (!s.valid && !s.tombstone) {
      break;
    }
  }
  return std::nullopt;
}

void ProbeTable::remove(const Key68& key, hw::CommandLog& log) {
  const std::optional<u32> addr = find(key);
  if (!addr) {
    throw InternalError("ProbeTable '" + mem_.name() +
                        "': remove of unknown key");
  }
  encode(*addr, Slot{false, true, {}, 0}, log);
  --live_;
  ++tombstones_;
}

void ProbeTable::modify(const Key68& key, u64 value, hw::CommandLog& log) {
  const std::optional<u32> addr = find(key);
  if (!addr) {
    throw InternalError("ProbeTable '" + mem_.name() +
                        "': modify of unknown key");
  }
  encode(*addr, Slot{true, false, key, value}, log);
}

void ProbeTable::reseed(u64 new_seed, hw::CommandLog& log) {
  // Collect live entries from the device words (the controller's shadow
  // is the memory itself in this model).
  std::vector<std::pair<Key68, u64>> live;
  live.reserve(live_);
  for (u32 addr = 0; addr < mem_.depth(); ++addr) {
    const Slot s = decode(addr, nullptr);
    if (s.valid) {
      live.emplace_back(s.key, s.value);
    }
  }
  const Key68Hasher old_hasher = hasher_;
  auto upload = [&](const Key68Hasher& h) {
    clear(log);
    hasher_ = h;
    for (const auto& [key, value] : live) {
      log.hash_compute(mem_.name() + ".hash");
      insert(key, value, log);
    }
  };
  try {
    upload(Key68Hasher(mem_.depth(), new_seed));
  } catch (const CapacityError&) {
    // All-or-nothing: restore under the old seed. Linear-probing
    // occupancy is insertion-order independent, so the restore cannot
    // exceed the probe bound the old layout satisfied.
    upload(old_hasher);
    throw;
  }
}

void ProbeTable::clear(hw::CommandLog& log) {
  for (u32 addr = 0; addr < mem_.depth(); ++addr) {
    const Slot s = decode(addr, nullptr);
    if (s.valid || s.tombstone) {
      encode(addr, Slot{}, log);
    }
  }
  live_ = 0;
  tombstones_ = 0;
}

std::optional<u64> ProbeTable::lookup(const Key68& key,
                                      hw::CycleRecorder* rec) const {
  if (rec != nullptr) {
    rec->charge(1, 0);  // hardware hash unit, one cycle
  }
  u32 addr = hasher_(key);
  for (u32 probe = 0; probe < max_probes_; ++probe, addr = next(addr)) {
    const Slot s = decode(addr, rec);
    if (s.valid && s.key == key) {
      return s.value;
    }
    if (!s.valid && !s.tombstone) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

namespace {

constexpr unsigned kRuleValueBits = 16 + 16 + 16;  // rule, prio, action

u64 pack(const RuleEntry& e) {
  return u64{e.rule.value} | (u64{e.priority} << 16) | (u64{e.action} << 32);
}

RuleEntry unpack(u64 v) {
  return RuleEntry{RuleId{static_cast<u32>(v & 0xFFFFu)},
                   static_cast<Priority>((v >> 16) & 0xFFFFu),
                   static_cast<u32>((v >> 32) & 0xFFFFu)};
}

void check_fields(const RuleEntry& e) {
  if (e.rule.value > 0xFFFF || e.priority > 0xFFFF || e.action > 0xFFFF) {
    throw ConfigError("RuleFilter: rule id/priority/action exceed the "
                      "16-bit entry fields");
  }
}

}  // namespace

RuleFilter::RuleFilter(const std::string& name, u32 depth, u32 max_probes,
                       u64 hash_seed)
    : table_(name, depth, max_probes, hash_seed, 68, kRuleValueBits) {}

void RuleFilter::insert(const Key68& key, const RuleEntry& entry,
                        hw::CommandLog& log) {
  check_fields(entry);
  table_.insert(key, pack(entry), log);
}

void RuleFilter::insert_reseeding(const Key68& key, const RuleEntry& entry,
                                  hw::CommandLog& log) {
  check_fields(entry);
  table_.insert_reseeding(key, pack(entry), log);
}

void RuleFilter::modify(const Key68& key, const RuleEntry& entry,
                        hw::CommandLog& log) {
  check_fields(entry);
  table_.modify(key, pack(entry), log);
}

std::optional<RuleEntry> RuleFilter::lookup(const Key68& key,
                                            hw::CycleRecorder* rec) const {
  const std::optional<u64> v = table_.lookup(key, rec);
  if (!v) return std::nullopt;
  return unpack(*v);
}

}  // namespace pclass::core
