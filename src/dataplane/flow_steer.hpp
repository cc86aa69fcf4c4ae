/// \file flow_steer.hpp
/// RSS-style flow steering for the sharded dataplane runtime.
///
/// A NIC with receive-side scaling hashes the 5-tuple of every ingress
/// packet and uses the hash to pick a receive queue; the software
/// analogue here steers each entry of a TrafficPool to a per-shard pool
/// before the workers start, so every shard sees a disjoint, per-flow
/// consistent slice of the traffic (all packets of one flow land on the
/// same shard — the invariant the per-shard flow caches rely on for
/// locality).
///
/// Every shard holds the full ruleset (a replica), so steering only buys
/// cache locality and verdicts are trivially identical to the unsharded
/// engine.
#pragma once

#include <vector>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "dataplane/elements.hpp"
#include "net/five_tuple.hpp"

namespace pclass::dataplane {

/// The steering hash: mix64 avalanche over the 5-tuple. With
/// \p symmetric the (ip, port) endpoint pairs are canonically ordered
/// first, so both directions of a bidirectional flow produce the same
/// hash (the RSS "symmetric Toeplitz" option) — at the cost of mixing
/// forward and reverse flows onto one shard.
[[nodiscard]] inline u64 steer_hash(const net::FiveTuple& t,
                                    bool symmetric = false) {
  u32 a_ip = t.src_ip;
  u32 b_ip = t.dst_ip;
  u16 a_port = t.src_port;
  u16 b_port = t.dst_port;
  if (symmetric &&
      (a_ip > b_ip || (a_ip == b_ip && a_port > b_port))) {
    std::swap(a_ip, b_ip);
    std::swap(a_port, b_port);
  }
  const u64 h = mix64((u64{a_ip} << 32) | b_ip);
  return mix64(h ^ ((u64{a_port} << 32) | (u64{b_port} << 8) |
                    t.protocol));
}

/// Shard index for one header: multiply-high range reduction of the
/// steering hash (uniform for any shard count, no modulo bias).
[[nodiscard]] inline usize shard_of(const net::FiveTuple& t, usize nshards,
                                    bool symmetric = false) {
  if (nshards <= 1) return 0;
  return static_cast<usize>(mul_high_u64(steer_hash(t, symmetric), nshards));
}

/// Split \p pool into \p nshards per-shard pools by steering hash
/// (the sharded engine's ingress stage). Raw-packet pools are steered by their
/// parsed header; unparsable packets — which every shard would drop
/// identically anyway — are spread round-robin.
/// \throws ConfigError when nshards == 0.
[[nodiscard]] std::vector<TrafficPool> steer_split(const TrafficPool& pool,
                                                   usize nshards,
                                                   bool symmetric = false);

}  // namespace pclass::dataplane
