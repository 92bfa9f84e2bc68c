// Reed-Solomon (k,m) erasure coding over GF(2^8) for the chunk store.
//
// A stored chunk container is striped into k data fragments plus m parity
// fragments (systematic: the first k fragments are the container split in
// order, so a healthy read concatenates them without touching the field
// arithmetic). Any k of the k+m fragments reconstruct the container — the
// store survives m simultaneous fragment losses at (k+m)/k byte overhead.
//
// R-way replication is the (1, R-1) profile of the same code: at k = 1 every
// encoding row is [1], so each "parity" fragment is a verbatim copy of the
// container. is_copy_code() names that case, and the cost model below is the
// one place its consequences live — nothing is computed, so encode and
// decode are free, and a store ships one copy over the wire.
//
// The construction is the classic Vandermonde-derived systematic matrix:
// build the (k+m)×k Vandermonde matrix over distinct evaluation points,
// multiply by the inverse of its top k×k block so the data rows become the
// identity, and keep the property that *every* k-row submatrix is
// invertible (column operations preserve it). Decode gathers any k
// fragment rows, inverts that k×k submatrix by Gauss-Jordan elimination in
// the field, and multiplies the surviving fragments back through it.
//
// Cost model: encode charges parity output (m/k input ratio) and decode
// charges one pass over the container, both at sim::params::kErasureBw —
// table-lookup arithmetic, an order of magnitude faster than the gzip-class
// kCompressBw but visible on the restart critical path when data fragments
// are missing.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/types.h"

namespace dsim::ckptstore::erasure {

/// Bytes per fragment for a `len`-byte container striped k ways (the last
/// data fragment is zero-padded up to this).
inline u64 fragment_bytes(u64 len, int k) {
  return (len + static_cast<u64>(k) - 1) / static_cast<u64>(k);
}

/// True for the identity code (k = 1): every fragment is a full copy of the
/// container, so no fragment ever needs computing from the others.
inline bool is_copy_code(int k) { return k == 1; }

/// Stripe `data` into k data + m parity fragments, each
/// fragment_bytes(data.size(), k) long. Fragment i < k is the i-th k-way
/// split of the input (systematic); fragments k..k+m-1 are parity (at
/// k = 1, copies of the input). Requires 1 <= k, 0 <= m, k + m <= 255.
std::vector<std::vector<std::byte>> encode(std::span<const std::byte> data,
                                           int k, int m);

/// Reconstruct the original `orig_len`-byte container from any >= k
/// fragments, given as (fragment index, fragment bytes) pairs. Returns the
/// container, or an empty vector when fewer than k fragments were supplied
/// (the unrecoverable > m losses case).
std::vector<std::byte> reconstruct(
    const std::vector<std::pair<int, std::vector<std::byte>>>& fragments,
    int k, int m, u64 orig_len);

/// CPU seconds to encode a `bytes`-long container: the parity rows are the
/// work (m output bytes per k input bytes), priced at kErasureBw. Exactly
/// zero for the copy code.
double encode_seconds(u64 bytes, int k, int m);

/// CPU seconds to decode a `bytes`-long container when at least one *data*
/// fragment is missing (one matrix-multiply pass over the container).
/// Healthy systematic reads cost nothing — the data fragments concatenate —
/// and the copy code never decodes: its callers skip the step outright.
double decode_seconds(u64 bytes);

/// Bytes a store RPC carries for a `len`-byte container: all k+m fragments
/// (the parity overhead is paid in NIC egress too), except under the copy
/// code, which ships one copy and lets the homes' device writes multiply it.
u64 wire_bytes(u64 len, int k, int m);

}  // namespace dsim::ckptstore::erasure
