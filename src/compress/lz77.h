// LZ77 token stream with hash-chain match finding.
//
// Token format (byte-oriented, later entropy-coded by the Huffman stage):
//   0x00 <varint len> <len literal bytes>     -- literal run
//   0x01 <varint len> <varint dist>           -- match (copy len from dist)
// Matches may be self-overlapping (dist < len), which encodes runs; long
// zero regions therefore collapse to a handful of bytes, reproducing gzip's
// behaviour on the NAS/IS mostly-zero buckets (§5.4). Match decisions (hash,
// chain order and bound, first-longest wins) are part of the pinned format
// (see compressor.h): faster match finding must choose the same tokens.
#pragma once

#include <span>
#include <vector>

#include "util/types.h"

namespace dsim::compress {

std::vector<std::byte> lz77_compress(std::span<const std::byte> input);
std::vector<std::byte> lz77_decompress(std::span<const std::byte> tokens,
                                       u64 expected_size);

}  // namespace dsim::compress
