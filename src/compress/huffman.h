// Order-0 canonical Huffman coder over the 256-byte alphabet.
//
// Code lengths are limited to 15 bits (length-limited via the simple
// frequency-clamping iteration); the header stores 256 bytes of code
// lengths (small next to payloads). Canonical assignment means the decoder
// can rebuild codes from lengths alone.
#pragma once

#include <span>
#include <vector>

#include "util/types.h"

namespace dsim::compress {

/// Encode `input` as [256 code lengths][u64 symbol count][bitstream].
std::vector<std::byte> huffman_encode(std::span<const std::byte> input);

/// Inverse of huffman_encode.
std::vector<std::byte> huffman_decode(std::span<const std::byte> input);

}  // namespace dsim::compress
