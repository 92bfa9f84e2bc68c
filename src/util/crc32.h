// CRC-32 (IEEE 802.3 polynomial, reflected), as used by gzip containers.
//
// Slicing-by-8: eight bytes per step through eight 256-entry tables. Words
// are assembled from bytes with shifts (byte 0 in the low bits), so results
// do not depend on host endianness.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "util/types.h"

namespace dsim {
namespace crc32_detail {

using Tables = std::array<std::array<u32, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t s = 1; s < 8; ++s) {
    for (u32 i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Tables kTables = make_tables();

// One slicing-by-8 step on the raw (pre-inverted) CRC register.
inline u32 step(u32 reg, u64 word) {
  const auto& t = kTables;
  const u32 lo = reg ^ static_cast<u32>(word);
  const u32 hi = static_cast<u32>(word >> 32);
  return t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
         t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
         t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
}

}  // namespace crc32_detail

/// Incremental CRC-32. `crc` should start at 0 for a fresh stream.
u32 crc32_update(u32 crc, std::span<const std::byte> data);

/// Word steps: the same as crc32_update over the 8·n bytes of the n words
/// `next_word()` returns in turn, each least significant byte first. Lets a
/// generated word stream feed the CRC without a buffer.
template <typename NextWord>
u32 crc32_update_words(u32 crc, u64 n, NextWord&& next_word) {
  u32 reg = ~crc;
  for (; n > 0; --n) reg = crc32_detail::step(reg, next_word());
  return ~reg;
}

inline u32 crc32(std::span<const std::byte> data) {
  return crc32_update(0, data);
}

}  // namespace dsim
