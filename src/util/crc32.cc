#include "util/crc32.h"

namespace dsim {
namespace {

// Compilers fold this into one load on little-endian hosts.
u64 load_le64(const std::byte* p) {
  return static_cast<u64>(p[0]) | static_cast<u64>(p[1]) << 8 |
         static_cast<u64>(p[2]) << 16 | static_cast<u64>(p[3]) << 24 |
         static_cast<u64>(p[4]) << 32 | static_cast<u64>(p[5]) << 40 |
         static_cast<u64>(p[6]) << 48 | static_cast<u64>(p[7]) << 56;
}

}  // namespace

u32 crc32_update(u32 crc, std::span<const std::byte> data) {
  const std::byte* p = data.data();
  const size_t words = data.size() / 8;
  crc = crc32_update_words(crc, words, [&p] {
    const u64 word = load_le64(p);
    p += 8;
    return word;
  });
  // Tail of 0..7 bytes: the one-byte step of the same table.
  const auto& t0 = crc32_detail::kTables[0];
  u32 reg = ~crc;
  for (const std::byte b : data.subspan(words * 8)) {
    reg = t0[(reg ^ static_cast<u32>(b)) & 0xFFu] ^ (reg >> 8);
  }
  return ~reg;
}

}  // namespace dsim
