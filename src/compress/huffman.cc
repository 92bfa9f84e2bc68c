#include "compress/huffman.h"

#include <algorithm>
#include <array>
#include <queue>

#include "util/assertx.h"
#include "util/serialize.h"

namespace dsim::compress {
namespace {

constexpr int kMaxBits = 15;
constexpr int kAlphabet = 256;

/// Compute code lengths from symbol frequencies with a standard
/// two-queue Huffman construction, then clamp to kMaxBits by re-running on
/// dampened frequencies if needed (rare for byte alphabets).
std::array<u8, kAlphabet> code_lengths(std::array<u64, kAlphabet> freq) {
  std::array<u8, kAlphabet> lengths{};
  for (int attempt = 0; attempt < 8; ++attempt) {
    struct HNode {
      u64 weight;
      int left = -1, right = -1;  // indices into nodes; -1 = leaf
      int symbol = -1;
    };
    std::vector<HNode> nodes;
    using Entry = std::pair<u64, int>;  // (weight, node index)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (int s = 0; s < kAlphabet; ++s) {
      if (freq[s] == 0) continue;
      nodes.push_back({freq[s], -1, -1, s});
      heap.emplace(freq[s], static_cast<int>(nodes.size() - 1));
    }
    lengths.fill(0);
    if (heap.empty()) return lengths;
    if (heap.size() == 1) {
      lengths[nodes[heap.top().second].symbol] = 1;
      return lengths;
    }
    while (heap.size() > 1) {
      auto [wa, a] = heap.top();
      heap.pop();
      auto [wb, b] = heap.top();
      heap.pop();
      nodes.push_back({wa + wb, a, b, -1});
      heap.emplace(wa + wb, static_cast<int>(nodes.size() - 1));
    }
    // Depth-first walk to assign depths.
    int root = heap.top().second;
    int max_depth = 0;
    std::vector<std::pair<int, int>> stack{{root, 0}};
    while (!stack.empty()) {
      auto [n, depth] = stack.back();
      stack.pop_back();
      const HNode& node = nodes[static_cast<size_t>(n)];
      if (node.symbol >= 0) {
        lengths[node.symbol] = static_cast<u8>(depth);
        max_depth = std::max(max_depth, depth);
      } else {
        stack.emplace_back(node.left, depth + 1);
        stack.emplace_back(node.right, depth + 1);
      }
    }
    if (max_depth <= kMaxBits) return lengths;
    // Dampen frequencies and retry; flattens the tree.
    for (auto& f : freq) {
      if (f) f = (f >> 2) + 1;
    }
  }
  DSIM_UNREACHABLE("huffman length limiting failed to converge");
}

/// Reverse bit order of `code` over `len` bits.
u32 reverse_bits(u32 code, int len) {
  u32 r = 0;
  for (int i = 0; i < len; ++i) {
    r = (r << 1) | ((code >> i) & 1);
  }
  return r;
}

/// Canonical code assignment from lengths (RFC 1951 style). We write
/// LSB-first, so the canonical (MSB-first) codes are returned bit-reversed
/// to stay prefix-decodable.
std::array<u32, kAlphabet> canonical_codes(
    const std::array<u8, kAlphabet>& lengths) {
  std::array<u32, kAlphabet> codes{};
  std::array<u32, kMaxBits + 2> bl_count{};
  for (int s = 0; s < kAlphabet; ++s) bl_count[lengths[s]]++;
  bl_count[0] = 0;
  std::array<u32, kMaxBits + 2> next_code{};
  u32 code = 0;
  for (int bits = 1; bits <= kMaxBits; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = code;
  }
  for (int s = 0; s < kAlphabet; ++s) {
    if (lengths[s]) {
      codes[s] = reverse_bits(next_code[lengths[s]]++, lengths[s]);
    }
  }
  return codes;
}

u64 load_le64(const std::byte* p) {
  u64 v = 0;
  for (int k = 0; k < 8; ++k) {
    v |= static_cast<u64>(static_cast<u8>(p[k])) << (8 * k);
  }
  return v;
}

}  // namespace

std::vector<std::byte> huffman_encode(std::span<const std::byte> input) {
  std::array<u64, kAlphabet> freq{};
  for (std::byte b : input) freq[static_cast<u8>(b)]++;
  const auto lengths = code_lengths(freq);
  const auto codes = canonical_codes(lengths);
  u64 total_bits = 0;
  for (int s = 0; s < kAlphabet; ++s) total_bits += freq[s] * lengths[s];

  ByteWriter header;
  for (int s = 0; s < kAlphabet; ++s) header.put_u8(lengths[s]);
  header.put_u64(input.size());
  std::vector<std::byte> out = header.take();
  const size_t payload_at = out.size();
  out.resize(payload_at + (total_bits + 7) / 8);

  // LSB-first bitstream (gzip convention), flushed 32 bits at a time from a
  // 64-bit accumulator; codes are at most 15 bits, so it never overflows.
  std::byte* dst = out.data() + payload_at;
  u64 acc = 0;
  int fill = 0;
  for (std::byte b : input) {
    const int s = static_cast<u8>(b);
    acc |= static_cast<u64>(codes[s]) << fill;
    fill += lengths[s];
    if (fill >= 32) {
      for (int k = 0; k < 4; ++k) {
        *dst++ = static_cast<std::byte>(acc >> (8 * k));
      }
      acc >>= 32;
      fill -= 32;
    }
  }
  for (; fill > 0; fill -= 8, acc >>= 8) *dst++ = static_cast<std::byte>(acc);
  return out;
}

std::vector<std::byte> huffman_decode(std::span<const std::byte> input) {
  ByteReader reader(input);
  std::array<u8, kAlphabet> lengths{};
  for (int s = 0; s < kAlphabet; ++s) {
    lengths[s] = reader.get_u8();
    DSIM_CHECK_MSG(lengths[s] <= kMaxBits, "corrupt huffman stream");
  }
  const u64 count = reader.get_u64();
  const auto codes = canonical_codes(lengths);

  // Build a direct-indexed decode table over the longest code's bits: each
  // entry maps the next `bits` (LSB-first) to (symbol, length); length 0
  // marks a bit pattern no code starts with. Sized to the codes in use, not
  // kMaxBits, it stays in L1 for the usual shallower codes.
  struct Entry {
    u8 symbol = 0;
    u8 len = 0;
  };
  const int bits = *std::max_element(lengths.begin(), lengths.end());
  std::vector<Entry> table(size_t{1} << bits);
  for (int s = 0; s < kAlphabet; ++s) {
    const int len = lengths[s];
    if (!len) continue;
    // All table slots whose low `len` bits equal the code decode to s.
    const u32 step = 1u << len;
    for (u32 idx = codes[s]; idx < table.size(); idx += step) {
      table[idx] = {static_cast<u8>(s), static_cast<u8>(len)};
    }
  }
  const u64 mask = table.size() - 1;

  // Every symbol takes at least one bit, and decoding may run at most
  // kMaxBits into the zero padding past the end of the payload.
  auto payload = reader.get_bytes(reader.remaining());
  const u64 payload_bits = static_cast<u64>(payload.size()) * 8;
  DSIM_CHECK_MSG(count <= payload_bits + kMaxBits, "corrupt huffman stream");
  std::vector<std::byte> out(count);

  // acc holds `fill` unread bits (fill < 0 once decoding reads the zero
  // padding); pos * 8 - fill bits have been consumed. Refills load 8 bytes
  // (to at least 56 bits) while 8 remain, then byte by byte.
  u64 acc = 0;
  int fill = 0;
  size_t pos = 0;
  for (u64 i = 0; i < count; ++i) {
    if (fill < kMaxBits && payload.size() - pos >= 8) {
      acc |= load_le64(payload.data() + pos) << fill;
      pos += static_cast<size_t>(63 - fill) >> 3;
      fill |= 56;
    }
    for (; fill < kMaxBits && pos < payload.size(); fill += 8) {
      acc |= static_cast<u64>(static_cast<u8>(payload[pos++])) << fill;
    }
    const Entry e = table[acc & mask];
    DSIM_CHECK_MSG(e.len > 0, "corrupt huffman stream");
    out[i] = static_cast<std::byte>(e.symbol);
    acc >>= e.len;
    fill -= e.len;
  }
  DSIM_CHECK_MSG(fill >= -kMaxBits, "corrupt huffman stream");
  return out;
}

}  // namespace dsim::compress
