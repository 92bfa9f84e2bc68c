#include "compress/lz77.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "util/assertx.h"

namespace dsim::compress {
namespace {

constexpr size_t kWindow = 1 << 16;     // 64 KiB back-reference window
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 20;   // long matches make zero runs cheap
constexpr int kMaxChain = 32;           // match-finder effort bound
constexpr size_t kHashSize = 1 << 16;

template <typename T>
T load(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

u32 hash4(const std::byte* p) { return (load<u32>(p) * 2654435761u) >> 16; }

/// Length of the common prefix of `a` and `b`, at most `limit`, compared a
/// word at a time: the first differing byte is the lowest set byte of the
/// XOR in memory order.
size_t match_length(const std::byte* a, const std::byte* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    const u64 diff = load<u64>(a + len) ^ load<u64>(b + len);
    if (diff != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return len + static_cast<size_t>(bit >> 3);
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

void put_varint(std::vector<std::byte>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

u64 get_varint(std::span<const std::byte> data, size_t& pos) {
  u64 v = 0;
  int shift = 0;
  while (true) {
    DSIM_CHECK_MSG(pos < data.size(), "lz77 stream truncated");
    const u8 b = static_cast<u8>(data[pos++]);
    v |= static_cast<u64>(b & 0x7F) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
    DSIM_CHECK_MSG(shift < 64, "lz77 varint overflow");
  }
  return v;
}

/// The match finder, over position type `Pos`. Tables hold position + 1,
/// so 0 means "no entry"; a u32 `Pos` halves them for every input under
/// 4 GiB.
template <typename Pos>
std::vector<std::byte> compress_impl(std::span<const std::byte> input) {
  const size_t n = input.size();
  const std::byte* in = input.data();
  std::vector<std::byte> out;
  out.reserve(n / 2 + 16);
  auto put_literals = [&](size_t from, size_t to) {
    out.push_back(std::byte{0x00});
    put_varint(out, to - from);
    out.insert(out.end(), in + from, in + to);
  };

  // head[h] = most recent position with hash h; prev[i % kWindow] = previous
  // position in the chain for position i.
  std::vector<Pos> head(kHashSize, 0);
  std::vector<Pos> prev(kWindow, 0);
  auto insert = [&](size_t j) {
    const u32 h = hash4(in + j);
    prev[j % kWindow] = head[h];
    head[h] = static_cast<Pos>(j + 1);
  };

  size_t lit_start = 0;  // start of pending literal run
  size_t i = 0;
  while (i < n) {
    // The chain keeps the first of its longest matches. Shorter ones than
    // kMinMatch become literals anyway, so the search starts from there.
    size_t best_len = kMinMatch - 1;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const size_t limit = std::min(n - i, kMaxMatch);
      size_t cand = head[hash4(in + i)];
      for (int chain = 0; chain < kMaxChain; ++chain) {
        if (cand == 0 || i - (cand - 1) > kWindow) break;
        const size_t c = cand - 1;
        // A candidate beats best_len only if it matches through byte
        // best_len (which is below `limit`, so in range): comparing the
        // word that ends there is an exact quick reject.
        const size_t w = best_len + 1 - 4;
        if (load<u32>(in + c + w) == load<u32>(in + i + w)) {
          const size_t len = match_length(in + c, in + i, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = i - c;
            if (len >= limit) break;
          }
        }
        cand = prev[c % kWindow];
      }
    }

    if (best_len >= kMinMatch) {
      if (i > lit_start) put_literals(lit_start, i);
      out.push_back(std::byte{0x01});
      put_varint(out, best_len);
      put_varint(out, best_dist);
      // Insert hash entries for the matched region (sparsely for speed).
      const size_t end = i + best_len;
      const size_t stride = best_len > 512 ? 61 : 1;
      for (size_t j = i; j + kMinMatch <= n && j < end; j += stride) {
        insert(j);
      }
      i = end;
      lit_start = i;
    } else {
      if (i + kMinMatch <= n) insert(i);
      ++i;
    }
  }
  if (n > lit_start) put_literals(lit_start, n);
  return out;
}

}  // namespace

std::vector<std::byte> lz77_compress(std::span<const std::byte> input) {
  if (input.size() < std::numeric_limits<u32>::max()) {
    return compress_impl<u32>(input);
  }
  return compress_impl<u64>(input);
}

std::vector<std::byte> lz77_decompress(std::span<const std::byte> tokens,
                                       u64 expected_size) {
  std::vector<std::byte> out(expected_size);
  std::byte* dst = out.data();
  size_t o = 0;  // bytes of `out` written so far
  size_t pos = 0;
  while (pos < tokens.size()) {
    const u8 op = static_cast<u8>(tokens[pos++]);
    if (op == 0x00) {
      const u64 len = get_varint(tokens, pos);
      DSIM_CHECK_MSG(len <= tokens.size() - pos, "lz77 literal overrun");
      DSIM_CHECK_MSG(len <= expected_size - o, "lz77 size mismatch");
      std::copy_n(tokens.data() + pos, len, dst + o);
      pos += len;
      o += len;
    } else if (op == 0x01) {
      const u64 len = get_varint(tokens, pos);
      const u64 dist = get_varint(tokens, pos);
      DSIM_CHECK_MSG(dist > 0 && dist <= o, "lz77 bad distance");
      DSIM_CHECK_MSG(len <= expected_size - o, "lz77 match overrun");
      const std::byte* src = dst + o - dist;
      if (dist >= len) {
        std::copy_n(src, len, dst + o);
      } else {
        // Self-overlapping: later bytes copy bytes this match wrote.
        for (u64 k = 0; k < len; ++k) dst[o + k] = src[k];
      }
      o += len;
    } else {
      DSIM_UNREACHABLE("lz77 bad opcode");
    }
  }
  DSIM_CHECK_MSG(o == expected_size, "lz77 size mismatch");
  return out;
}

}  // namespace dsim::compress
