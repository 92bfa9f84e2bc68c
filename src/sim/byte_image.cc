#include "sim/byte_image.h"

#include <algorithm>
#include <cstring>

#include "util/assertx.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace dsim::sim {

ByteImage::ByteImage(u64 size) : size_(size) {
  if (size > 0) {
    ext_.emplace(0, Extent{size, ExtentKind::kZero, 0, nullptr, 0});
  }
}

namespace {

// Walk kRand positions [pos, pos+n) on the eight-byte word grid:
// part(word, first byte used, bytes used) for a partial head or tail word,
// whole(first block, count) once for the whole words between them.
template <typename Part, typename Whole>
void split_rand_range(u64 seed, u64 pos, u64 n, Part&& part, Whole&& whole) {
  const u64 head = std::min<u64>(n, (8 - (pos & 7)) & 7);
  if (head > 0) part(ByteImage::rand_word(seed, pos >> 3), pos & 7, head);
  pos += head;
  n -= head;
  if (n >= 8) whole(pos >> 3, n >> 3);
  if ((n & 7) != 0) {
    part(ByteImage::rand_word(seed, (pos + n) >> 3), 0, n & 7);
  }
}

// Store bytes lane..lane+k-1 of `word` (least significant first) to out.
void put_word_bytes(u64 word, u64 lane, u64 k, std::byte* out) {
  for (u64 b = 0; b < k; ++b) {
    out[b] = static_cast<std::byte>(word >> ((lane + b) * 8));
  }
}

// The whole-word case, written out so that compilers fold it into one
// store on little-endian hosts.
void store_le64(u64 word, std::byte* out) {
  out[0] = static_cast<std::byte>(word);
  out[1] = static_cast<std::byte>(word >> 8);
  out[2] = static_cast<std::byte>(word >> 16);
  out[3] = static_cast<std::byte>(word >> 24);
  out[4] = static_cast<std::byte>(word >> 32);
  out[5] = static_cast<std::byte>(word >> 40);
  out[6] = static_cast<std::byte>(word >> 48);
  out[7] = static_cast<std::byte>(word >> 56);
}

}  // namespace

void ByteImage::rand_fill(u64 seed, u64 pos, std::span<std::byte> out) {
  std::byte* p = out.data();
  split_rand_range(
      seed, pos, out.size(),
      [&](u64 word, u64 lane, u64 k) {
        put_word_bytes(word, lane, k, p);
        p += k;
      },
      [&](u64 block, u64 count) {
        for (const u64 end = block + count; block < end; ++block, p += 8) {
          store_le64(rand_word(seed, block), p);
        }
      });
}

void ByteImage::resize(u64 new_size) {
  if (new_size == size_) return;
  notify(std::min(size_, new_size),
         std::max(size_, new_size) - std::min(size_, new_size));
  if (new_size > size_) {
    ext_.emplace(size_,
                 Extent{new_size - size_, ExtentKind::kZero, 0, nullptr, 0});
    size_ = new_size;
    return;
  }
  split_at(new_size);
  ext_.erase(ext_.lower_bound(new_size), ext_.end());
  size_ = new_size;
}

void ByteImage::split_at(u64 pos) {
  if (pos == 0 || pos >= size_) return;
  auto it = ext_.upper_bound(pos);
  DSIM_CHECK(it != ext_.begin());
  --it;
  const u64 start = it->first;
  if (start == pos) return;
  Extent& ext = it->second;
  DSIM_CHECK(pos < start + ext.len);
  Extent tail = ext;
  const u64 head_len = pos - start;
  tail.len = ext.len - head_len;
  if (tail.kind == ExtentKind::kReal) {
    tail.data_off += head_len;
  }
  // kRand content is position-based, so the seed carries over unchanged.
  ext.len = head_len;
  ext_.emplace(pos, std::move(tail));
}

void ByteImage::replace_range(u64 off, u64 len, Extent ext) {
  split_at(off);
  split_at(off + len);
  auto first = ext_.lower_bound(off);
  auto last = ext_.lower_bound(off + len);
  ext_.erase(first, last);
  ext_.emplace(off, std::move(ext));
}

void ByteImage::write(u64 off, std::span<const std::byte> bytes) {
  if (bytes.empty()) return;
  DSIM_CHECK_MSG(off + bytes.size() <= size_, "ByteImage write out of range");
  notify(off, bytes.size());

  // Fast path: the range lies within a single uniquely-owned real extent.
  auto it = ext_.upper_bound(off);
  DSIM_CHECK(it != ext_.begin());
  --it;
  Extent& cur = it->second;
  const u64 start = it->first;
  if (cur.kind == ExtentKind::kReal && cur.data &&
      cur.data.use_count() == 1 && off + bytes.size() <= start + cur.len) {
    auto* vec = const_cast<std::vector<std::byte>*>(cur.data.get());
    std::memcpy(vec->data() + cur.data_off + (off - start), bytes.data(),
                bytes.size());
    return;
  }

  auto data = std::make_shared<std::vector<std::byte>>(bytes.begin(),
                                                       bytes.end());
  replace_range(off, bytes.size(),
                Extent{bytes.size(), ExtentKind::kReal, 0, std::move(data), 0});
}

void ByteImage::fill(u64 off, u64 len, ExtentKind kind, u64 seed) {
  if (len == 0) return;
  DSIM_CHECK_MSG(off + len <= size_, "ByteImage fill out of range");
  DSIM_CHECK_MSG(kind != ExtentKind::kReal, "use write() for real bytes");
  notify(off, len);
  replace_range(off, len, Extent{len, kind, seed, nullptr, 0});
}

void ByteImage::synthesize(const Extent& ext, u64 pos,
                           std::span<std::byte> out) {
  if (ext.kind == ExtentKind::kRand) {
    rand_fill(ext.seed, pos, out);
  } else {
    std::memset(out.data(), 0, out.size());
  }
}

void ByteImage::read(u64 off, std::span<std::byte> out) const {
  std::byte* p = out.data();
  const auto copy = [&](u64 pos, const Extent& ext, u64 in_ext, u64 n) {
    if (ext.kind == ExtentKind::kReal) {
      std::memcpy(p, ext.data->data() + ext.data_off + in_ext, n);
    } else {
      synthesize(ext, pos, std::span(p, n));
    }
    p += n;
  };
  for_each_piece(off, out.size(), copy);
}

u32 ByteImage::crc(u64 off, u64 len) const {
  u32 c = 0;
  for_each_piece(off, len, [&](u64 pos, const Extent& ext, u64 in_ext, u64 n) {
    switch (ext.kind) {
      case ExtentKind::kReal:
        c = crc32_update(c, std::span<const std::byte>(
                                ext.data->data() + ext.data_off + in_ext, n));
        break;
      case ExtentKind::kZero: {
        c = crc32_update_words(c, n / 8, [] { return u64{0}; });
        static constexpr std::byte kZeros[8] = {};
        c = crc32_update(c, std::span(kZeros, n % 8));
        break;
      }
      case ExtentKind::kRand:
        split_rand_range(
            ext.seed, pos, n,
            [&](u64 word, u64 lane, u64 k) {
              std::byte part[8];
              put_word_bytes(word, lane, k, part);
              c = crc32_update(c, std::span(part, k));
            },
            [&](u64 block, u64 count) {
              c = crc32_update_words(c, count, [&] {
                return rand_word(ext.seed, block++);
              });
            });
        break;
    }
  });
  return c;
}

std::vector<std::byte> ByteImage::materialize(u64 off, u64 len) const {
  std::vector<std::byte> out(len);
  read(off, out);
  return out;
}

u64 ByteImage::real_bytes() const {
  u64 acc = 0;
  for (const auto& [off, ext] : ext_) {
    if (ext.kind == ExtentKind::kReal) acc += ext.len;
  }
  return acc;
}

u64 ByteImage::pattern_bytes(ExtentKind kind) const {
  u64 acc = 0;
  for (const auto& [off, ext] : ext_) {
    if (ext.kind == kind) acc += ext.len;
  }
  return acc;
}

void ByteImage::serialize(ByteWriter& w) const {
  w.put_u64(size_);
  w.put_u64(ext_.size());
  for (const auto& [off, ext] : ext_) {
    w.put_u64(off);
    w.put_u64(ext.len);
    w.put_u8(static_cast<u8>(ext.kind));
    w.put_u64(ext.seed);
    if (ext.kind == ExtentKind::kReal) {
      w.put_blob(std::span<const std::byte>(*ext.data).subspan(
          ext.data_off, ext.len));
    }
  }
}

ByteImage ByteImage::deserialize(ByteReader& r) {
  ByteImage img;
  img.size_ = r.get_u64();
  const u64 n = r.get_u64();
  for (u64 i = 0; i < n; ++i) {
    const u64 off = r.get_u64();
    Extent ext;
    ext.len = r.get_u64();
    ext.kind = static_cast<ExtentKind>(r.get_u8());
    ext.seed = r.get_u64();
    if (ext.kind == ExtentKind::kReal) {
      ext.data = std::make_shared<std::vector<std::byte>>(r.get_blob());
      DSIM_CHECK(ext.data->size() == ext.len);
    }
    img.ext_.emplace(off, std::move(ext));
  }
  img.check_invariants();
  return img;
}

void ByteImage::check_invariants() const {
  u64 expect = 0;
  for (const auto& [off, ext] : ext_) {
    DSIM_CHECK_MSG(off == expect, "ByteImage extents must be contiguous");
    DSIM_CHECK(ext.len > 0);
    expect = off + ext.len;
  }
  DSIM_CHECK_MSG(expect == size_, "ByteImage extents must cover size");
}

}  // namespace dsim::sim
