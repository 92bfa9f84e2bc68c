#include "ckptstore/cdc.h"

#include <algorithm>
#include <array>
#include <span>

#include "util/assertx.h"

namespace dsim::ckptstore {
namespace {

using sim::ByteImage;
using sim::ExtentKind;

/// 256 pseudo-random gear constants, generated once from splitmix64 so the
/// cutpoints are stable across runs and builds (chunk keys must be).
std::array<u64, 256> make_gear_table() {
  std::array<u64, 256> t{};
  u64 x = 0x9E3779B97F4A7C15ull;
  for (auto& v : t) {
    x += 0x9E3779B97F4A7C15ull;
    u64 z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    v = z ^ (z >> 31);
  }
  return t;
}

const std::array<u64, 256>& gear() {
  static const std::array<u64, 256> t = make_gear_table();
  return t;
}

void check_params(const ChunkingParams& p) {
  DSIM_CHECK_MSG(p.mode == ChunkingMode::kCdc ||
                     p.mode == ChunkingMode::kFastCdc,
                 "CDC scanner handed a non-CDC chunking mode");
  DSIM_CHECK_MSG(p.min_bytes > 0 && p.min_bytes <= p.avg_bytes &&
                     p.avg_bytes <= p.max_bytes,
                 "CDC bounds must satisfy 0 < min <= avg <= max");
  DSIM_CHECK_MSG((p.avg_bytes & (p.avg_bytes - 1)) == 0,
                 "CDC average chunk size must be a power of two");
}

/// Cuts a real/mixed run into content-defined spans as the run's bytes
/// stream past (ByteImage::for_each_run: real bytes in place, short
/// pattern fragments synthesized). The gear hash `h = (h << 1) +
/// gear[byte]` is a u64, so after 64 bytes every older byte has been
/// shifted out: h depends on the last 64 bytes only. That makes the cuts
/// exact while skipping most of each chunk's first min_bytes, and a byte
/// insertion perturbs cutpoints for at most one window before they
/// resynchronize with the pre-insertion boundaries.
///
/// Each chunk runs in phases, by its length after the byte at hand:
///   below min_bytes - 64   skipped (never read);
///   below min_bytes        hashed, not tested;
///   below avg_bytes        cut where h & mask_pre == 0;
///   below max_bytes        cut where h & mask_post == 0;
///   at max_bytes           cut.
/// Plain CDC tests one mask (avg - 1) in both test phases. FastCDC mode
/// normalizes the size distribution with two: below the target a stricter
/// mask (two extra bits → cuts 4x rarer) suppresses small chunks, above it
/// a looser mask (two fewer bits → cuts 4x likelier) pulls the tail in
/// before the hard max cut. Both masks are functions of window content and
/// distance from the last cut only, so resynchronization is preserved.
class GearCutter {
 public:
  GearCutter(const ChunkingParams& p, u64 run_off, std::vector<ChunkSpan>& out)
      : g_(gear().data()),
        skip_(p.min_bytes > 64 ? p.min_bytes - 64 : 0),
        min_(p.min_bytes),
        avg_(p.avg_bytes),
        max_(p.max_bytes),
        start_(run_off),
        out_(out) {
    const bool normalized = p.mode == ChunkingMode::kFastCdc;
    mask_pre_ = normalized ? p.avg_bytes * 4 - 1 : p.avg_bytes - 1;
    mask_post_ =
        normalized ? std::max<u64>(p.avg_bytes / 4, 1) - 1 : p.avg_bytes - 1;
  }

  void feed(std::span<const std::byte> run) {
    const u8* p = reinterpret_cast<const u8*>(run.data());
    const u8* const end = p + run.size();
    // len_ counts the current chunk's bytes before *p; *p makes it len_+1.
    while (p != end) {
      const u64 avail = static_cast<u64>(end - p);
      if (len_ + 1 >= max_) {
        ++p;
        cut(max_);
      } else if (len_ < skip_) {
        const u64 n = std::min(skip_ - len_, avail);
        p += n;
        len_ += n;
      } else if (len_ + 1 < min_) {
        const u64 n = std::min(min_ - 1 - len_, avail);
        for (const u8* e = p + n; p != e; ++p) h_ = (h_ << 1) + g_[*p];
        len_ += n;
      } else {
        const bool pre = len_ + 1 < avg_;
        const u64 mask = pre ? mask_pre_ : mask_post_;
        const u64 n = std::min((pre ? avg_ : max_) - 1 - len_, avail);
        const u8* const from = p;
        p = find_cut(p, p + n, mask);
        len_ += static_cast<u64>(p - from);
        if ((h_ & mask) == 0) cut(len_);
      }
    }
  }

  /// Emit the run's tail, which may be shorter than min_bytes.
  void finish() {
    if (len_ > 0) cut(len_);
  }

 private:
  // Hash [p, e) into h_ up to and including the first byte after which
  // h_ & mask == 0; return the position past the bytes hashed. Four bytes
  // a step, so the loop test is paid once per four cut tests.
  const u8* find_cut(const u8* p, const u8* const e, u64 mask) {
    u64 h = h_;
    const auto hit = [&](u8 b) {
      h = (h << 1) + g_[b];
      return (h & mask) == 0;
    };
    const auto stop = [&](const u8* at) {
      h_ = h;
      return at;
    };
    for (; e - p >= 4; p += 4) {
      if (hit(p[0])) return stop(p + 1);
      if (hit(p[1])) return stop(p + 2);
      if (hit(p[2])) return stop(p + 3);
      if (hit(p[3])) return stop(p + 4);
    }
    while (p != e) {
      if (hit(*p++)) break;
    }
    return stop(p);
  }

  void cut(u64 len) {
    out_.push_back(ChunkSpan{start_, len, ExtentKind::kReal, 0});
    start_ += len;
    len_ = 0;
    h_ = 0;
  }

  const u64* const g_;
  const u64 skip_, min_, avg_, max_;
  u64 mask_pre_ = 0, mask_post_ = 0;
  u64 start_;    // image offset of the current chunk
  u64 len_ = 0;  // bytes of the current chunk consumed
  u64 h_ = 0;
  std::vector<ChunkSpan>& out_;
};

}  // namespace

std::vector<ChunkSpan> scan_chunks_cdc(const ByteImage& img,
                                       const ChunkingParams& p) {
  check_params(p);
  std::vector<ChunkSpan> out;
  // Pattern extents at least min_bytes long stand alone: their boundaries
  // are content-determined by definition (the content *is* the descriptor),
  // so cutting at the extent edge keeps them dedupable without
  // materialization. Shorter pattern fragments fold into the surrounding
  // real run.
  u64 run_off = 0;   // start of the pending real/mixed run
  u64 run_len = 0;
  auto flush_run = [&] {
    if (run_len == 0) return;
    GearCutter cutter(p, run_off, out);
    img.for_each_run(run_off, run_len, [&](std::span<const std::byte> run) {
      cutter.feed(run);
    });
    cutter.finish();
    run_len = 0;
  };
  img.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
    if (e.kind != ExtentKind::kReal && e.len >= p.min_bytes) {
      flush_run();
      // Descriptor spans, cut at max_bytes (tail may be short).
      for (u64 done = 0; done < e.len; done += p.max_bytes) {
        const u64 len = std::min<u64>(p.max_bytes, e.len - done);
        out.push_back(ChunkSpan{off + done, len, e.kind, e.seed});
      }
      run_off = off + e.len;
      return;
    }
    if (run_len == 0) run_off = off;
    run_len = off + e.len - run_off;
  });
  flush_run();
  return out;
}

std::vector<ChunkSpan> scan_chunks_with(const ByteImage& img,
                                        const ChunkingParams& p) {
  // kCdc and kFastCdc share the scanner; the mode picks the mask scheme.
  return p.mode == ChunkingMode::kFixed ? scan_chunks(img, p.fixed_bytes)
                                        : scan_chunks_cdc(img, p);
}

}  // namespace dsim::ckptstore
