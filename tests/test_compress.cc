// Compressor unit + property tests: exact round-trips across codecs,
// content classes and sizes; ratio ordering; container integrity.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "ckptstore/cdc.h"
#include "compress/compressor.h"
#include "compress/huffman.h"
#include "compress/lz77.h"
#include "sim/byte_image.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace dsim::compress {
namespace {

std::vector<std::byte> make_content(const std::string& kind, size_t n,
                                    u64 seed) {
  std::vector<std::byte> data(n);
  Rng rng(seed);
  if (kind == "zero") return data;
  if (kind == "rand") {
    for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
  } else if (kind == "text") {
    const std::string vocab = "the quick checkpoint restarted the socket ";
    for (size_t i = 0; i < n; ++i) data[i] = std::byte(vocab[i % vocab.size()]);
  } else if (kind == "runs") {
    size_t i = 0;
    while (i < n) {
      const auto v = static_cast<std::byte>(rng.next_below(4));
      const size_t run = 1 + rng.next_below(300);
      for (size_t j = 0; j < run && i < n; ++j) data[i++] = v;
    }
  } else if (kind == "mixed") {
    for (size_t i = 0; i < n; ++i) {
      data[i] = (i / 512) % 2 ? std::byte{0}
                              : static_cast<std::byte>(rng.next_u64());
    }
  }
  return data;
}

// A checkpoint-image-like buffer: 2 KiB slots of iterated doubles (the
// NAS kernels' `x = 0.75 x + b/256` array update) separated by zero runs of
// varying length, as in the mostly-zero `arrays`/`mpi_scratch` segments of
// a serialized MTCP image.
std::vector<std::byte> make_image_like(size_t n, u64 seed) {
  std::vector<std::byte> data(n);
  Rng rng(seed);
  std::vector<double> v(256);
  size_t off = 0;
  while (off < n) {
    off += 8 * rng.next_below(1024);  // zero run
    for (auto& x : v) {
      x = x * 0.75 + static_cast<double>(rng.next_below(256)) / 256.0;
    }
    const size_t len = std::min(n - std::min(off, n), v.size() * 8);
    if (len > 0) std::memcpy(data.data() + off, v.data(), len);
    off += len;
  }
  return data;
}

// 24 symbols with Fibonacci frequencies 1, 1, 2, 3, 5, ..., shuffled. The
// unconstrained Huffman tree over these weights is 23 levels deep, so the
// encoder must take its dampen-and-retry path to fit the 15-bit limit.
std::vector<std::byte> make_fibonacci(u64 seed) {
  std::vector<std::byte> data;
  u64 a = 1, b = 1;
  for (int s = 0; s < 24; ++s) {
    data.insert(data.end(), a, static_cast<std::byte>('A' + s));
    const u64 next = a + b;
    a = b;
    b = next;
  }
  Rng rng(seed);
  for (size_t i = data.size(); i > 1; --i) {
    std::swap(data[i - 1], data[rng.next_below(i)]);
  }
  return data;
}

using Param = std::tuple<CodecKind, std::string, size_t>;

class RoundTrip : public ::testing::TestWithParam<Param> {};

TEST_P(RoundTrip, ExactRecovery) {
  const auto [kind, content, size] = GetParam();
  const auto data = make_content(content, size, 0x5eed ^ size);
  const auto& c = codec(kind);
  const auto compressed = c.compress(data);
  // The header's CRC is the one the chunk store records for new chunks.
  EXPECT_EQ(container_crc(compressed), crc32(data));
  const auto out = c.decompress(compressed);
  ASSERT_EQ(out.size(), data.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsContentsSizes, RoundTrip,
    ::testing::Combine(
        ::testing::Values(CodecKind::kNone, CodecKind::kRle,
                          CodecKind::kLz77, CodecKind::kHuffman,
                          CodecKind::kGzipish),
        ::testing::Values("zero", "rand", "text", "runs", "mixed"),
        ::testing::Values(size_t{0}, size_t{1}, size_t{3}, size_t{257},
                          size_t{4096}, size_t{100000})),
    [](const auto& info) {
      return codec_name(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param) + "_" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Compressor, GzipishBeatsRleOnText) {
  const auto data = make_content("text", 64 * 1024, 1);
  const double gz = measure_ratio(CodecKind::kGzipish, data);
  const double rle = measure_ratio(CodecKind::kRle, data);
  EXPECT_LT(gz, 0.2);
  EXPECT_LT(gz, rle);
}

TEST(Compressor, ZerosCompressNearlyAway) {
  const auto data = make_content("zero", 1 << 20, 0);
  EXPECT_LT(measure_ratio(CodecKind::kGzipish, data), 0.01);
}

TEST(Compressor, RandomDataDoesNotExplode) {
  const auto data = make_content("rand", 1 << 20, 2);
  // Incompressible input falls back to store mode: tiny overhead only.
  EXPECT_LT(measure_ratio(CodecKind::kGzipish, data), 1.01);
}

TEST(Compressor, RatioOrderingMatchesEntropy) {
  const size_t n = 256 * 1024;
  const double zero = measure_ratio(CodecKind::kGzipish,
                                    make_content("zero", n, 0));
  const double runs = measure_ratio(CodecKind::kGzipish,
                                    make_content("runs", n, 3));
  const double text = measure_ratio(CodecKind::kGzipish,
                                    make_content("text", n, 4));
  const double rand = measure_ratio(CodecKind::kGzipish,
                                    make_content("rand", n, 5));
  EXPECT_LT(zero, runs);
  EXPECT_LT(runs, text + 0.2);
  EXPECT_LT(text, rand);
}

TEST(Compressor, ParseCodecNamesAndCostFactors) {
  CodecKind k = CodecKind::kNone;
  EXPECT_TRUE(parse_codec("none", &k));
  EXPECT_EQ(k, CodecKind::kNone);
  EXPECT_TRUE(parse_codec("rle", &k));
  EXPECT_EQ(k, CodecKind::kRle);
  EXPECT_TRUE(parse_codec("lz77", &k));
  EXPECT_EQ(k, CodecKind::kLz77);
  EXPECT_TRUE(parse_codec("huffman", &k));
  EXPECT_EQ(k, CodecKind::kHuffman);
  EXPECT_TRUE(parse_codec("lz77+huffman", &k));
  EXPECT_EQ(k, CodecKind::kGzipish);
  EXPECT_TRUE(parse_codec("gzip", &k));
  EXPECT_EQ(k, CodecKind::kGzipish);
  EXPECT_FALSE(parse_codec("zstd", &k));
  EXPECT_FALSE(parse_codec("", &k));
  // Cost factors scale the modeled CPU seconds: free pass-through at one
  // end, the full two-stage pipeline at the other, single stages between.
  EXPECT_EQ(codec_cost_factor(CodecKind::kNone), 0.0);
  EXPECT_LT(codec_cost_factor(CodecKind::kRle),
            codec_cost_factor(CodecKind::kHuffman));
  EXPECT_LT(codec_cost_factor(CodecKind::kHuffman),
            codec_cost_factor(CodecKind::kLz77));
  EXPECT_LT(codec_cost_factor(CodecKind::kLz77),
            codec_cost_factor(CodecKind::kGzipish));
  EXPECT_EQ(codec_cost_factor(CodecKind::kGzipish), 1.0);
}

TEST(Compressor, CdcChunkCorpusRoundTripsWithSaneRatios) {
  // The async pipeline streams exactly these payloads to the store: build
  // a checkpoint-image-like region mix (text, zero pages, half-zero mixed
  // spans, incompressible random pages, pattern ballast), cut it with the
  // production CDC chunker, and push every chunk through every codec.
  const auto text = make_content("text", 96 * 1024, 0xC0);
  const auto mixed = make_content("mixed", 64 * 1024, 0xC1);
  const auto rand_pages = make_content("rand", 16 * 4096, 0xC2);
  const u64 zero_len = 64 * 1024;
  const u64 ballast_len = 32 * 4096;
  sim::ByteImage img;
  img.resize(text.size() + zero_len + mixed.size() + rand_pages.size() +
             ballast_len);
  u64 off = 0;
  img.write(off, text);
  off += text.size();
  img.fill(off, zero_len, sim::ExtentKind::kZero, 0);
  off += zero_len;
  img.write(off, mixed);
  off += mixed.size();
  const u64 rand_off = off;
  img.write(off, rand_pages);
  off += rand_pages.size();
  const u64 rand_end = off;
  img.fill(off, ballast_len, sim::ExtentKind::kRand, 0xC3);

  ckptstore::ChunkingParams p;
  p.mode = ckptstore::ChunkingMode::kCdc;
  p.min_bytes = 2 * 1024;
  p.avg_bytes = 8 * 1024;
  p.max_bytes = 32 * 1024;
  const auto spans = ckptstore::scan_chunks_cdc(img, p);
  ASSERT_GT(spans.size(), 12u);

  for (const CodecKind kind :
       {CodecKind::kNone, CodecKind::kRle, CodecKind::kLz77,
        CodecKind::kHuffman, CodecKind::kGzipish}) {
    const auto& c = codec(kind);
    u64 raw = 0, packed = 0;
    u64 zero_raw = 0, zero_packed = 0;
    u64 rand_raw = 0, rand_packed = 0;
    size_t rand_spans = 0;
    for (const auto& s : spans) {
      const auto payload = img.materialize(s.off, s.len);
      const auto compressed = c.compress(payload);
      const auto out = c.decompress(compressed);
      ASSERT_TRUE(out == payload)
          << codec_name(kind) << " span @" << s.off << "+" << s.len;
      raw += payload.size();
      packed += compressed.size();
      if (s.kind == sim::ExtentKind::kZero) {
        zero_raw += payload.size();
        zero_packed += compressed.size();
      }
      if (s.off >= rand_off && s.off < rand_end) {
        rand_raw += payload.size();
        rand_packed += compressed.size();
        rand_spans++;
      }
    }
    ASSERT_GT(zero_raw, 0u);
    ASSERT_GT(rand_raw, 0u);
    // Ratio sanity, per codec. RLE is the one codec with no store-mode
    // fallback, so incompressible input can double (2 bytes per literal);
    // everything else is bounded by the container overhead. Zero pages all
    // but vanish — except under plain Huffman, whose single-symbol floor
    // is one bit per byte (ratio 1/8).
    const u64 worst = kind == CodecKind::kRle ? 2 * raw : raw;
    EXPECT_LT(packed, worst + spans.size() * 64) << codec_name(kind);
    if (kind != CodecKind::kNone) {
      const double zero_bound = kind == CodecKind::kHuffman ? 0.15 : 0.05;
      EXPECT_LT(static_cast<double>(zero_packed),
                zero_bound * static_cast<double>(zero_raw))
          << codec_name(kind);
    }
    const u64 rand_worst =
        kind == CodecKind::kRle ? 2 * rand_raw : rand_raw;
    EXPECT_LT(rand_packed, rand_worst + rand_spans * 64) << codec_name(kind);
    if (kind == CodecKind::kGzipish) {
      // The full pipeline wins clearly on the corpus as a whole.
      EXPECT_LT(static_cast<double>(packed), 0.75 * static_cast<double>(raw));
    }
  }
}

TEST(Compressor, ContainerRejectsCorruptMagic) {
  const auto data = make_content("text", 1024, 6);
  auto compressed = codec(CodecKind::kGzipish).compress(data);
  compressed[0] = std::byte{0xFF};
  EXPECT_DEATH(codec(CodecKind::kGzipish).decompress(compressed), "magic");
}

TEST(Compressor, ContainerDetectsPayloadCorruption) {
  const auto data = make_content("text", 8 * 1024, 7);
  auto compressed = codec(CodecKind::kNone).compress(data);
  compressed[compressed.size() / 2] ^= std::byte{0x01};
  EXPECT_DEATH(codec(CodecKind::kNone).decompress(compressed), "CRC");
}

// Container bytes are a pinned format: compressed sizes feed the virtual
// write time, so a codec change that moves one byte moves every checkpoint
// figure. These CRC-32s of whole containers were produced by the original
// byte-at-a-time codec; faster implementations must reproduce them exactly.
// (The LZ77 hash reads words in host order; the values assume a
// little-endian host.)
constexpr std::array<size_t, 9> kGoldenSizes = {
    0, 1, 7, 8, 9, 257, 4096, 65537, (size_t{1} << 20) + 13};

struct GoldenRow {
  CodecKind kind;
  const char* content;
  std::array<u32, kGoldenSizes.size()> crc;
};

const GoldenRow kGolden[] = {
    {CodecKind::kLz77,
     "zero",
     {0x9e3d5c3e, 0xa25c50d1, 0x5acb8ace, 0x9d20db56, 0x18871523,
      0xa889a92f, 0xc4160898, 0xe6672620, 0x3e3fb108}},
    {CodecKind::kLz77,
     "rand",
     {0x9e3d5c3e, 0x5e3cba62, 0x2ef648e8, 0x197d55bb, 0x85dc1812,
      0x290356a2, 0x79e5e16e, 0xab961748, 0x2dae46df}},
    {CodecKind::kLz77,
     "text",
     {0x9e3d5c3e, 0xed1311cc, 0xcdfbf447, 0x46b0dff5, 0xcf9624e2,
      0x4bbee491, 0x818be7a1, 0xe1934612, 0x7a7f3287}},
    {CodecKind::kLz77,
     "runs",
     {0x9e3d5c3e, 0x732c6bf3, 0x5acb8ace, 0x56257f2c, 0x9f332d1a,
      0x6b378e06, 0x454bd194, 0xe2f585d9, 0x7c938bed}},
    {CodecKind::kLz77,
     "mixed",
     {0x9e3d5c3e, 0x5e3cba62, 0x2ef648e8, 0x197d55bb, 0x85dc1812,
      0x290356a2, 0xc2db0716, 0xb11b28f7, 0xb6b1f966}},
    {CodecKind::kHuffman,
     "zero",
     {0xfbf0f6fe, 0x395d5fcb, 0x332c0c96, 0xc99924d8, 0x9762dd2b,
      0xe1c66a31, 0x72edcdab, 0xb7f7db1f, 0x23329fff}},
    {CodecKind::kHuffman,
     "rand",
     {0xfbf0f6fe, 0xc53db578, 0x4711ceb0, 0x7ca46bfb, 0xf36580bc,
      0xe16b9f1e, 0xd5111d0f, 0x92985df8, 0x1a5f74ed}},
    {CodecKind::kHuffman,
     "text",
     {0xfbf0f6fe, 0x76121ed6, 0xa41c721f, 0x2369e1b5, 0xb92fbc4c,
      0x460180e6, 0x3bef192c, 0x4605fb00, 0x09f8aae7}},
    {CodecKind::kHuffman,
     "runs",
     {0xfbf0f6fe, 0xe82d64e9, 0x332c0c96, 0x4d2d374f, 0x49250a06,
      0x15599051, 0xe2f12323, 0xa5547868, 0x5b635e77}},
    {CodecKind::kHuffman,
     "mixed",
     {0xfbf0f6fe, 0xc53db578, 0x4711ceb0, 0x7ca46bfb, 0xf36580bc,
      0xe16b9f1e, 0xac32f2ab, 0x12c1ae95, 0xa3cb4aaf}},
    {CodecKind::kGzipish,
     "zero",
     {0x0332bd48, 0x1ba78b39, 0xc5110950, 0xbb687e58, 0x7aa8af51,
      0x07605669, 0xe261e672, 0x992addf0, 0x325c124a}},
    {CodecKind::kGzipish,
     "rand",
     {0x0332bd48, 0xe7c7618a, 0xb12ccb76, 0x0e55317b, 0x1eaff2c6,
      0x07cda346, 0xca54aa23, 0x6cc90c35, 0x62f521a2}},
    {CodecKind::kGzipish,
     "text",
     {0x0332bd48, 0x54e8ca24, 0x522177d9, 0x5198bb35, 0x54e5ce36,
      0xa0a7bcbe, 0x7e175703, 0xbe73d9be, 0x707f5cba}},
    {CodecKind::kGzipish,
     "runs",
     {0x0332bd48, 0xcad7b01b, 0xc5110950, 0x3fdc6dcf, 0xa4ef787c,
      0xf3ffac09, 0x83aea619, 0x2af366d2, 0x651d7738}},
    {CodecKind::kGzipish,
     "mixed",
     {0x0332bd48, 0xe7c7618a, 0xb12ccb76, 0x0e55317b, 0x1eaff2c6,
      0x07cda346, 0xb7fcc759, 0x281f7296, 0xa5a3d0f4}},
};

struct GoldenCase {
  CodecKind kind;
  const char* content;
  u32 crc;
};

const GoldenCase kGoldenSpecial[] = {
    {CodecKind::kLz77, "image", 0xc96a9f52},
    {CodecKind::kHuffman, "image", 0xbee846ac},
    {CodecKind::kGzipish, "image", 0x34542107},
    {CodecKind::kLz77, "fib", 0xbd8420cb},
    {CodecKind::kHuffman, "fib", 0xc729efc7},
    {CodecKind::kGzipish, "fib", 0x999817de},
};

u32 container_crc(CodecKind kind, const std::vector<std::byte>& data) {
  const auto& c = codec(kind);
  const auto packed = c.compress(data);
  EXPECT_TRUE(c.decompress(packed) == data);
  return crc32(packed);
}

TEST(CompressGolden, ContainersMatchPinnedBytes) {
  for (const auto& row : kGolden) {
    for (size_t k = 0; k < kGoldenSizes.size(); ++k) {
      const size_t size = kGoldenSizes[k];
      const auto data = make_content(row.content, size, 0x5eed ^ size);
      const u32 got = container_crc(row.kind, data);
      EXPECT_EQ(got, row.crc[k]) << "golden " << codec_name(row.kind) << " "
                                 << row.content << " " << size << " 0x"
                                 << std::hex << got;
    }
  }
}

TEST(CompressGolden, ImageLikeAndDeepHuffmanMatchPinnedBytes) {
  for (const auto& g : kGoldenSpecial) {
    const std::string content = g.content;
    const auto data = content == "image"
                          ? make_image_like((192 << 10) + 5, 0x1A6E)
                          : make_fibonacci(0xF1B);
    const u32 got = container_crc(g.kind, data);
    EXPECT_EQ(got, g.crc) << "special " << codec_name(g.kind) << " "
                          << content << " 0x" << std::hex << got;
  }
}

TEST(Compressor, HuffmanLengthLimitRetryRoundTrips) {
  const auto data = make_fibonacci(0xF1B);
  const auto& c = codec(CodecKind::kHuffman);
  const auto packed = c.compress(data);
  ASSERT_TRUE(c.decompress(packed) == data);
  // Container header (17 bytes), mode byte, then the 256 code lengths.
  constexpr size_t kLengths = 17 + 1;
  ASSERT_EQ(static_cast<u8>(packed[kLengths - 1]), 1);
  u8 max_len = 0;
  int used = 0;
  for (size_t s = 0; s < 256; ++s) {
    const u8 len = static_cast<u8>(packed[kLengths + s]);
    max_len = std::max(max_len, len);
    used += len > 0;
  }
  EXPECT_EQ(used, 24);
  EXPECT_LE(max_len, 15);
}

std::vector<std::byte> bytes(std::initializer_list<int> v) {
  std::vector<std::byte> out;
  for (int b : v) out.push_back(static_cast<std::byte>(b));
  return out;
}

TEST(Compressor, Lz77RejectsLiteralLengthThatWrapsPosition) {
  // A literal run whose varint length is 2^64 - 1: pos + len wraps.
  const auto tokens = bytes({0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                             0xFF, 0xFF, 0x01, 'a', 'b'});
  EXPECT_DEATH(lz77_decompress(tokens, 2), "lz77 literal overrun");
}

TEST(Compressor, Lz77RejectsMatchLongerThanExpectedSize) {
  // One literal, then a match of 2^40 bytes for a 16-byte image.
  const auto tokens =
      bytes({0x00, 0x01, 'a', 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0x01});
  EXPECT_DEATH(lz77_decompress(tokens, 16), "lz77 match overrun");
}

TEST(Compressor, HuffmanRejectsCorruptHeader) {
  // [256 code lengths][u64 symbol count][bitstream]: one 1-bit code.
  auto stream = [](u8 len, u64 count) {
    ByteWriter w;
    w.put_u8(len);
    for (int s = 1; s < 256; ++s) w.put_u8(0);
    w.put_u64(count);
    w.put_u8(0);
    return w.take();
  };
  ASSERT_EQ(huffman_decode(stream(1, 8)).size(), 8u);
  // A code length past the 15-bit limit.
  EXPECT_DEATH(huffman_decode(stream(200, 8)), "corrupt huffman stream");
  // More symbols than the bits could hold: rejected before allocating.
  EXPECT_DEATH(huffman_decode(stream(1, u64{1} << 40)),
               "corrupt huffman stream");
}

}  // namespace
}  // namespace dsim::compress
