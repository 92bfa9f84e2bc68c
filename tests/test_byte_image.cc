// ByteImage property tests: every operation checked against a plain
// std::vector reference model, plus copy-on-write and serialization.
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "sim/byte_image.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace dsim::sim {
namespace {

TEST(ByteImage, FreshImageIsZero) {
  ByteImage img(1024);
  auto out = img.materialize(0, 1024);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(img.real_bytes(), 0u);
}

TEST(ByteImage, WriteThenReadBack) {
  ByteImage img(4096);
  std::vector<std::byte> data(100, std::byte{0xAB});
  img.write(1000, data);
  auto out = img.materialize(990, 120);
  EXPECT_EQ(out[9], std::byte{0});
  EXPECT_EQ(out[10], std::byte{0xAB});
  EXPECT_EQ(out[109], std::byte{0xAB});
  EXPECT_EQ(out[110], std::byte{0});
}

TEST(ByteImage, PatternContentIsPositionStable) {
  ByteImage img(1 << 20);
  img.fill(0, 1 << 20, ExtentKind::kRand, 7);
  auto a = img.materialize(5000, 64);
  // Splitting the extent by a write elsewhere must not change content.
  std::vector<std::byte> poke(8, std::byte{1});
  img.write(100000, poke);
  auto b = img.materialize(5000, 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(ByteImage, CopyIsCowCheap) {
  ByteImage img(64 << 20);
  img.fill(0, 64 << 20, ExtentKind::kRand, 9);
  ByteImage copy = img;  // O(#extents)
  std::vector<std::byte> poke(16, std::byte{0x7F});
  copy.write(1234, poke);
  // Original unchanged.
  EXPECT_NE(img.materialize(1234, 1)[0], std::byte{0x7F});
  EXPECT_EQ(copy.materialize(1234, 1)[0], std::byte{0x7F});
}

TEST(ByteImage, SerializeRoundTripPreservesEverything) {
  ByteImage img(100000);
  img.fill(0, 40000, ExtentKind::kRand, 3);
  std::vector<std::byte> real(5000);
  for (size_t i = 0; i < real.size(); ++i) {
    real[i] = static_cast<std::byte>(i * 31);
  }
  img.write(45000, real);
  ByteWriter w;
  img.serialize(w);
  auto bytes = w.take();
  ByteReader r(bytes);
  ByteImage back = ByteImage::deserialize(r);
  EXPECT_EQ(back.size(), img.size());
  EXPECT_EQ(back.content_crc(), img.content_crc());
}

TEST(ByteImage, ResizeGrowsWithZeros) {
  ByteImage img(10);
  std::vector<std::byte> data(10, std::byte{0xEE});
  img.write(0, data);
  img.resize(20);
  EXPECT_EQ(img.materialize(15, 1)[0], std::byte{0});
  img.resize(5);
  EXPECT_EQ(img.size(), 5u);
  EXPECT_EQ(img.materialize(4, 1)[0], std::byte{0xEE});
}

TEST(ByteImage, RunWalkReadsRealBytesInPlace) {
  constexpr u64 kScratch = ByteImage::kRunScratch;
  ByteImage img(5000 + 2 * kScratch + 1);
  img.write(0, std::vector<std::byte>(5000, std::byte{0x5a}));
  img.fill(5000, 2 * kScratch + 1, ExtentKind::kRand, 9);
  const std::byte* real = nullptr;
  img.for_each_extent([&](u64, const ByteImage::Extent& e) {
    if (e.kind == ExtentKind::kReal) real = e.data->data() + e.data_off;
  });
  std::vector<std::pair<const std::byte*, u64>> runs;
  img.for_each_run(10, img.size() - 10, [&](std::span<const std::byte> r) {
    runs.emplace_back(r.data(), r.size());
  });
  // The real piece straight from its buffer, then the kRand piece in
  // scratch-sized runs.
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].first, real + 10);
  EXPECT_EQ(runs[0].second, 4990u);
  EXPECT_EQ(runs[1].second, kScratch);
  EXPECT_EQ(runs[2].second, kScratch);
  EXPECT_EQ(runs[3].second, 1u);
}

class ByteImageFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(ByteImageFuzz, MatchesReferenceVector) {
  Rng rng(GetParam());
  const u64 size = 1 + rng.next_below(200000);
  ByteImage img(size);
  std::vector<std::byte> ref(size, std::byte{0});
  for (int op = 0; op < 120; ++op) {
    const u64 off = rng.next_below(size);
    const u64 len = std::min<u64>(1 + rng.next_below(5000), size - off);
    switch (rng.next_below(3)) {
      case 0: {  // write real bytes
        std::vector<std::byte> data(len);
        for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
        img.write(off, data);
        std::copy(data.begin(), data.end(), ref.begin() + off);
        break;
      }
      case 1: {  // fill zero
        img.fill(off, len, ExtentKind::kZero);
        std::fill(ref.begin() + off, ref.begin() + off + len, std::byte{0});
        break;
      }
      case 2: {  // fill pattern; mirror through rand_byte
        const u64 seed = rng.next_u64();
        img.fill(off, len, ExtentKind::kRand, seed);
        for (u64 i = 0; i < len; ++i) {
          ref[off + i] =
              static_cast<std::byte>(ByteImage::rand_byte(seed, off + i));
        }
        break;
      }
    }
  }
  auto out = img.materialize(0, size);
  ASSERT_TRUE(std::equal(out.begin(), out.end(), ref.begin()))
      << "divergence from reference model";

  // The extent-walking CRC equals the CRC of the materialized bytes: on the
  // whole image, on random sub-ranges, and on ranges that start and end off
  // the eight-byte kRand word grid (including inside a single word).
  std::vector<std::pair<u64, u64>> ranges{{0, size}, {size, 0}};
  for (int i = 0; i < 48; ++i) {
    const u64 off = rng.next_below(size + 1);
    ranges.emplace_back(off, rng.next_below(size - off + 1));
  }
  img.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
    if (e.kind != ExtentKind::kRand || e.len < 8) return;
    ranges.emplace_back(off, e.len);
    ranges.emplace_back(off + 1, e.len - 2);
    ranges.emplace_back(off + 3, 3);
    ranges.emplace_back(off + 5, rng.next_below(e.len - 5));
  });
  // The same ranges walked as byte runs concatenate to the same bytes.
  for (const auto& [off, len] : ranges) {
    const auto bytes = img.materialize(off, len);
    EXPECT_EQ(img.crc(off, len), crc32(bytes))
        << "range [" << off << ", +" << len << ")";
    std::vector<std::byte> walked;
    img.for_each_run(off, len, [&](std::span<const std::byte> run) {
      walked.insert(walked.end(), run.begin(), run.end());
    });
    EXPECT_EQ(walked, bytes) << "range [" << off << ", +" << len << ")";
  }
  EXPECT_EQ(img.content_crc(), crc32(ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteImageFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace dsim::sim
