// Micro-benchmarks of the substrate (google-benchmark): compressor
// throughput by content class and per codec stage, sparse ByteImage
// operations, kRand pattern synthesis, event-loop dispatch, CRC32, chunk
// keying, CDC cutting and exact-length socket I/O. These are host-side
// costs, not virtual-time results.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "ckptstore/cdc.h"
#include "ckptstore/chunk.h"
#include "compress/compressor.h"
#include "compress/huffman.h"
#include "compress/lz77.h"
#include "util/serialize.h"
#include "sim/byte_image.h"
#include "sim/event_loop.h"
#include "sim/kernel.h"
#include "sim/pctx.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace {

using namespace dsim;

std::vector<std::byte> make_data(const std::string& kind, size_t n) {
  std::vector<std::byte> data(n);
  Rng rng(42);
  if (kind == "zero") return data;
  if (kind == "rand") {
    for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
    return data;
  }
  // "text": structured, repetitive content.
  const char* words[] = {"checkpoint ", "restart ", "drain ", "socket "};
  size_t i = 0;
  while (i < n) {
    const char* w = words[rng.next_below(4)];
    for (const char* p = w; *p && i < n; ++p) data[i++] = std::byte(*p);
  }
  return data;
}

void BM_GzipishCompress(benchmark::State& state, const std::string& kind) {
  auto data = make_data(kind, 1 << 20);
  const auto& codec = compress::codec(compress::CodecKind::kGzipish);
  for (auto _ : state) {
    auto out = codec.compress(data);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * (1 << 20));
}
BENCHMARK_CAPTURE(BM_GzipishCompress, zero, std::string("zero"));
BENCHMARK_CAPTURE(BM_GzipishCompress, text, std::string("text"));
BENCHMARK_CAPTURE(BM_GzipishCompress, rand, std::string("rand"));

void BM_GzipishRoundTrip(benchmark::State& state) {
  auto data = make_data("text", 256 << 10);
  const auto& codec = compress::codec(compress::CodecKind::kGzipish);
  for (auto _ : state) {
    auto out = codec.decompress(codec.compress(data));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GzipishRoundTrip);

// Checkpoint-image-like bytes: 2 KiB slots of iterated doubles (the NAS
// kernels' array update) between zero runs, about 57% zero like a
// serialized mpi_nas image.
std::vector<std::byte> make_image_like(size_t n) {
  std::vector<std::byte> data(n);
  Rng rng(43);
  std::vector<double> v(256);
  size_t off = 0;
  while (off < n) {
    off += 8 * rng.next_below(680);  // zero run
    for (auto& x : v) {
      x = x * 0.75 + static_cast<double>(rng.next_below(256)) / 256.0;
    }
    const size_t len = std::min(n - std::min(off, n), v.size() * 8);
    if (len > 0) std::memcpy(data.data() + off, v.data(), len);
    off += len;
  }
  return data;
}

// Inputs of the gzip-class pipeline's stages: the raw bytes, LZ77's token
// stream (what the Huffman stage encodes) and its Huffman encoding.
struct CodecStages {
  std::vector<std::byte> raw, tokens, entropy;
};

CodecStages codec_stages(const std::string& kind) {
  CodecStages s;
  s.raw = kind == "image" ? make_image_like(192 << 10)
                          : make_data(kind, 1 << 20);
  s.tokens = compress::lz77_compress(s.raw);
  s.entropy = compress::huffman_encode(s.tokens);
  return s;
}

// Each stage alone. Throughput counts the stage's uncompressed side: raw
// bytes for LZ77, token bytes for Huffman.
void BM_Lz77Compress(benchmark::State& state, const std::string& kind) {
  const auto s = codec_stages(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::lz77_compress(s.raw));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * s.raw.size()));
}
BENCHMARK_CAPTURE(BM_Lz77Compress, text, std::string("text"));
BENCHMARK_CAPTURE(BM_Lz77Compress, image, std::string("image"));

void BM_Lz77Decompress(benchmark::State& state, const std::string& kind) {
  const auto s = codec_stages(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compress::lz77_decompress(s.tokens, s.raw.size()));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * s.raw.size()));
}
BENCHMARK_CAPTURE(BM_Lz77Decompress, text, std::string("text"));
BENCHMARK_CAPTURE(BM_Lz77Decompress, image, std::string("image"));

void BM_HuffmanEncode(benchmark::State& state, const std::string& kind) {
  const auto s = codec_stages(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::huffman_encode(s.tokens));
  }
  state.SetBytesProcessed(
      static_cast<i64>(state.iterations() * s.tokens.size()));
}
BENCHMARK_CAPTURE(BM_HuffmanEncode, text, std::string("text"));
BENCHMARK_CAPTURE(BM_HuffmanEncode, image, std::string("image"));

void BM_HuffmanDecode(benchmark::State& state, const std::string& kind) {
  const auto s = codec_stages(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::huffman_decode(s.entropy));
  }
  state.SetBytesProcessed(
      static_cast<i64>(state.iterations() * s.tokens.size()));
}
BENCHMARK_CAPTURE(BM_HuffmanDecode, text, std::string("text"));
BENCHMARK_CAPTURE(BM_HuffmanDecode, image, std::string("image"));

// The whole container decode: Huffman, LZ77 and the CRC-32 check.
void BM_GzipishDecompress(benchmark::State& state, const std::string& kind) {
  const auto s = codec_stages(kind);
  const auto& codec = compress::codec(compress::CodecKind::kGzipish);
  const auto packed = codec.compress(s.raw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decompress(packed));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * s.raw.size()));
}
BENCHMARK_CAPTURE(BM_GzipishDecompress, text, std::string("text"));
BENCHMARK_CAPTURE(BM_GzipishDecompress, image, std::string("image"));

void BM_ByteImageWrite(benchmark::State& state) {
  sim::ByteImage img(64 << 20);
  std::vector<std::byte> chunk(4096, std::byte{0x5a});
  u64 off = 0;
  for (auto _ : state) {
    img.write(off % (60 << 20), chunk);
    off += 4096;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 4096);
}
BENCHMARK(BM_ByteImageWrite);

using dsim::ByteWriter;

void BM_ByteImageSerializeSparse(benchmark::State& state) {
  sim::ByteImage img(1ull << 30);  // 1 GB virtual, mostly pattern
  img.fill(0, 1ull << 30, sim::ExtentKind::kRand, 7);
  std::vector<std::byte> chunk(4096, std::byte{0x5a});
  img.write(4096, chunk);
  for (auto _ : state) {
    ByteWriter w;
    img.serialize(w);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_ByteImageSerializeSparse);

void BM_EventLoopPostRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < 1000; ++i) {
      loop.post_in(i, [] {});
    }
    loop.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopPostRun);

void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  auto data = make_data("rand", n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * n));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

// A 64 KiB kRand span at an odd offset, as the chunk store CRCs a new
// pattern chunk: content generated straight into the CRC.
void BM_ByteImageCrcRand(benchmark::State& state) {
  constexpr u64 kSpan = 64 << 10;
  sim::ByteImage img(kSpan + 8);
  img.fill(0, kSpan + 8, sim::ExtentKind::kRand, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img.crc(3, kSpan));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * kSpan));
}
BENCHMARK(BM_ByteImageCrcRand);

// Materializing the same kRand span into a buffer.
void BM_ByteImageReadRand(benchmark::State& state) {
  constexpr u64 kSpan = 64 << 10;
  sim::ByteImage img(kSpan + 8);
  img.fill(0, kSpan + 8, sim::ExtentKind::kRand, 7);
  std::vector<std::byte> out(kSpan);
  for (auto _ : state) {
    img.read(3, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * kSpan));
}
BENCHMARK(BM_ByteImageReadRand);

// Real bytes with run-length structure (values 0..3, runs of 1..300), the
// heap content of perfbench's store_restart workload.
std::vector<std::byte> make_runs(size_t n) {
  std::vector<std::byte> data(n);
  Rng rng(44);
  for (size_t i = 0; i < n;) {
    const auto v = static_cast<std::byte>(rng.next_below(4));
    for (size_t run = 1 + rng.next_below(300); run > 0 && i < n; --run) {
      data[i++] = v;
    }
  }
  return data;
}

// One 256 KiB real chunk keyed by content (both FNV-1a streams).
void BM_ContentKey(benchmark::State& state) {
  const auto data = make_runs(256 << 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckptstore::content_key(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * data.size()));
}
BENCHMARK(BM_ContentKey);

// A 4 MiB segment cut with store_restart's 16/64/256 KiB bounds. "runs" is
// one real run-length extent; "mixed" folds zero and kRand fragments
// shorter than min_bytes into it and adds two pattern extents that stand
// alone. Throughput counts the whole segment.
void BM_CdcCut(benchmark::State& state, ckptstore::ChunkingMode mode,
               bool mixed) {
  constexpr u64 kSeg = 4 << 20;
  sim::ByteImage img(kSeg);
  img.write(0, make_runs(kSeg));
  if (mixed) {
    Rng rng(45);
    for (u64 off = 4096; off + 40000 < kSeg; off += 30000) {
      img.fill(off, 1 + rng.next_below(8000),
               rng.next_below(2) ? sim::ExtentKind::kZero
                                 : sim::ExtentKind::kRand,
               rng.next_u64());
    }
    img.fill(kSeg / 4, 300 << 10, sim::ExtentKind::kRand, 9);
    img.fill(kSeg / 2, 200 << 10, sim::ExtentKind::kZero);
  }
  ckptstore::ChunkingParams p;
  p.mode = mode;
  p.min_bytes = 16 << 10;
  p.avg_bytes = 64 << 10;
  p.max_bytes = 256 << 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckptstore::scan_chunks_cdc(img, p));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * kSeg));
}
BENCHMARK_CAPTURE(BM_CdcCut, cdc/runs, ckptstore::ChunkingMode::kCdc, false);
BENCHMARK_CAPTURE(BM_CdcCut, cdc/mixed, ckptstore::ChunkingMode::kCdc, true);
BENCHMARK_CAPTURE(BM_CdcCut, fastcdc/runs, ckptstore::ChunkingMode::kFastCdc,
                  false);
BENCHMARK_CAPTURE(BM_CdcCut, fastcdc/mixed,
                  ckptstore::ChunkingMode::kFastCdc, true);

// One 48 KiB message (an MG halo) per iteration: write_exact in a process
// on node 0, read_exact into a reused buffer in a process on node 1, over
// one TCP connection. It covers both sides' copies, segmenting, flow
// control and event dispatch. "zero" sends a fresh buffer's zero extent,
// "real" real bytes; throughput counts message bytes.
void BM_SocketExact(benchmark::State& state, bool real) {
  constexpr u64 kMsg = 48 << 10;
  constexpr u16 kPort = 7000;
  sim::KernelConfig cfg;
  cfg.num_nodes = 2;
  sim::Kernel k(cfg);
  sim::Program p;
  p.name = "halo";
  p.main = [&](sim::ProcessCtx& ctx) -> sim::Task<int> {
    sim::MemSegment& buf = ctx.alloc("buf", sim::MemKind::kHeap, kMsg);
    if (ctx.process().argv().at(0) == "recv") {
      const Fd l = co_await ctx.socket();
      const bool bound = co_await ctx.bind(l, kPort);
      DSIM_CHECK(bound);
      co_await ctx.listen(l);
      const Fd fd = co_await ctx.accept(l);
      while (true) {
        co_await ctx.read_exact(fd, {&buf, 0}, kMsg, 0);
        ctx.kernel().loop().stop();  // one message per iteration
      }
    }
    if (real) buf.data.write(0, make_data("rand", kMsg));
    const Fd fd = co_await ctx.socket();
    const bool connected = co_await ctx.connect(fd, {1, kPort});
    DSIM_CHECK(connected);
    while (true) co_await ctx.write_exact(fd, {&buf, 0}, kMsg, 0);
  };
  k.programs().add(std::move(p));
  k.spawn_process(1, "halo", {"recv"}, {});
  k.spawn_process(0, "halo", {"send"}, {});
  for (auto _ : state) k.loop().run();
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * kMsg));
}
BENCHMARK_CAPTURE(BM_SocketExact, zero, false);
BENCHMARK_CAPTURE(BM_SocketExact, real, true);

}  // namespace

BENCHMARK_MAIN();
