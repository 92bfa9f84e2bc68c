// Simulation-core unit tests: event loop, CPU fluid sharing, storage
// queueing, network, deterministic RNG, utility types, and exact-length
// I/O through the simulated kernel.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/kernel.h"
#include "sim/net.h"
#include "sim/pctx.h"
#include "sim/storage.h"
#include "testutil.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace dsim::sim {
namespace {

TEST(EventLoop, FiresInTimeThenInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.post_at(100, [&] { order.push_back(2); });
  loop.post_at(50, [&] { order.push_back(1); });
  loop.post_at(100, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 100);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  const EventId id = loop.post_at(10, [&] { fired = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    loop.post_at(i * 10, [&] { count++; });
  }
  EXPECT_TRUE(loop.run_until(50));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoop, PostingInsideHandlerWorks) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) loop.post_in(10, chain);
  };
  loop.post_now(chain);
  loop.run();
  EXPECT_EQ(depth, 5);
}

TEST(CpuModel, SingleJobTakesItsDuration) {
  EventLoop loop;
  CpuModel cpu(loop, 4);
  SimTime done_at = 0;
  cpu.submit(2.0, [&] { done_at = loop.now(); });
  loop.run();
  EXPECT_EQ(done_at, from_seconds(2.0));
}

TEST(CpuModel, OversubscriptionStretchesDurations) {
  EventLoop loop;
  CpuModel cpu(loop, 2);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    cpu.submit(1.0, [&] { done.push_back(loop.now()); });
  }
  loop.run();
  // 4 jobs of 1 core-second on 2 cores: everything finishes at 2 s.
  ASSERT_EQ(done.size(), 4u);
  for (auto t : done) EXPECT_NEAR(to_seconds(t), 2.0, 1e-6);
}

TEST(CpuModel, PauseAndResumePreservesRemainingWork) {
  EventLoop loop;
  CpuModel cpu(loop, 1);
  SimTime done_at = 0;
  const auto job = cpu.submit(1.0, [&] { done_at = loop.now(); });
  loop.post_at(from_seconds(0.5), [&] { cpu.pause(job); });
  loop.post_at(from_seconds(2.5), [&] { cpu.resume(job); });
  loop.run();
  // 0.5 s done before the pause; the remaining 0.5 s runs from t=2.5.
  EXPECT_NEAR(to_seconds(done_at), 3.0, 1e-6);
}

TEST(StorageDevice, RequestsSerialize) {
  EventLoop loop;
  StorageDevice dev(loop, "d", 100e6, 0);
  std::vector<SimTime> done;
  dev.submit(100'000'000, [&] { done.push_back(loop.now()); });
  dev.submit(100'000'000, [&] { done.push_back(loop.now()); });
  loop.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(to_seconds(done[0]), 1.0, 1e-6);
  EXPECT_NEAR(to_seconds(done[1]), 2.0, 1e-6);
}

TEST(LocalStorage, SyncDrainsDirtyAtDiskSpeed) {
  EventLoop loop;
  LocalStorage st(loop, "n0");
  bool wrote = false, synced = false;
  SimTime sync_done = 0;
  st.write(400'000'000, [&] { wrote = true; });
  loop.run();
  EXPECT_TRUE(wrote);
  EXPECT_EQ(st.dirty_bytes(), 400'000'000u);
  st.sync([&] {
    synced = true;
    sync_done = loop.now();
  });
  loop.run();
  EXPECT_TRUE(synced);
  EXPECT_EQ(st.dirty_bytes(), 0u);
  // 400 MB at 80 MB/s physical speed = 5 s (plus latency).
  EXPECT_GT(to_seconds(sync_done), 4.9);
}

TEST(Network, LoopbackFasterThanRemote) {
  EventLoop loop;
  Network net(loop, 2);
  SimTime local = 0, remote = 0;
  net.transfer(0, 0, 1'000'000, [&] { local = loop.now(); });
  loop.run();
  net.transfer(0, 1, 1'000'000, [&] { remote = loop.now() - local; });
  loop.run();
  EXPECT_LT(local, remote);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkedStreamsDiverge) {
  Rng a(42);
  Rng c1 = a.fork(1);
  Rng c2 = a.fork(2);
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Crc32, KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(crc32(as_bytes_view(s)), 0xCBF43926u);
}

// Bit-at-a-time CRC-32, independent of the library's tables.
u32 reference_crc32(u32 crc, std::span<const std::byte> data) {
  u32 c = ~crc;
  for (std::byte b : data) {
    c ^= static_cast<u32>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<std::byte> random_bytes(size_t n, u64 seed) {
  std::vector<std::byte> data(n);
  Rng rng(seed);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
  return data;
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto data = random_bytes(1000, 7);
  const std::span<const std::byte> all(data);
  const u32 whole = crc32(all);
  ASSERT_EQ(whole, reference_crc32(0, all));
  std::vector<size_t> splits;
  for (size_t at = 0; at <= 64; ++at) splits.push_back(at);
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    splits.push_back(rng.next_below(data.size() + 1));
  }
  for (const size_t at : splits) {
    EXPECT_EQ(crc32_update(crc32(all.first(at)), all.subspan(at)), whole)
        << "split at " << at;
    const size_t at2 = at + rng.next_below(data.size() - at + 1);
    EXPECT_EQ(crc32_update(crc32_update(crc32(all.first(at)),
                                        all.subspan(at, at2 - at)),
                           all.subspan(at2)),
              whole)
        << "splits at " << at << ", " << at2;
  }
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  const auto data = random_bytes(64 + 8, 3);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      const auto s = std::span<const std::byte>(data).subspan(align, len);
      EXPECT_EQ(crc32(s), reference_crc32(0, s))
          << "align " << align << " len " << len;
      EXPECT_EQ(crc32_update(0xDEADBEEFu, s), reference_crc32(0xDEADBEEFu, s))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32, WordStepsAreLittleEndianBytes) {
  Rng rng(5);
  std::vector<u64> words(256);
  std::vector<std::byte> bytes;
  for (size_t i = 0; i < words.size(); ++i) {
    words[i] = i == 0 ? 0 : rng.next_u64();
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<std::byte>(words[i] >> (8 * b)));
    }
  }
  u32 crc = 0;
  for (size_t i = 0; i < words.size(); ++i) {
    crc = crc32_update_words(crc, 1, [&] { return words[i]; });
    ASSERT_EQ(crc, reference_crc32(0, std::span(bytes).first(8 * (i + 1))))
        << "word " << i;
  }
  size_t next = 0;
  EXPECT_EQ(crc32_update_words(0xDEADBEEFu, words.size(),
                               [&] { return words[next++]; }),
            reference_crc32(0xDEADBEEFu, bytes));
  EXPECT_EQ(crc32_update_words(7, 0, [] { return u64{1}; }), 7u);
}

TEST(Serialize, AllTypesRoundTrip) {
  ByteWriter w;
  w.put_u8(7);
  w.put_u16(65535);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x123456789ABCDEFull);
  w.put_i32(-42);
  w.put_i64(-1234567890123ll);
  w.put_f64(3.14159);
  w.put_bool(true);
  w.put_string("hello world");
  std::vector<std::byte> blob{std::byte{1}, std::byte{2}};
  w.put_blob(blob);
  auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u16(), 65535);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1234567890123ll);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_string(), "hello world");
  EXPECT_EQ(r.get_blob(), blob);
  EXPECT_TRUE(r.at_end());
}

TEST(Stats, MeanAndStddev) {
  Stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

// --- exact-length I/O --------------------------------------------------------
//
// read_exact/write_exact move messages between two simulated buffers. The
// receiver writes each chunk it reads with one ByteImage::write, so its
// extent layout records the chunking, and checkpoint images serialize that
// layout. The pins below hold it, and the content, per transport.

enum class Transport { kSocketpair, kCrossNode, kPipe, kPty };
enum class Content { kReal, kZero, kRand, kMixed };

// Both buffers start mid-segment, with bytes on either side.
constexpr u64 kSrcOff = 3;
constexpr u64 kDstOff = 5;
constexpr u16 kPort = 7000;
// The writer sends its message this many times back to back, so later
// records meet a half-full send buffer and arrive in split segments.
constexpr u64 kRecords = 3;

// 1 byte, 4 bytes, the MG halo size, the 64 KiB chunk cap and one past
// it, and a message that spans several TCP segments and send buffers.
constexpr u64 kLens[] = {1, 4, 48 << 10, 64 << 10, (64 << 10) + 1, 200 << 10};

ByteImage source_image(Content c, u64 len) {
  ByteImage img(kSrcOff + len + 11);
  switch (c) {
    case Content::kReal:
      img.write(0, test::pseudo_bytes(img.size(), len));
      break;
    case Content::kZero:
      break;
    case Content::kRand:
      img.fill(0, img.size(), ExtentKind::kRand, 0x5eed + len);
      break;
    case Content::kMixed: {
      img.write(0, test::pseudo_bytes(img.size(), len + 1));
      Rng rng(len);
      for (u64 off = 0; off < img.size();) {
        const u64 n = std::min<u64>(1 + rng.next_below(9000), img.size() - off);
        if (rng.next_below(2) != 0) {
          img.fill(off, n, ExtentKind::kZero);
        } else {
          img.fill(off, n, ExtentKind::kRand, rng.next_u64());
        }
        off += n + 1 + rng.next_below(20000);
      }
      break;
    }
  }
  return img;
}

/// The reader's buffer before the messages land: zeros, or a heap that
/// already holds real bytes in extents of odd sizes around a kRand hole.
ByteImage receiver_image(bool fragmented, u64 len) {
  ByteImage img(kDstOff + kRecords * len + 13);
  if (!fragmented) return img;
  const auto bytes = test::pseudo_bytes(img.size(), 99);
  Rng rng(len + 7);
  for (u64 off = 0; off < img.size();) {
    const u64 n = std::min<u64>(img.size() - off, 1 + rng.next_below(7000));
    img.write(off, std::span(bytes).subspan(off, n));
    off += n;
  }
  img.fill(img.size() / 3, img.size() / 4, ExtentKind::kRand, 42);
  return img;
}

u32 layout_crc(const ByteImage& img) {
  ByteWriter w;
  img.for_each_extent([&](u64 off, const ByteImage::Extent& e) {
    w.put_u64(off);
    w.put_u64(e.len);
    w.put_u8(static_cast<u8>(e.kind));
  });
  return crc32(w.take());
}

/// Send a `len`-byte message of `content` kRecords times over `tr` with
/// write_exact, and receive the stream with read_exact, record by record
/// or (`one_read`) as one kRecords·len record. Returns the reader's buffer.
/// Local transports run in one process (the main thread reads, a worker
/// thread writes); kCrossNode connects a process on node 0 to a listener on
/// node 1.
ByteImage transfer(Transport tr, Content content, u64 len, bool fragmented,
                   bool one_read) {
  KernelConfig cfg;
  cfg.num_nodes = 2;
  Kernel k(cfg);
  ByteImage got;
  Fd writer_fd = -1;
  bool writer_done = false;

  const auto write_side = [&](ProcessCtx& ctx, Fd fd) -> Task<void> {
    MemSegment& src = ctx.alloc("src", MemKind::kHeap, 0);
    src.data = source_image(content, len);
    for (u64 i = 0; i < kRecords; ++i) {
      co_await ctx.write_exact(fd, {&src, kSrcOff}, len, 0);
    }
    writer_done = true;
  };
  const auto read_side = [&](ProcessCtx& ctx, Fd fd) -> Task<void> {
    MemSegment& dst = ctx.alloc("dst", MemKind::kHeap, 0);
    dst.data = receiver_image(fragmented, len);
    if (one_read) {
      co_await ctx.read_exact(fd, {&dst, kDstOff}, kRecords * len, 1);
    } else {
      for (u64 i = 0; i < kRecords; ++i) {
        co_await ctx.read_exact(fd, {&dst, kDstOff + i * len}, len, 1);
      }
    }
    got = dst.data;
  };

  Program p;
  p.name = "exact_io";
  p.main = [&](ProcessCtx& ctx) -> Task<int> {
    const std::string role = ctx.process().argv().at(0);
    if (role == "srv") {
      const Fd l = co_await ctx.socket();
      const bool bound = co_await ctx.bind(l, kPort);
      DSIM_CHECK(bound);
      co_await ctx.listen(l);
      co_await read_side(ctx, co_await ctx.accept(l));
    } else if (role == "cli") {
      const Fd fd = co_await ctx.socket();
      const bool connected = co_await ctx.connect(fd, SockAddr{1, kPort});
      DSIM_CHECK(connected);
      co_await write_side(ctx, fd);
    } else {
      std::pair<Fd, Fd> rw;  // (read end, write end)
      if (tr == Transport::kPipe) {
        rw = co_await ctx.pipe();
      } else if (tr == Transport::kPty) {
        const auto [master, slave] = co_await ctx.openpty();
        rw = {slave, master};
      } else {
        rw = co_await ctx.socketpair();
      }
      writer_fd = rw.second;
      ctx.spawn_thread(1);
      co_await read_side(ctx, rw.first);
      while (!writer_done) co_await ctx.sleep(timeconst::kMillisecond);
    }
    co_return 0;
  };
  p.worker = [&](ProcessCtx& ctx, u32) -> Task<void> {
    co_await write_side(ctx, writer_fd);
  };
  k.programs().add(std::move(p));
  if (tr == Transport::kCrossNode) {
    k.spawn_process(1, "exact_io", {"srv"}, {});
    k.spawn_process(0, "exact_io", {"cli"}, {});
  } else {
    k.spawn_process(0, "exact_io", {"local"}, {});
  }
  k.loop().run();
  EXPECT_TRUE(writer_done);
  return got;
}

struct IoPins {
  u32 layout = 0;
  u32 content = 0;
};

/// Run every length into both receivers, read both ways; check each buffer
/// against the expected bytes and fold the layouts and contents into two
/// CRCs.
IoPins exact_io_pins(Transport tr, Content c) {
  ByteWriter lw, cw;
  for (const u64 len : kLens) {
    const auto msg = source_image(c, len).materialize(kSrcOff, len);
    for (const bool fragmented : {false, true}) {
      ByteImage want = receiver_image(fragmented, len);
      for (u64 i = 0; i < kRecords; ++i) want.write(kDstOff + i * len, msg);
      for (const bool one_read : {false, true}) {
        const ByteImage got = transfer(tr, c, len, fragmented, one_read);
        EXPECT_EQ(got.size(), want.size());
        EXPECT_EQ(got.content_crc(), want.content_crc())
            << "len " << len << (fragmented ? " fragmented" : " zero")
            << (one_read ? " one read" : " per record");
        lw.put_u32(layout_crc(got));
        cw.put_u32(got.content_crc());
      }
    }
  }
  return {crc32(lw.take()), crc32(cw.take())};
}

// The received bytes do not depend on the transport, and the layout does
// not depend on the content (the reader writes real bytes whatever the
// source held), so each content has one content pin and each transport one
// layout pin.
constexpr std::array<u32, 4> kContentPins = {0xfd66fa2a, 0x38782405,
                                             0xc2968c24, 0x0269fdf0};

void expect_io_pins(Transport tr, u32 layout) {
  for (const Content c :
       {Content::kReal, Content::kZero, Content::kRand, Content::kMixed}) {
    const IoPins got = exact_io_pins(tr, c);
    EXPECT_TRUE(got.layout == layout &&
                got.content == kContentPins[static_cast<size_t>(c)])
        << "content " << static_cast<int>(c) << ": layout 0x" << std::hex
        << got.layout << ", content 0x" << got.content;
  }
}

TEST(SocketIo, SocketpairPinsLayoutAndContent) {
  expect_io_pins(Transport::kSocketpair, 0x370ce069);
}

TEST(SocketIo, CrossNodePinsLayoutAndContent) {
  expect_io_pins(Transport::kCrossNode, 0x370ce069);
}

TEST(SocketIo, PipeRoundTrip) { expect_io_pins(Transport::kPipe, 0x35745417); }

TEST(SocketIo, PtyRoundTrip) { expect_io_pins(Transport::kPty, 0x5374b955); }

TEST(SocketIo, OrEofStopsAtRecordBoundary) {
  Kernel k(KernelConfig{});
  std::vector<bool> reads;
  bool write_after_close = true;
  Program p;
  p.name = "exact_eof";
  p.main = [&](ProcessCtx& ctx) -> Task<int> {
    MemSegment& buf = ctx.alloc("buf", MemKind::kHeap, 64);
    // Two whole records, then the writer closes: the third read is EOF.
    const auto [a, b] = co_await ctx.socketpair();
    for (int i = 0; i < 2; ++i) {
      const bool ok = co_await ctx.write_exact(a, {&buf, 8}, 16, 0, true);
      DSIM_CHECK(ok);
    }
    co_await ctx.close(a);
    for (int i = 0; i < 3; ++i) {
      reads.push_back(co_await ctx.read_exact(b, {&buf, 24}, 16, 1, true));
    }
    // A write to a socket whose peer is gone abandons the record.
    const auto [c, d] = co_await ctx.socketpair();
    co_await ctx.close(d);
    write_after_close = co_await ctx.write_exact(c, {&buf, 0}, 16, 2, true);
    EXPECT_EQ(ctx.reg(2), 0u);
    co_return 0;
  };
  k.programs().add(std::move(p));
  k.spawn_process(0, "exact_eof", {}, {});
  k.loop().run();
  EXPECT_EQ(reads, (std::vector<bool>{true, true, false}));
  EXPECT_FALSE(write_after_close);
}

}  // namespace
}  // namespace dsim::sim
