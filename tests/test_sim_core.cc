// Simulation-core unit tests: event loop, CPU fluid sharing, storage
// queueing, network, deterministic RNG, utility types.
#include <gtest/gtest.h>

#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/net.h"
#include "sim/storage.h"
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

}  // namespace
}  // namespace dsim::sim
