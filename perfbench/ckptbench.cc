// Two-clock checkpoint/restart benchmark.
//
// One workload per run, single-threaded, driving the simulator only through
// its public entry points (bench::World, DmtcpControl and the public stats
// accessors). Every workload repeats one cycle a fixed number of times:
//
//   mpi_nas        compute 1 s -> checkpoint -> kill + restart
//   store_incr     compute -> dirty 25% of every heap -> checkpoint ->
//                  kill + restart
//   store_restart  fail shard 0's endpoint -> kill + restart (degraded
//                  erasure reads, parked requests) -> revive -> compute ->
//                  dirty 25% of every heap -> checkpoint
//
// and reports both clocks: the *virtual* clock of the modelled DMTCP system
// (deterministic per seed) and the *host* clock the simulation costs to run.
// Every restart is checked against the images on disk it restores from and
// against the images captured when that checkpoint completed (process
// count, lost chunks, segment content).
//
// --trace 1 runs the same cycles twice on the same seed: untraced, then with
// the simulator's tracer armed plus host spans around replayed calls into
// each layer. It fails the run unless both passes produce bit-identical
// virtual results. See README.md in this directory.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ckptstore/cdc.h"
#include "ckptstore/chunk.h"
#include "ckptstore/erasure.h"
#include "ckptstore/manifest.h"
#include "ckptstore/service.h"
#include "compress/compressor.h"
#include "mtcp/mtcp.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace dsim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

u64 mix(u64 seed, u64 salt) {
  u64 s = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

// --- host spans --------------------------------------------------------------

/// In-memory host-time spans (name, start, end, parent, op id). Spans are
/// recorded only when armed; self time is a span's duration minus the part
/// its child spans cover.
class HostTracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  // seconds since the tracer's epoch
    double end = 0;
    int parent = -1;
    int op = -1;
    u64 calls = 1;
    u64 bytes = 0;
  };

  class Scope {
   public:
    Scope(HostTracer* t, int id) : t_(t), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->end(id_);
    }
    /// Attribute more work to the span after it started.
    void add(u64 calls, u64 bytes) {
      if (t_ == nullptr) return;
      t_->spans_[static_cast<size_t>(id_)].calls += calls;
      t_->spans_[static_cast<size_t>(id_)].bytes += bytes;
    }

   private:
    HostTracer* t_;
    int id_;
  };

  explicit HostTracer(Clock::time_point epoch) : epoch_(epoch) {}
  void arm(bool on) { on_ = on; }

  /// Suspends recording until the returned guard dies (untimed captures).
  class Pause {
   public:
    explicit Pause(HostTracer& t) : t_(t), was_(t.on_) { t_.on_ = false; }
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;
    ~Pause() { t_.on_ = was_; }

   private:
    HostTracer& t_;
    bool was_;
  };
  Pause paused() { return Pause(*this); }

  /// `calls` = 0 opens a span whose calls are counted through Scope::add.
  Scope scope(const std::string& name, int op, u64 bytes, u64 calls = 1) {
    if (!on_) return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.start = now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    s.calls = calls;
    s.bytes = bytes;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return Scope(this, stack_.back());
  }

  struct Totals {
    u64 calls = 0;
    u64 bytes = 0;
    double self_s = 0;
  };
  std::map<std::string, Totals> totals() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      t.calls += spans_[i].calls;
      t.bytes += spans_[i].bytes;
      t.self_s += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  bool write_json(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"spans\": [\n";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"parent\": %d, \"op\": %d, "
                    "\"calls\": %llu, \"bytes\": %llu}",
                    i, s.name.c_str(), s.start, s.end, s.parent, s.op,
                    static_cast<unsigned long long>(s.calls),
                    static_cast<unsigned long long>(s.bytes));
      f << "  " << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }
  void end(int id) {
    spans_[static_cast<size_t>(id)].end = now();
    stack_.pop_back();
  }

  Clock::time_point epoch_;
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the
/// (n-10)-th order statistic. Needs n > 10 (the run guarantees n >= 20).
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};
Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= 10) return t;
  std::sort(v.begin(), v.end());
  const size_t rank = v.size() - 10;  // 1-based
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) /
                 static_cast<double>(v.size());
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- content identity --------------------------------------------------------

/// Exact content equality of two ByteImages without synthesizing pattern
/// bytes: both images are walked extent by extent; equal-kind pattern runs
/// (zero, or pseudo-random with the same seed — content is a function of
/// seed and absolute offset) compare by descriptor, real runs by memcmp, and
/// any other pairing materializes just the overlapping range.
bool same_content(const sim::ByteImage& a, const sim::ByteImage& b) {
  if (a.size() != b.size()) return false;
  struct Ext {
    u64 off;
    const sim::ByteImage::Extent* e;
  };
  std::vector<Ext> ea, eb;
  a.for_each_extent([&](u64 off, const auto& e) { ea.push_back({off, &e}); });
  b.for_each_extent([&](u64 off, const auto& e) { eb.push_back({off, &e}); });
  size_t i = 0, j = 0;
  u64 pos = 0;
  while (pos < a.size()) {
    while (ea[i].off + ea[i].e->len <= pos) ++i;
    while (eb[j].off + eb[j].e->len <= pos) ++j;
    const auto& x = *ea[i].e;
    const auto& y = *eb[j].e;
    const u64 end = std::min(ea[i].off + x.len, eb[j].off + y.len);
    const u64 n = end - pos;
    using K = sim::ExtentKind;
    bool same;
    if (x.kind == y.kind && x.kind == K::kZero) {
      same = true;
    } else if (x.kind == y.kind && x.kind == K::kRand && x.seed == y.seed) {
      same = true;
    } else if (x.kind == K::kReal && y.kind == K::kReal) {
      same = std::memcmp(x.data->data() + x.data_off + (pos - ea[i].off),
                         y.data->data() + y.data_off + (pos - eb[j].off),
                         n) == 0;
    } else {
      same = a.materialize(pos, n) == b.materialize(pos, n);
    }
    if (!same) return false;
    pos = end;
  }
  return true;
}

// --- per-op records ----------------------------------------------------------

struct CkptSample {
  bool ok = true;
  double virt_s = 0;
  double host_s = 0;
  u64 device_written = 0;
  u64 logical = 0;
  core::CkptRound round;
};

struct RestartSample {
  bool ok = true;
  std::string why;
  double virt_s = 0;
  double host_s = 0;
  u64 device_read = 0;
  u64 logical = 0;
  u64 degraded_before = 0;
  u64 fetch_requests = 0;
  u64 fetch_bytes = 0;
  u64 parked = 0;
  u64 replayed = 0;
  /// Private image bytes the content gate compared exactly against the
  /// image on disk, and those it excused (segments the application rewrote
  /// after its restore), with the excused segments' names.
  u64 gate_exact_bytes = 0;
  u64 gate_excused_bytes = 0;
  std::vector<std::string> gate_excused;
  core::RestartRun run;
};

/// Everything one pass over the cycles measured.
struct PassResult {
  double setup_s = 0;
  std::vector<CkptSample> ckpts;
  std::vector<RestartSample> restarts;
  double compute_virt_s = 0;
  double compute_host_s = 0;
  rpc::RpcStats rpc;  // summed over the measured cycles
  /// Lookup-wait quantiles of each world's measured cycles.
  std::vector<double> lookup_wait_p50, lookup_wait_p99;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> critpath;  // stage -> summed seconds
  u64 gate_exact_bytes = 0;
  u64 gate_excused_bytes = 0;
  std::map<std::string, int> gate_excused;  // segment name -> restarts
  std::string fingerprint;  // every virtual value, bit-exact
};

// --- workloads ----------------------------------------------------------------

enum class Kind { kMpiNas, kStoreIncr, kStoreRestart };

struct Spec {
  Kind kind;
  const char* name;
  /// Cycles per measured second on a 4-core 2.1 GHz VM; a run measures a
  /// fixed count of round(rate * seconds) cycles, at least kMinCycles.
  double cycles_per_second;
};

constexpr int kMinCycles = 20;
/// Independently seeded worlds per pass; the cycles are split among them.
constexpr int kWorlds = 4;
/// setup_s is the median over the worlds' set-ups plus extra ones, until
/// their total reaches kSetupSeconds (at most kMaxSetups).
constexpr double kSetupSeconds = 3.0;
constexpr size_t kMaxSetups = 16;
constexpr int kStoreRanks = 4;
constexpr NodeId kFirstStoreNode = kStoreRanks;  // shard s on node 4 + s
constexpr u64 kMiB = 1024 * 1024;

const Spec kSpecs[] = {
    {Kind::kMpiNas, "mpi_nas", 1.5},
    {Kind::kStoreIncr, "store_incr", 4.0},
    {Kind::kStoreRestart, "store_restart", 1.6},
};

/// Compressible real bytes with run-length structure (seeded).
std::vector<std::byte> runs_content(u64 bytes, u64 seed) {
  std::vector<std::byte> data(bytes);
  Rng rng(seed);
  size_t i = 0;
  while (i < bytes) {
    const auto v = static_cast<std::byte>(rng.next_below(4));
    const size_t run = 1 + rng.next_below(300);
    for (size_t j = 0; j < run && i < bytes; ++j) data[i++] = v;
  }
  return data;
}

u64 device_bytes(sim::Kernel& k, bool read) {
  u64 total = 0;
  for (int n = 0; n < k.num_nodes(); ++n) {
    const auto& dev = k.node(n).storage().cache();
    total += read ? dev.total_read_bytes() : dev.total_written_bytes();
  }
  return total;
}

/// One managed process as captured before a checkpoint.
struct Snapshot {
  Pid vpid = kNoPid;
  mtcp::ProcessImage img;
};

/// Per-span bookkeeping the store replays carry from checkpoint to restart.
struct SpanRecord {
  ckptstore::ChunkSpan span;
  ckptstore::ChunkKey key;
};
struct SegSpans {
  std::string name;
  std::vector<SpanRecord> recs;
};
struct ProcSpans {
  Pid vpid = kNoPid;
  std::vector<SegSpans> segs;
};

class Bench {
 public:
  Bench(const Spec& spec, u64 seed, int cycles, bool traced,
        HostTracer& host, const std::string& out_dir)
      : spec_(spec),
        seed_(seed),
        cycles_(cycles),
        traced_(traced),
        host_(host),
        out_dir_(out_dir) {}

  /// Build the world and bring it to the steady state the cycles start
  /// from. Returns host seconds.
  double setup(int world) {
    world_.reset();  // tear the previous world down outside the timing
    snapshot_.clear();
    live_.clear();
    wseed_ = mix(seed_, 1000 + static_cast<u64>(world));
    const auto t0 = Clock::now();
    world_ = std::make_unique<bench::World>(nodes(), options(world),
                                            mix(wseed_, 1));
    if (spec_.kind == Kind::kMpiNas) {
      ctl().launch(0, "orte_mpirun",
                   mpi::mpirun_argv(32, 8, "nas", {"mg", "1000000", "mg8"}));
      ctl().run_for(500 * timeconst::kMillisecond);
    } else {
      launch_store_ranks();
      capture_and_replay(-1);
      DSIM_CHECK_MSG(checkpoint(-1, nullptr),
                     "setup: generation-0 checkpoint missed its deadline");
      if (spec_.kind == Kind::kStoreRestart) {
        // One warm-up cycle: the first failure also degrades the shared
        // library chunks, which the heal daemon then moves off the victim
        // for good. Afterwards every cycle degrades the same share: the
        // chunks stored since the previous failure.
        RestartSample r;
        restart_under_failure(-1, &r);
        DSIM_CHECK_MSG(r.ok,
                       ("setup: warm-up restart failed: " + r.why).c_str());
        svc()->revive_node(kFirstStoreNode);
        DSIM_CHECK_MSG(store_generation(-1, nullptr),
                       "setup: warm-up checkpoint missed its deadline");
      }
    }
    return seconds_between(t0, Clock::now());
  }

  /// Measure `cycles_` cycles spread over `worlds` independently seeded
  /// worlds (so one seed's chunk layout does not set a run's figures).
  /// Appends each world's set-up time to `setups`.
  PassResult run(int worlds, std::vector<double>* setups) {
    PassResult res;
    int op = 0;
    for (int w = 0; w < worlds; ++w) {
      {
        auto pause = host_.paused();  // per-layer figures cover cycles only
        setups->push_back(setup(w));
      }
      const int n = cycles_ / worlds + (w < cycles_ % worlds ? 1 : 0);
      const rpc::RpcStats rpc0 = rpc_stats();
      const obs::Histogram wait0 = lookup_wait();
      bool alive = true;
      for (int i = 0; i < n && alive; ++i) alive = cycle(op++, &res);
      const rpc::RpcStats rpc1 = rpc_stats();
      res.rpc.calls += rpc1.calls - rpc0.calls;
      res.rpc.net_bytes += rpc1.net_bytes - rpc0.net_bytes;
      res.rpc.net_wait_seconds += rpc1.net_wait_seconds - rpc0.net_wait_seconds;
      res.rpc.endpoint_cpu_seconds +=
          rpc1.endpoint_cpu_seconds - rpc0.endpoint_cpu_seconds;
      res.rpc.failed_calls += rpc1.failed_calls - rpc0.failed_calls;
      const obs::Histogram wait = lookup_wait().delta_since(wait0);
      res.lookup_wait_p50.push_back(wait.quantile(0.5));
      res.lookup_wait_p99.push_back(wait.quantile(0.99));
      if (!alive) break;  // a missed deadline leaves the world unusable
    }
    res.fingerprint = fingerprint(res);
    return res;
  }

 private:
  core::DmtcpControl& ctl() { return *world_->ctl; }
  sim::Kernel& k() { return world_->k(); }
  ckptstore::ChunkStoreService* svc() {
    return ctl().shared().store_service.get();
  }

  int nodes() const { return spec_.kind == Kind::kMpiNas ? 8 : 6; }

  core::DmtcpOptions options(int world) const {
    core::DmtcpOptions o;
    if (spec_.kind != Kind::kMpiNas) {
      o.incremental = true;
      o.codec = compress::CodecKind::kNone;
      o.chunking = ckptstore::ChunkingMode::kCdc;
      o.cdc_min_bytes = 16 * 1024;
      o.cdc_avg_bytes = 64 * 1024;
      o.cdc_max_bytes = 256 * 1024;
      o.dedup_scope = core::DedupScope::kCluster;
      o.store_shards = 2;
      o.store_node = kFirstStoreNode;
      o.lookup_batch = 8;
      if (spec_.kind == Kind::kStoreIncr) {
        o.chunk_replicas = 2;
      } else {
        o.erasure_k = 2;
        o.erasure_m = 1;
      }
    }
    if (traced_) {
      // The simulator's own tracer (critical paths); its metrics dump is a
      // by-product written at teardown.
      o.metrics_out = out_dir_ + "/metrics-" + spec_.name + "-" +
                      std::to_string(seed_) + "-w" + std::to_string(world) +
                      ".json";
    }
    return o;
  }

  void launch_store_ranks() {
    const std::string prof = apps::desktop_profiles().front().name;
    std::vector<Pid> pids;
    for (int r = 0; r < kStoreRanks; ++r) {
      pids.push_back(
          ctl().launch(r, "desktop_app", {prof, "0", "r" + std::to_string(r)}));
    }
    ctl().run_for(50 * timeconst::kMillisecond);
    const u64 lib_seed = mix(wseed_, 2);
    for (int r = 0; r < kStoreRanks; ++r) {
      sim::Process* p = k().find_process(pids[static_cast<size_t>(r)]);
      DSIM_CHECK(p != nullptr);
      auto& lib = p->mem().add("libbench", sim::MemKind::kLib, 4 * kMiB);
      lib.data.fill(0, 4 * kMiB, sim::ExtentKind::kRand, lib_seed);
      if (spec_.kind == Kind::kStoreIncr) {
        auto& heap = p->mem().add("heapbench", sim::MemKind::kHeap, 32 * kMiB);
        heap.data.fill(0, 32 * kMiB, sim::ExtentKind::kRand,
                       mix(wseed_, 100 + static_cast<u64>(r)));
      } else {
        auto& heap = p->mem().add("heapbench", sim::MemKind::kHeap, 8 * kMiB);
        heap.data.write(0, runs_content(8 * kMiB,
                                        mix(wseed_, 100 + static_cast<u64>(r))));
      }
    }
    run_app(50 * timeconst::kMillisecond);
  }

  /// Live managed processes, ascending by virtual pid.
  std::vector<std::pair<Pid, sim::Process*>> managed() {
    std::vector<std::pair<Pid, sim::Process*>> out;
    const auto& sh = ctl().shared();
    for (const auto& [vpid, real] : sh.vpid_map) {
      if (sh.active_vpids.count(vpid) == 0) continue;
      sim::Process* p = k().find_process(real);
      if (p == nullptr || p->state() != sim::ProcState::kRunning) continue;
      out.emplace_back(vpid, p);
    }
    return out;
  }

  /// Re-dirty a quarter of every rank heap at a seeded offset: fresh
  /// pseudo-random pattern content on store_incr, fresh real bytes on
  /// store_restart.
  void dirty(int op) {
    const u64 gen = static_cast<u64>(op + 2);
    for (const auto& [vpid, p] : managed()) {
      sim::MemSegment* heap = p->mem().find("heapbench");
      if (heap == nullptr) continue;
      const u64 size = heap->data.size();
      const u64 len = size / 4;
      const u64 salt = gen * 1000 + static_cast<u64>(vpid);
      const u64 off = (mix(wseed_, salt) % (size - len + 1)) & ~u64{4095};
      if (spec_.kind == Kind::kStoreIncr) {
        heap->data.fill(off, len, sim::ExtentKind::kRand, mix(wseed_, salt + 7));
      } else {
        heap->data.write(off, runs_content(len, mix(wseed_, salt + 7)));
      }
    }
  }

  // --- the cycle --------------------------------------------------------------

  bool cycle(int op, PassResult* res) {
    if (spec_.kind == Kind::kStoreRestart) {
      RestartSample r;
      restart_under_failure(op, &r);
      record_restart(std::move(r), res);
      // The round boundary of the next checkpoint moves shard 0 back.
      svc()->revive_node(kFirstStoreNode);
      compute(op, res);
      CkptSample c;
      const bool ok = store_generation(op, &c);
      record_ckpt(std::move(c), res);
      return ok;
    }
    compute(op, res);
    CkptSample c;
    bool ok;
    if (spec_.kind == Kind::kStoreIncr) {
      ok = store_generation(op, &c);
    } else {
      capture_and_replay(op);
      ok = checkpoint(op, &c);
    }
    record_ckpt(std::move(c), res);
    if (!ok) return false;
    RestartSample r;
    restart(op, &r);
    record_restart(std::move(r), res);
    return true;
  }

  /// Store workloads: dirty the heaps, capture, checkpoint.
  bool store_generation(int op, CkptSample* out) {
    dirty(op);
    capture_and_replay(op);
    return checkpoint(op, out);
  }

  void compute(int op, PassResult* res) {
    const SimTime dt = spec_.kind == Kind::kMpiNas
                           ? 1000 * timeconst::kMillisecond
                           : 500 * timeconst::kMillisecond;
    double host;
    {
      auto span = host_.scope("op.compute", op, 0);
      host = run_app(dt);
    }
    res->compute_host_s += host;
    res->compute_virt_s += to_seconds(dt);
  }

  void record_ckpt(CkptSample c, PassResult* res) {
    res->attempted++;
    if (!c.ok) {
      res->failed++;
      res->failures.push_back("checkpoint " + std::to_string(res->ckpts.size()) +
                              ": missed its deadline");
    }
    if (traced_) add_critpath(c.round.critical_path, res);
    res->ckpts.push_back(std::move(c));
  }

  void record_restart(RestartSample r, PassResult* res) {
    res->attempted++;
    if (!r.ok) {
      res->failed++;
      res->failures.push_back("restart " + std::to_string(res->restarts.size()) +
                              ": " + r.why);
    }
    if (traced_) add_critpath(r.run.critical_path, res);
    res->gate_exact_bytes += r.gate_exact_bytes;
    res->gate_excused_bytes += r.gate_excused_bytes;
    for (const auto& name : r.gate_excused) res->gate_excused[name]++;
    res->restarts.push_back(std::move(r));
  }

  static void add_critpath(const obs::CritPathReport& rep, PassResult* res) {
    for (const auto& e : rep.entries) res->critpath[e.stage] += e.seconds();
  }

  /// Checkpoint with a deadline: a round that misses it is a failed op.
  bool checkpoint(int op, CkptSample* out) {
    const u64 written0 = device_bytes(k(), false);
    const size_t round = ctl().stats().rounds.size();
    const auto t0 = Clock::now();
    bool done;
    {
      auto span = host_.scope("op.checkpoint", op, 0);
      ctl().request_checkpoint();
      done = ctl().run_until(
          [&] {
            const auto& rs = ctl().stats().rounds;
            return rs.size() > round && rs[round].refilled != 0;
          },
          k().loop().now() + 120 * timeconst::kSecond);
    }
    const double host = seconds_between(t0, Clock::now());
    if (done) {
      auto pause = host_.paused();
      snapshot_ = capture_all(-1);
      note_live(images_, snapshot_);
    }
    if (out == nullptr) return done;
    out->ok = done;
    out->host_s = host;
    if (done) {
      out->round = ctl().stats().rounds[round];
      out->virt_s = out->round.total_seconds();
      out->logical = out->round.total_uncompressed;
    }
    out->device_written = device_bytes(k(), false) - written0;
    return done;
  }

  /// Mark the segments the application itself rewrote between two
  /// captures with no benchmark write in between (sticky per vpid).
  void note_live(const std::vector<Snapshot>& before,
                 const std::vector<Snapshot>& after) {
    for (const Snapshot& a : after) {
      const Snapshot* b = nullptr;
      for (const Snapshot& x : before) {
        if (x.vpid == a.vpid) b = &x;
      }
      for (const auto& seg : a.img.segments) {
        bool live = seg.kind == sim::MemKind::kData || b == nullptr;
        if (!live) {
          live = true;
          for (const auto& old : b->img.segments) {
            if (old.name == seg.name) live = !same_content(old.data, seg.data);
          }
        }
        if (live) live_[a.vpid].insert(seg.name);
      }
    }
  }

  /// Run the application for `dt` with no benchmark write, noting which
  /// segments it rewrites. Returns host seconds of the run itself.
  double run_app(SimTime dt) {
    auto pause = host_.paused();
    const auto before = capture_all(-1);
    const auto t0 = Clock::now();
    ctl().run_for(dt);
    const double host = seconds_between(t0, Clock::now());
    note_live(before, capture_all(-1));
    return host;
  }

  /// Kill + restart, timed together, then checked against snapshot_.
  void restart(int op, RestartSample* out) {
    auto* s = svc();
    const ckptstore::ServiceStats before =
        s != nullptr ? s->stats() : ckptstore::ServiceStats{};
    if (s != nullptr) out->degraded_before = s->placement().degraded_count();
    std::vector<Snapshot> disk;
    {
      auto pause = host_.paused();
      disk = read_images(out);
    }
    const u64 read0 = device_bytes(k(), true);
    const auto t0 = Clock::now();
    {
      auto span = host_.scope("op.restart", op, 0);
      ctl().kill_computation();
      out->run = ctl().restart();
    }
    out->host_s = seconds_between(t0, Clock::now());
    out->device_read = device_bytes(k(), true) - read0;
    out->virt_s = out->run.total_seconds();
    if (s != nullptr) {
      const auto& after = s->stats();
      out->fetch_requests = after.fetch_requests - before.fetch_requests;
      out->fetch_bytes = after.fetch_bytes - before.fetch_bytes;
      out->parked = after.parked_requests - before.parked_requests;
      out->replayed = after.replayed_requests - before.replayed_requests;
    }
    for (const Snapshot& snap : snapshot_) out->logical += snap.img.memory_bytes();
    verify_restart(disk, out);
    replay_restart(op);
  }

  /// store_restart: fail shard 0's endpoint, then kill + restart against it.
  void restart_under_failure(int op, RestartSample* out) {
    svc()->fail_node(kFirstStoreNode);
    classify_degraded();
    restart(op, out);
    if (out->degraded_before == 0) {
      out->why = "no degraded chunk before the restart" +
                 (out->ok ? "" : "; " + out->why);
      out->ok = false;
    }
  }

  static void fail_restart(RestartSample* out, const std::string& why) {
    if (out->ok) out->why = why;
    out->ok = false;
  }

  /// The images the restart is about to load, read from the simulated file
  /// system and decoded as dmtcp_restart decodes them (full containers with
  /// the run's codec; manifests against the chunk repository).
  std::vector<Snapshot> read_images(RestartSample* out) {
    std::vector<Snapshot> imgs;
    for (const auto& host : ctl().read_restart_plan().hosts) {
      for (const auto& path : host.images) {
        auto inode = k().fs_for(host.host, path).lookup(path);
        if (inode == nullptr) {
          fail_restart(out, "image " + path + " is missing");
          continue;
        }
        const auto bytes = inode->data.materialize(0, inode->data.size());
        double ignored = 0;
        Snapshot s;
        if (ckptstore::Manifest::is_manifest(bytes)) {
          u64 read = 0;
          std::string err;
          s.img = mtcp::decode_incremental(ckptstore::Manifest::decode(bytes),
                                           svc()->repo(), &ignored, &read, &err);
          if (!err.empty()) fail_restart(out, "image " + path + ": " + err);
        } else {
          s.img = mtcp::decode(bytes, ctl().shared().opts.codec, &ignored);
        }
        s.vpid = s.img.virt_pid;
        imgs.push_back(std::move(s));
      }
    }
    return imgs;
  }

  void verify_restart(const std::vector<Snapshot>& disk, RestartSample* out) {
    auto fail = [&](const std::string& why) { fail_restart(out, why); };
    if (out->run.needs_restore) fail("restart needs a full re-store");
    if (out->run.lost_chunks > 0) {
      fail(std::to_string(out->run.lost_chunks) + " lost chunk(s)");
    }
    if (out->run.procs != static_cast<int>(snapshot_.size())) {
      fail("restored " + std::to_string(out->run.procs) + " process(es), " +
           std::to_string(snapshot_.size()) + " were checkpointed");
    }
    const auto live = managed();
    if (live.size() != snapshot_.size()) {
      fail(std::to_string(live.size()) + " managed process(es) live after "
           "restart, " + std::to_string(snapshot_.size()) + " expected");
      return;
    }
    for (size_t i = 0; i < live.size(); ++i) {
      const Snapshot& snap = snapshot_[i];
      sim::Process* p = live[i].second;
      if (live[i].first != snap.vpid) {
        fail("restore order differs at position " + std::to_string(i));
        return;
      }
      for (const auto& seg : snap.img.segments) {
        if (seg.shared) continue;
        const sim::MemSegment* now = p->mem().find(seg.name);
        const bool same =
            now != nullptr && now->kind == seg.kind &&
            now->data.size() == seg.data.size() &&
            (live_[snap.vpid].count(seg.name) != 0 ||
             same_content(seg.data, now->data));
        if (!same) {
          fail("vpid " + std::to_string(snap.vpid) + " segment '" + seg.name +
               "' differs from its checkpointed content");
          return;
        }
      }
      // Every private segment must be exactly what the image on disk holds,
      // the ones the application rewrites included, unless it has already
      // rewritten them again since its restore.
      const Snapshot* img = nullptr;
      for (const Snapshot& d : disk) {
        if (d.vpid == snap.vpid) img = &d;
      }
      if (img == nullptr) {
        fail("no image on disk for vpid " + std::to_string(snap.vpid));
        return;
      }
      size_t private_segs = 0;
      for (const auto& seg : p->mem().segments()) private_segs += !seg->shared;
      size_t image_segs = 0;
      for (const auto& seg : img->img.segments) {
        if (seg.shared) continue;
        ++image_segs;
        const sim::MemSegment* now = p->mem().find(seg.name);
        const bool shape = now != nullptr && now->kind == seg.kind &&
                           now->data.size() == seg.data.size();
        if (shape && same_content(seg.data, now->data)) {
          out->gate_exact_bytes += seg.data.size();
          continue;
        }
        if (shape && live_[snap.vpid].count(seg.name) != 0) {
          // The application ran a step between its restore and the end of
          // the restart and rewrote this segment.
          out->gate_excused_bytes += seg.data.size();
          out->gate_excused.push_back(seg.name);
          continue;
        }
        fail("vpid " + std::to_string(snap.vpid) + " segment '" + seg.name +
             "' differs from its image on disk");
        return;
      }
      if (image_segs != private_segs) {
        fail("vpid " + std::to_string(snap.vpid) + " restored " +
             std::to_string(private_segs) + " private segment(s), its image "
             "holds " + std::to_string(image_segs));
        return;
      }
    }
    if (disk.size() != snapshot_.size()) {
      fail(std::to_string(disk.size()) + " image(s) on disk, " +
           std::to_string(snapshot_.size()) + " processes were checkpointed");
    }
  }

  // --- host replays (traced pass only) ---------------------------------------

  /// Capture every managed process (the images the next checkpoint writes)
  /// and, when traced, replay the checkpoint-side layer calls on them.
  void capture_and_replay(int op) {
    images_ = capture_all(op);
    if (!traced_) return;
    auto root = host_.scope("replay.checkpoint", op, 0);
    if (spec_.kind == Kind::kMpiNas) {
      replay_full_checkpoint(op);
    } else {
      replay_store_checkpoint(op);
    }
  }

  std::vector<Snapshot> capture_all(int op) {
    std::vector<Snapshot> out;
    for (const auto& [vpid, p] : managed()) {
      Snapshot s;
      s.vpid = vpid;
      {
        auto span = host_.scope("mtcp.capture", op, 0);
        s.img = mtcp::capture(*p);
        span.add(0, s.img.memory_bytes());
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  void replay_full_checkpoint(int op) {
    containers_.clear();
    blobs_.clear();
    const auto codec = ctl().shared().opts.codec;
    for (const Snapshot& s : images_) {
      const u64 logical = s.img.memory_bytes();
      mtcp::EncodedImage enc;
      {
        auto span = host_.scope("mtcp.encode", op, logical);
        enc = mtcp::encode(s.img, codec);
      }
      {
        auto span = host_.scope("util.crc32", op, enc.bytes.size());
        volatile u32 crc = crc32(enc.bytes);
        (void)crc;
      }
      for (const auto& seg : s.img.segments) {
        seg.data.for_each_extent([&](u64, const sim::ByteImage::Extent& e) {
          if (e.kind != sim::ExtentKind::kReal) return;
          const std::span<const std::byte> real(e.data->data() + e.data_off,
                                                e.len);
          auto span = host_.scope("compress.encode", op, e.len);
          blobs_.push_back(compress::codec(codec).compress(real));
        });
      }
      containers_.push_back(std::move(enc.bytes));
    }
  }

  void replay_store_checkpoint(int op) {
    spans_.clear();
    const auto params = ctl().shared().opts.chunking_params();
    const ckptstore::Repository& repo = svc()->repo();
    std::set<ckptstore::ChunkKey> stored_now;  // cluster dedup within a round
    for (const Snapshot& s : images_) {
      ProcSpans per_proc;
      per_proc.vpid = s.vpid;
      for (const auto& seg : s.img.segments) {
        std::vector<SpanRecord> recs;
        std::vector<ckptstore::ChunkSpan> cut;
        {
          auto span = host_.scope("ckptstore.scan", op, seg.data.size());
          cut = ckptstore::scan_chunks_with(seg.data, params);
        }
        {
          auto span = host_.scope("ckptstore.span_key", op, seg.data.size(),
                                  cut.size());
          for (const auto& c : cut) {
            recs.push_back({c, ckptstore::span_key(seg.data, c)});
          }
        }
        for (const bool real : {false, true}) {
          auto span = host_.scope(real ? "ckptstore.span_crc.real"
                                       : "ckptstore.span_crc.pattern",
                                  op, 0, 0);
          for (const auto& r : recs) {
            if ((r.span.kind == sim::ExtentKind::kReal) != real) continue;
            if (repo.find(r.key) != nullptr) continue;
            if (!stored_now.insert(r.key).second) continue;
            volatile u32 crc = ckptstore::span_crc(seg.data, r.span);
            (void)crc;
            span.add(1, r.span.len);
          }
        }
        per_proc.segs.push_back({seg.name, std::move(recs)});
      }
      spans_.push_back(std::move(per_proc));
    }
  }

  /// Before a restart under failure: which real chunks the restart must
  /// read degraded (a parity fragment substituting for a data fragment).
  void classify_degraded() {
    needs_decode_.clear();
    if (!traced_) return;
    const auto& placement = svc()->placement();
    for (const auto& proc : spans_) {
      for (const auto& seg : proc.segs) {
        for (const auto& r : seg.recs) {
          if (r.span.kind != sim::ExtentKind::kReal) continue;
          bool nd = false;
          placement.read_plan(r.key, &nd);
          if (nd) needs_decode_.insert(r.key);
        }
      }
    }
  }

  void replay_restart(int op) {
    if (!traced_) return;
    auto root = host_.scope("replay.restart", op, 0);
    if (spec_.kind == Kind::kMpiNas) {
      const auto codec = ctl().shared().opts.codec;
      for (const auto& c : containers_) {
        {
          auto span = host_.scope("util.crc32", op, c.size());
          volatile u32 crc = crc32(c);
          (void)crc;
        }
        auto span = host_.scope("mtcp.decode", op, c.size());
        double ignored = 0;
        mtcp::decode(c, codec, &ignored);
      }
      for (const auto& b : blobs_) {
        auto span = host_.scope("compress.decode", op, b.size());
        compress::codec(codec).decompress(b);
      }
      return;
    }
    // Store restart: every real chunk is materialized and CRC-verified; a
    // chunk read degraded is also erasure-decoded from k survivors.
    const auto& er = svc()->erasure();
    for (const ProcSpans& proc : spans_) {
      sim::Process* p = nullptr;
      for (const auto& [vpid, live] : managed()) {
        if (vpid == proc.vpid) p = live;
      }
      if (p == nullptr) continue;
      for (const SegSpans& ss : proc.segs) {
        const sim::MemSegment* seg = p->mem().find(ss.name);
        if (seg == nullptr) continue;
        for (const auto& r : ss.recs) {
          if (r.span.kind != sim::ExtentKind::kReal ||
              r.span.off + r.span.len > seg->data.size()) {
            continue;
          }
          std::vector<std::byte> content;
          {
            auto span = host_.scope("sim.materialize", op, r.span.len);
            content = seg->data.materialize(r.span.off, r.span.len);
          }
          {
            auto span = host_.scope("util.crc32", op, r.span.len);
            volatile u32 crc = crc32(content);
            (void)crc;
          }
          if (needs_decode_.count(r.key) == 0) continue;
          std::vector<std::vector<std::byte>> frags;
          {
            auto span = host_.scope("ckptstore.erasure_encode", op, r.span.len);
            frags = ckptstore::erasure::encode(content, er.k, er.m);
          }
          // Lose data fragment 0: parity stands in for it.
          std::vector<std::pair<int, std::vector<std::byte>>> survivors;
          for (int f = 1; f <= er.k; ++f) {
            survivors.emplace_back(f, std::move(frags[static_cast<size_t>(f)]));
          }
          auto span =
              host_.scope("ckptstore.erasure_reconstruct", op, r.span.len);
          const auto back = ckptstore::erasure::reconstruct(survivors, er.k,
                                                            er.m, r.span.len);
          DSIM_CHECK_MSG(back == content, "erasure replay mismatch");
        }
      }
    }
  }

  // --- stats plumbing -----------------------------------------------------------

  rpc::RpcStats rpc_stats() {
    auto* s = svc();
    return s != nullptr ? s->fabric().stats() : rpc::RpcStats{};
  }
  obs::Histogram lookup_wait() {
    auto* s = svc();
    return s != nullptr ? s->stats().lookup_wait : obs::Histogram{};
  }

  /// Every virtual value of the pass, printed with all digits: two passes
  /// on one seed must produce the same string.
  static std::string fingerprint(const PassResult& r) {
    std::ostringstream o;
    o.precision(17);
    for (const auto& c : r.ckpts) {
      o << "c " << c.ok << ' ' << c.virt_s << ' ' << c.device_written << ' '
        << c.logical << ' ' << c.round.store_lookups << ' '
        << c.round.store_new_bytes << ' ' << c.round.store_dup_bytes << ' '
        << c.round.store_rpcs << ' ' << c.round.store_rpc_net_bytes;
      for (const auto& [stage, s] : c.round.stage_breakdown) {
        if (stage.rfind("barrier.", 0) == 0) o << ' ' << stage << '=' << s;
      }
      o << '\n';
    }
    for (const auto& x : r.restarts) {
      o << "r " << x.ok << ' ' << x.virt_s << ' ' << x.device_read << ' '
        << x.logical << ' ' << x.degraded_before << ' ' << x.fetch_requests
        << ' ' << x.fetch_bytes << ' ' << x.parked << ' ' << x.replayed << ' '
        << x.run.files_ptys_seconds << ' ' << x.run.reconnect_seconds << ' '
        << x.run.memory_threads_seconds << '\n';
    }
    o << "compute " << r.compute_virt_s << '\n';
    o << "rpc " << r.rpc.calls << ' ' << r.rpc.net_bytes << ' '
      << r.rpc.net_wait_seconds << ' ' << r.rpc.endpoint_cpu_seconds << ' '
      << r.rpc.failed_calls << '\n';
    return o.str();
  }

  const Spec& spec_;
  u64 seed_;
  u64 wseed_ = 0;  // the current world's seed, derived from seed_
  int cycles_;
  bool traced_;
  HostTracer& host_;
  std::string out_dir_;
  std::unique_ptr<bench::World> world_;
  /// Images captured just before the last checkpoint (replay input) and
  /// just after it completed (what the next restart must reproduce: the
  /// application keeps running until the round suspends it).
  std::vector<Snapshot> images_;
  std::vector<Snapshot> snapshot_;
  /// Segments the application itself rewrites as it runs (its state struct,
  /// working buffers), by vpid. The application keeps running after a
  /// restore and before a round suspends it, so a restart is held only to
  /// their name, kind and size; every other segment — the bulk of each
  /// image — must come back byte-identical.
  std::map<Pid, std::set<std::string>> live_;
  // Replay state carried from a checkpoint to the restart that reads it.
  std::vector<std::vector<std::byte>> containers_;
  std::vector<std::vector<std::byte>> blobs_;
  std::vector<ProcSpans> spans_;
  std::set<ckptstore::ChunkKey> needs_decode_;
};

// --- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_line(bool correct, int attempted, int failed,
                        const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
    if (i + 1 < metrics.size()) s += ", ";
  }
  return s + "}}";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> end_to_end(const PassResult& r) {
  std::vector<double> pause, pause_host, rs, rs_host;
  double written = 0, logical_w = 0, read = 0, logical_r = 0;
  for (const auto& c : r.ckpts) {
    pause.push_back(c.virt_s);
    pause_host.push_back(c.host_s);
    written += static_cast<double>(c.device_written);
    logical_w += static_cast<double>(c.logical);
  }
  for (const auto& x : r.restarts) {
    rs.push_back(x.virt_s);
    rs_host.push_back(x.host_s);
    read += static_cast<double>(x.device_read);
    logical_r += static_cast<double>(x.logical);
  }
  const Tail pt = tail(pause), pht = tail(pause_host), rt = tail(rs),
             rht = tail(rs_host);
  std::printf("# samples: %zu checkpoints (tail = p%.1f), %zu restarts "
              "(tail = p%.1f)\n",
              pt.samples, pt.percentile, rt.samples, rt.percentile);
  return {
      {"setup_s", r.setup_s, "s"},
      {"ckpt_pause_s_p50", median(pause), "s"},
      {"ckpt_pause_s_tail", pt.value, "s"},
      {"restart_s_p50", median(rs), "s"},
      {"restart_s_tail", rt.value, "s"},
      {"ckpt_host_s_p50", median(pause_host), "s"},
      {"ckpt_host_s_tail", pht.value, "s"},
      {"restart_host_s_p50", median(rs_host), "s"},
      {"restart_host_s_tail", rht.value, "s"},
      {"sim_rate", ratio(r.compute_virt_s, r.compute_host_s), "s/s"},
      {"stored_bytes_ratio", ratio(written, logical_w), "ratio"},
      {"fetched_bytes_ratio", ratio(read, logical_r), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

double op_host_seconds(const PassResult& r) {
  double t = r.compute_host_s;
  for (const auto& c : r.ckpts) t += c.host_s;
  for (const auto& x : r.restarts) t += x.host_s;
  return t;
}

/// Critical-path stages reported per cycle (0 where a workload has none);
/// any other stage is summed into critpath.other_s.
const char* const kCritStages[] = {
    "barrier.suspend",  "barrier.elect",     "barrier.drain",
    "barrier.write",    "barrier.refill",    "restart.load",
    "restart.refill",   "device.read",       "device.write",
    "rpc.request_net",  "rpc.dispatch_cpu",  "rpc.response_net",
    "store.index",      "store.fq_wait",     "store.fetch",
    "store.heal",       "store.erasure_decode", "cluster.heartbeat",
};

/// Host layers the traced pass replays calls into.
const char* const kHostLayers[] = {
    "mtcp.capture",        "mtcp.encode",
    "mtcp.decode",         "compress.encode",
    "compress.decode",     "util.crc32",
    "ckptstore.scan",      "ckptstore.span_key",
    "ckptstore.span_crc.pattern", "ckptstore.span_crc.real",
    "ckptstore.erasure_encode",   "ckptstore.erasure_reconstruct",
    "sim.materialize",
};

std::vector<Metric> per_layer(const PassResult& r, const PassResult& plain,
                              const HostTracer& host) {
  const double cycles =
      static_cast<double>(std::max<size_t>(1, r.ckpts.size()));
  const double restarts =
      static_cast<double>(std::max<size_t>(1, r.restarts.size()));
  std::map<std::string, std::vector<double>> stage;
  double lookups = 0, new_b = 0, dup_b = 0, logical = 0;
  for (const auto& c : r.ckpts) {
    for (const char* s : {"suspend", "elect", "drain", "write", "refill"}) {
      auto it = c.round.stage_breakdown.find(std::string("barrier.") + s);
      stage[s].push_back(it == c.round.stage_breakdown.end() ? 0 : it->second);
    }
    lookups += static_cast<double>(c.round.store_lookups);
    new_b += static_cast<double>(c.round.store_new_bytes);
    dup_b += static_cast<double>(c.round.store_dup_bytes);
    logical += static_cast<double>(c.round.total_uncompressed);
  }
  std::vector<double> files, reconnect, memory;
  double fetch_req = 0, fetch_b = 0, degraded = 0, parked = 0, replayed = 0;
  for (const auto& x : r.restarts) {
    const double hosts = std::max(x.run.hosts_reported, 1);
    files.push_back(x.run.files_ptys_seconds / hosts);
    reconnect.push_back(x.run.reconnect_seconds / hosts);
    memory.push_back(x.run.memory_threads_seconds / hosts);
    fetch_req += static_cast<double>(x.fetch_requests);
    fetch_b += static_cast<double>(x.fetch_bytes);
    degraded += static_cast<double>(x.degraded_before);
    parked += static_cast<double>(x.parked);
    replayed += static_cast<double>(x.replayed);
  }
  std::vector<Metric> m = {
      {"core.suspend_s", median(stage["suspend"]), "s"},
      {"core.elect_s", median(stage["elect"]), "s"},
      {"core.drain_s", median(stage["drain"]), "s"},
      {"core.write_s", median(stage["write"]), "s"},
      {"core.refill_s", median(stage["refill"]), "s"},
      {"core.restart_files_s", median(files), "s"},
      {"core.restart_reconnect_s", median(reconnect), "s"},
      {"core.restart_memory_s", median(memory), "s"},
      {"ckptstore.lookups", lookups / cycles, "count"},
      {"ckptstore.lookup_wait_s_p50", median(r.lookup_wait_p50), "s"},
      {"ckptstore.lookup_wait_s_p99", median(r.lookup_wait_p99), "s"},
      {"ckptstore.new_bytes", new_b / cycles, "B"},
      {"ckptstore.dup_bytes", dup_b / cycles, "B"},
      {"ckptstore.dedup_hit_ratio", ratio(dup_b, logical), "ratio"},
      {"ckptstore.fetch_requests", fetch_req / restarts, "count"},
      {"ckptstore.fetch_bytes", fetch_b / restarts, "B"},
      {"ckptstore.degraded_chunks", degraded / restarts, "count"},
      {"rpc.calls", static_cast<double>(r.rpc.calls) / cycles, "count"},
      {"rpc.net_bytes", static_cast<double>(r.rpc.net_bytes) / cycles, "B"},
      {"rpc.net_wait_s", r.rpc.net_wait_seconds / cycles, "s"},
      {"rpc.endpoint_cpu_s", r.rpc.endpoint_cpu_seconds / cycles, "s"},
      {"rpc.failed_ratio",
       ratio(static_cast<double>(r.rpc.failed_calls),
             static_cast<double>(r.rpc.calls)),
       "ratio"},
      {"cluster.parked_requests", parked / restarts, "count"},
      {"cluster.replayed_requests", replayed / restarts, "count"},
  };
  double other = 0;
  for (const auto& [st, secs] : r.critpath) {
    if (std::find_if(std::begin(kCritStages), std::end(kCritStages),
                     [&](const char* k) { return st == k; }) ==
        std::end(kCritStages)) {
      other += secs;
    }
  }
  for (const char* st : kCritStages) {
    auto it = r.critpath.find(st);
    m.push_back({std::string("critpath.") + st + "_s",
                 it == r.critpath.end() ? 0 : it->second / cycles, "s"});
  }
  m.push_back({"critpath.other_s", other / cycles, "s"});
  const auto totals = host.totals();
  for (const char* layer : kHostLayers) {
    auto it = totals.find(layer);
    const HostTracer::Totals t =
        it == totals.end() ? HostTracer::Totals{} : it->second;
    m.push_back({std::string(layer) + ".calls",
                 static_cast<double>(t.calls) / cycles, "count"});
    m.push_back({std::string(layer) + ".bytes",
                 static_cast<double>(t.bytes) / cycles, "B"});
    m.push_back({std::string(layer) + ".s", t.self_s / cycles, "s"});
  }
  m.push_back({"sim.run_for_host_s_per_virtual_s",
               ratio(r.compute_host_s, r.compute_virt_s), "s/s"});
  m.push_back({"trace.overhead_ratio",
               ratio(op_host_seconds(r), op_host_seconds(plain)), "ratio"});
  return m;
}

void report_failures(const PassResult& r) {
  for (const auto& f : r.failures) std::printf("# FAILED %s\n", f.c_str());
  const u64 all = r.gate_exact_bytes + r.gate_excused_bytes;
  std::printf("# content gate: %.4f%% of %llu private image bytes restored "
              "equal to the image on disk\n",
              all > 0 ? 100.0 * static_cast<double>(r.gate_exact_bytes) /
                            static_cast<double>(all)
                      : 0.0,
              static_cast<unsigned long long>(all));
  for (const auto& [name, n] : r.gate_excused) {
    std::printf("# content gate: excused '%s' in %d restart(s), rewritten by "
                "the application after its restore\n", name.c_str(), n);
  }
}

/// Cross-process determinism: the first untraced pass of this binary on a
/// (workload, seed, cycle count) records its virtual results under
/// `out_dir`; every later untraced pass must reproduce them bit for bit.
/// Returns false on a mismatch.
bool check_virtual_record(const std::string& exe, const std::string& out_dir,
                          const Spec& spec, u64 seed, int cycles,
                          const PassResult& r) {
  std::ifstream bin(exe, std::ios::binary);
  const std::string code((std::istreambuf_iterator<char>(bin)),
                         std::istreambuf_iterator<char>());
  char name[160];
  std::snprintf(name, sizeof name, "/virtual-%s-%llu-%d-%08x.txt", spec.name,
                static_cast<unsigned long long>(seed), cycles,
                crc32(std::as_bytes(std::span(code))));
  const std::string path = out_dir + name;
  if (std::ifstream in(path); in) {
    const std::string before((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    if (before != r.fingerprint) {
      std::printf("# virtual results differ from the earlier untraced run "
                  "recorded in %s\n", path.c_str());
      return false;
    }
    std::printf("# virtual results match the earlier untraced run on this "
                "seed\n");
    return true;
  }
  std::ofstream(path) << r.fingerprint;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") workload = val;
    else if (flag == "--seed") seed = std::stoull(val);
    else if (flag == "--seconds") seconds = std::stod(val);
    else if (flag == "--trace") trace = std::stoi(val);
    else if (flag == "--out-dir") out_dir = val;
    else {
      std::fprintf(stderr, "ckptbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload == s.name) spec = &s;
  }
  if (spec == nullptr || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: ckptbench --workload mpi_nas|store_incr|store_restart"
                 " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const int cycles = std::max(
      kMinCycles,
      static_cast<int>(std::lround(spec->cycles_per_second * seconds)));
  set_log_level(LogLevel::kWarn);
  std::filesystem::create_directories(out_dir);

  HostTracer host(start);
  if (trace == 0) {
    Bench b(*spec, seed, cycles, /*traced=*/false, host, out_dir);
    std::vector<double> setups;
    const auto t0 = Clock::now();
    PassResult r = b.run(kWorlds, &setups);
    std::printf("# %d cycles over %d worlds in %.2f s host\n", cycles,
                kWorlds, seconds_between(t0, Clock::now()));
    // Cheap set-ups are noisy: repeat them until a few seconds' worth.
    double spent = 0;
    for (double x : setups) spent += x;
    while (spent < kSetupSeconds && setups.size() < kMaxSetups) {
      setups.push_back(b.setup(static_cast<int>(setups.size())));
      spent += setups.back();
    }
    r.setup_s = median(setups);
    std::printf("# setup_s is the median of %zu set-ups\n", setups.size());
    report_failures(r);
    const bool repeatable =
        check_virtual_record(argv[0], out_dir, *spec, seed, cycles, r);
    std::printf("%s\n", result_line(repeatable && r.failed == 0, r.attempted,
                                     r.failed, end_to_end(r))
                            .c_str());
    return 0;
  }

  // Traced run: an untraced pass, then the traced pass on the same seed.
  std::vector<double> setups;
  PassResult plain;
  {
    Bench a(*spec, seed, cycles, /*traced=*/false, host, out_dir);
    plain = a.run(kWorlds, &setups);
  }
  Bench b(*spec, seed, cycles, /*traced=*/true, host, out_dir);
  host.arm(true);
  const PassResult traced = b.run(kWorlds, &setups);
  host.arm(false);
  const bool repeatable =
      check_virtual_record(argv[0], out_dir, *spec, seed, cycles, plain);
  const bool invariant = traced.fingerprint == plain.fingerprint;
  if (!invariant) {
    std::printf("# virtual results differ between the untraced and the "
                "traced pass\n");
  }
  report_failures(traced);
  for (const auto& [stage, secs] : traced.critpath) {
    std::printf("# critical path %-28s %.6f s/cycle\n", stage.c_str(),
                secs / static_cast<double>(traced.ckpts.size()));
  }
  const std::string spans_path = out_dir + "/spans-" + spec->name + "-" +
                                 std::to_string(seed) + ".json";
  if (!host.write_json(spans_path)) {
    std::fprintf(stderr, "ckptbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("# host spans: %s\n", spans_path.c_str());
  std::printf("%s\n",
              result_line(repeatable && invariant && traced.failed == 0,
                          traced.attempted,
                          traced.failed, per_layer(traced, plain, host))
                  .c_str());
  return 0;
}
