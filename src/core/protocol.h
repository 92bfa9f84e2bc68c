// Coordinator wire protocol.
//
// Managers, restart processes and dmtcp_command talk to the checkpoint
// coordinator over ordinary (simulated) TCP with length-prefixed messages.
// The coordinator implements exactly the primitives the paper needs: a
// cluster-wide barrier (§4.3 — "the only global communication primitive
// used at checkpoint time is a barrier") and, at restart time, a discovery
// service for re-locating migrated peers (§4.4 step 2).
#pragma once

#include <string>
#include <vector>

#include "core/ids.h"
#include "sim/socket.h"
#include "util/serialize.h"
#include "util/types.h"

namespace dsim::core {

enum class MsgType : u8 {
  kRegister = 1,        // manager -> coord: join computation (s=hostname, a=vpid, b=restarting, ua=node)
  kCkptRequest = 2,     // coord -> manager: begin checkpoint (a=round)
  kBarrierWait = 3,     // manager -> coord: waiting at barrier `s` (a=expected override, 0=all clients)
  kBarrierRelease = 4,  // coord -> manager: barrier `s` released
  kCommand = 5,         // dmtcp_command -> coord: s in {"checkpoint","status","kill","interval"} (a=arg)
  kCommandReply = 6,    // coord -> dmtcp_command: s=reply text, a=numeric
  kAdvertise = 7,       // restart -> coord: conn listener at (a=node, b=port)
  kQueryAddr = 8,       // restart -> coord: where is conn? (blocks until advertised)
  kAddrInfo = 9,        // coord -> restart: conn is at (a=node, b=port)
  kVpidCheck = 10,      // hijack -> coord: does vpid a collide? reply kVpidReply b=1 collision
  kVpidReply = 11,
  kVpidRegister = 12,   // hijack -> coord: vpid a now in use
  kImageStats = 13,     // manager -> coord: round a, blob=ImageStats
  kStageNote = 14,      // restart -> coord: s=stage name, ua=duration ns (restart breakdown)
};

/// ImageStats flag word.
inline constexpr u64 kImageFlagAsync = 1;    // drained via --ckpt-async
inline constexpr u64 kImageFlagSkipped = 2;  // round skipped (backpressure)

/// The kImageStats blob: what one manager wrote in a round (the message
/// also carries b=node, ua=uncompressed image bytes, s=image path). A full
/// image sends only `written` (8 bytes); an incremental delta appends its
/// chunk counts and the flag word (56 bytes). Message size is charged on
/// the simulated network, so both sizes are part of the model.
struct ImageStats {
  u64 written = 0;  // full: the compressed image; incremental: the delta
  bool incremental = false;
  u64 total_chunks = 0;
  u64 new_chunks = 0;
  u64 dup_bytes = 0;         // logical bytes dedup answered
  u64 stored_new_bytes = 0;  // post-codec stored bytes
  u64 raw_new_bytes = 0;     // pre-codec chunked bytes
  u64 flags = 0;             // kImageFlag*

  std::vector<std::byte> encode() const {
    ByteWriter w;
    w.put_u64(written);
    if (incremental) {
      for (u64 v : {total_chunks, new_chunks, dup_bytes, stored_new_bytes,
                    raw_new_bytes, flags}) {
        w.put_u64(v);
      }
    }
    return w.take();
  }
  static ImageStats decode(std::span<const std::byte> bytes) {
    ByteReader r(bytes);
    ImageStats s;
    s.written = r.get_u64();
    s.incremental = r.remaining() > 0;
    if (s.incremental) {
      for (u64* v : {&s.total_chunks, &s.new_chunks, &s.dup_bytes,
                     &s.stored_new_bytes, &s.raw_new_bytes, &s.flags}) {
        *v = r.get_u64();
      }
    }
    return s;
  }
};

struct Msg {
  MsgType type = MsgType::kRegister;
  UniquePid upid{};
  i32 a = 0;
  i32 b = 0;
  u64 ua = 0;
  std::string s;
  sim::ConnId conn{};
  std::vector<std::byte> blob;

  std::vector<std::byte> encode() const {
    ByteWriter w;
    w.put_u8(static_cast<u8>(type));
    upid.serialize(w);
    w.put_i32(a);
    w.put_i32(b);
    w.put_u64(ua);
    w.put_string(s);
    conn.serialize(w);
    w.put_blob(blob);
    return w.take();
  }
  static Msg decode(std::span<const std::byte> bytes) {
    ByteReader r(bytes);
    Msg m;
    m.type = static_cast<MsgType>(r.get_u8());
    m.upid = UniquePid::deserialize(r);
    m.a = r.get_i32();
    m.b = r.get_i32();
    m.ua = r.get_u64();
    m.s = r.get_string();
    m.conn = sim::ConnId::deserialize(r);
    m.blob = r.get_blob();
    return m;
  }
};

/// Barrier names for the checkpoint rounds (§4.3, Fig. 1) and restart
/// (§4.4, Fig. 2).
namespace barrier {
inline constexpr const char* kSuspended = "suspended";
inline constexpr const char* kElected = "elected";
inline constexpr const char* kDrained = "drained";
inline constexpr const char* kCheckpointed = "checkpointed";
inline constexpr const char* kRefilled = "refilled";
inline constexpr const char* kRestartConns = "restart:conns";
}  // namespace barrier

}  // namespace dsim::core
