// Pipes and pseudo-terminals.
//
// Raw pipes exist for programs running outside DMTCP; under DMTCP the pipe()
// wrapper promotes pipes to socketpairs (§4.5) so the socket drain machinery
// handles them. Ptys carry terminal modes (termios) which DMTCP saves and
// restores; the TightVNC use case (§5.1) exercises them heavily.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/thread.h"
#include "sim/vnode.h"
#include "util/types.h"

namespace dsim::sim {

/// Shared state of a unidirectional pipe.
struct PipeBuf {
  std::deque<std::byte> data;
  u64 capacity = 64 * 1024;
  bool writer_closed = false;
  bool reader_closed = false;
  WaitQueue readable;
  WaitQueue writable;
};

class PipeVNode final : public VNode {
 public:
  PipeVNode(VKind kind, std::shared_ptr<PipeBuf> buf)
      : VNode(kind), buf_(std::move(buf)) {}
  PipeBuf& buf() { return *buf_; }
  void on_last_close() override {
    if (kind() == VKind::kPipeWrite) {
      buf_->writer_closed = true;
      buf_->readable.wake_all();
    } else {
      buf_->reader_closed = true;
      buf_->writable.wake_all();
    }
  }

 private:
  std::shared_ptr<PipeBuf> buf_;
};

/// Terminal modes; saved in checkpoint images ("terminal modes" in the
/// abstract's inventory of restored artifacts).
struct Termios {
  bool icanon = true;
  bool echo = true;
  bool isig = true;
  u8 veof = 4;   // ^D
  u8 vintr = 3;  // ^C
  bool operator==(const Termios&) const = default;
};

/// Shared state of a pty master/slave pair.
struct PtyPair {
  i32 id = -1;                 // N in /dev/pts/N
  Termios termios;
  // master -> slave and slave -> master byte streams.
  std::deque<std::byte> to_slave;
  std::deque<std::byte> to_master;
  bool master_closed = false;
  bool slave_closed = false;
  WaitQueue slave_readable;
  WaitQueue master_readable;
};

class PtyVNode final : public VNode {
 public:
  PtyVNode(VKind kind, std::shared_ptr<PtyPair> pair)
      : VNode(kind), pair_(std::move(pair)) {}
  PtyPair& pair() { return *pair_; }
  std::shared_ptr<PtyPair> pair_ptr() const { return pair_; }
  void on_last_close() override {
    if (kind() == VKind::kPtyMaster) {
      pair_->master_closed = true;
      pair_->slave_readable.wake_all();
    } else {
      pair_->slave_closed = true;
      pair_->master_readable.wake_all();
    }
  }

 private:
  std::shared_ptr<PtyPair> pair_;
};

}  // namespace dsim::sim
