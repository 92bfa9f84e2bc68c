// Syscall interposition interface — the simulator's LD_PRELOAD.
//
// DMTCP injects dmtcphijack.so and wraps a small set of libc calls, each
// only to record or virtualize something (§4.2). A Process may carry an
// Interposer; ProcessCtx routes the five calls whose behaviour changes under
// DMTCP through it: pipe (promoted to a socketpair, §4.5), fork/exec and ssh
// (children join the computation, §3; virtual-pid conflicts re-fork, §4.5),
// getpid and waitpid (virtual pids, §4.5) and accept (connections the drain
// pre-accepted are handed out first). Every other call goes straight to the
// kernel: the connection metadata DMTCP's socket wrappers record is read
// from kernel state at checkpoint time (core::Hijack::build_conn_table).
// core::Hijack is the only implementation; sim cannot name it, hence this
// interface.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "util/types.h"

namespace dsim::sim {

class ProcessCtx;

class Interposer {
 public:
  virtual ~Interposer() = default;

  /// Called once when the library is "injected" at process start, before the
  /// program's main thread runs. The hijack spawns its checkpoint manager
  /// thread here (§4.2).
  virtual void on_attach() = 0;
  /// Called as the process exits (before fd teardown).
  virtual void on_process_exit() = 0;

  // Wrapped syscalls. An implementation that needs the kernel's own call
  // uses the matching ProcessCtx::*_raw variant, which bypasses this hook.
  virtual Task<Fd> wrap_accept(ProcessCtx& ctx, Fd fd) = 0;
  virtual Task<std::pair<Fd, Fd>> wrap_pipe(ProcessCtx& ctx) = 0;
  virtual Task<Pid> wrap_spawn(ProcessCtx& ctx, NodeId node, std::string prog,
                               std::vector<std::string> argv,
                               std::map<std::string, std::string> env) = 0;
  virtual Task<int> wrap_waitpid(ProcessCtx& ctx, Pid child) = 0;
  virtual Pid wrap_getpid(ProcessCtx& ctx) = 0;
};

}  // namespace dsim::sim
