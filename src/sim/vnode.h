// Virtual-node layer: open-file descriptions and kernel objects backing
// file descriptors.
//
// POSIX sharing semantics are modeled faithfully because DMTCP depends on
// them: `dup`/`fork` share one OpenFile (the "file description": offset,
// flags, F_SETOWN owner), and DMTCP's leader election (§4.3 step 3) elects
// one process per *description* by misusing F_SETOWN — the last setter wins.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "sim/byte_image.h"
#include "util/types.h"

namespace dsim::sim {

enum class VKind : u8 {
  kFile = 0,
  kTcp = 1,
  kPipeRead = 2,
  kPipeWrite = 3,
  kPtyMaster = 4,
  kPtySlave = 5,
  kDevNull = 6,
};

/// Base class of kernel objects reachable through file descriptors.
class VNode {
 public:
  explicit VNode(VKind kind) : kind_(kind) {}
  virtual ~VNode() = default;
  VKind kind() const { return kind_; }

  /// Called when the last OpenFile referencing this vnode is closed.
  virtual void on_last_close() {}

 private:
  VKind kind_;
};

/// A file on some filesystem. Inode contents are a ByteImage, so checkpoint
/// image files can "weigh" their virtual size while storing only real bytes.
struct Inode {
  ByteImage data;
  u64 version = 0;  // bumped on writes (cheap change detection)
  /// Device-charged size when it differs from the stored bytes (checkpoint
  /// images store real container bytes but weigh their virtual size).
  u64 charged_size = 0;
  u64 charge_or_size() const { return charged_size ? charged_size : data.size(); }
};

class FileVNode final : public VNode {
 public:
  FileVNode(std::string path, std::shared_ptr<Inode> inode)
      : VNode(VKind::kFile), path_(std::move(path)), inode_(std::move(inode)) {}
  const std::string& path() const { return path_; }
  Inode& inode() { return *inode_; }
  std::shared_ptr<Inode> inode_ptr() const { return inode_; }

 private:
  std::string path_;
  std::shared_ptr<Inode> inode_;
};

class DevNullVNode final : public VNode {
 public:
  DevNullVNode() : VNode(VKind::kDevNull) {}
};

/// Open-file description (POSIX "file description"). Shared by dup/fork.
struct OpenFile {
  std::shared_ptr<VNode> vnode;
  u64 offset = 0;
  int flags = 0;
  /// F_SETOWN value; DMTCP's election trick (§4.3 step 3) writes the pid of
  /// every sharing process here — the last writer wins the election.
  Pid fown_pid = 0;
  /// Saved pre-election owner, restored after refill (§4.3).
  Pid fown_saved = 0;
  /// Stable identity used by checkpoint tables to reconstruct sharing.
  u64 description_id = 0;
  /// DMTCP-internal descriptor (e.g. the coordinator connection); excluded
  /// from checkpoints, exactly as real DMTCP keeps its own sockets out of
  /// the connection table.
  bool dmtcp_internal = false;
};

/// Per-process descriptor table.
class FdTable {
 public:
  /// Install `of` at the lowest free fd >= min_fd.
  Fd install(std::shared_ptr<OpenFile> of, Fd min_fd = 0);
  /// Install at a specific fd (dup2 semantics: closes existing silently —
  /// callers handle close side effects).
  void install_at(Fd fd, std::shared_ptr<OpenFile> of);
  std::shared_ptr<OpenFile> get(Fd fd) const;
  /// Remove the entry; returns the description (callers run close logic).
  std::shared_ptr<OpenFile> remove(Fd fd);

  const std::map<Fd, std::shared_ptr<OpenFile>>& entries() const {
    return map_;
  }
  /// Copy for fork(): shares OpenFile objects (POSIX semantics).
  FdTable clone() const { return *this; }
  /// Copy for fork+exec: DMTCP-internal descriptors are close-on-exec
  /// (the child must open its own coordinator connection).
  FdTable clone_for_exec() const {
    FdTable t;
    for (const auto& [fd, of] : map_) {
      if (!of->dmtcp_internal) t.map_.emplace(fd, of);
    }
    return t;
  }
  void clear() { map_.clear(); }

 private:
  std::map<Fd, std::shared_ptr<OpenFile>> map_;
};

}  // namespace dsim::sim
