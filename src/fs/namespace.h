// Directory-tree (namespace) management shared by cowfs and logfs: inode
// table, path resolution, create/unlink/rename, and ancestor queries. Data
// placement is left entirely to the concrete file system.
#ifndef SRC_FS_NAMESPACE_H_
#define SRC_FS_NAMESPACE_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/fs/inode.h"
#include "src/fs/vfs_observer.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace duet {

class Namespace {
 public:
  Namespace();

  Namespace(const Namespace&) = delete;
  Namespace& operator=(const Namespace&) = delete;

  InodeNo root() const { return kRootIno; }
  static constexpr InodeNo kRootIno = 1;

  // ---- Lookup ----

  // Resolves an absolute path ("/a/b/c"; "/" is the root).
  Result<InodeNo> Resolve(std::string_view path) const;

  // Absolute path of an inode.
  Result<std::string> PathOf(InodeNo ino) const;

  const Inode* Get(InodeNo ino) const;
  Inode* GetMutable(InodeNo ino);
  bool Exists(InodeNo ino) const { return inodes_.count(ino) > 0; }

  // True if `ino` equals `ancestor` or lies anywhere beneath it.
  bool IsUnder(InodeNo ino, InodeNo ancestor) const;

  // ---- Mutation ----

  // Creates a regular file or directory at `path` (parent must exist).
  Result<InodeNo> Create(std::string_view path, FileType type);
  Result<InodeNo> CreateIn(InodeNo parent, std::string_view name, FileType type);

  // Unlinks a file or an empty directory. The inode is destroyed.
  Status Unlink(InodeNo ino);

  // Moves `ino` under `new_parent` as `new_name`. Fails if the destination
  // name exists or the move would create a cycle.
  Status Rename(InodeNo ino, InodeNo new_parent, std::string_view new_name);

  // ---- Crash recovery (mount-time restore) ----

  // Installs an inode record directly into the table: no parent checks, no
  // observer events (recovery happens before any Duet session registers).
  // Restoring the root updates the existing entry. Parents may be restored
  // after their children — call RestoreLinks() once all inodes are in.
  void RestoreInode(InodeNo ino, FileType type, uint64_t size, InodeNo parent,
                    std::string name);

  // Rebuilds every directory's children map from the restored parent/name
  // fields and sets the next inode number to allocate.
  void RestoreLinks(InodeNo next_ino);

  // ---- Iteration ----

  // Depth-first, name-ordered traversal under `dir` (inclusive of files,
  // exclusive of `dir` itself). `fn` returning false stops the walk.
  void WalkDepthFirst(InodeNo dir, const std::function<bool(const Inode&)>& fn) const;

  // Calls `fn` for every inode (any order).
  void ForEachInode(const std::function<void(const Inode&)>& fn) const;

  uint64_t inode_count() const { return inodes_.size(); }
  // Upper bound on inode numbers ever allocated (bitmap sizing).
  InodeNo max_ino() const { return next_ino_; }

  // ---- Observers ----
  void AddObserver(VfsObserver* observer);
  void RemoveObserver(VfsObserver* observer);

 private:
  // The entry `name` of directory `dir`, if `dir` is a directory holding it.
  std::optional<InodeNo> Lookup(InodeNo dir, std::string_view name) const;
  bool WalkImpl(const Inode& dir, const std::function<bool(const Inode&)>& fn) const;

  std::unordered_map<InodeNo, Inode> inodes_;
  InodeNo next_ino_ = kRootIno + 1;
  std::vector<VfsObserver*> observers_;
};

// Splits "/a/b/c" into {"a","b","c"}. Empty components are ignored.
std::vector<std::string_view> SplitPath(std::string_view path);

}  // namespace duet

#endif  // SRC_FS_NAMESPACE_H_
