#include "src/fs/namespace.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace duet {

namespace {

// The next non-empty component of `path` at or after `*pos`, advancing
// `*pos` past it; empty once the path is exhausted.
std::string_view NextComponent(std::string_view path, size_t* pos) {
  size_t start = path.find_first_not_of('/', *pos);
  if (start == std::string_view::npos) {
    *pos = path.size();
    return {};
  }
  size_t end = std::min(path.find('/', start), path.size());
  *pos = end;
  return path.substr(start, end - start);
}

}  // namespace

std::vector<std::string_view> SplitPath(std::string_view path) {
  std::vector<std::string_view> parts;
  size_t pos = 0;
  for (std::string_view part = NextComponent(path, &pos); !part.empty();
       part = NextComponent(path, &pos)) {
    parts.push_back(part);
  }
  return parts;
}

std::optional<InodeNo> Namespace::Lookup(InodeNo dir, std::string_view name) const {
  const Inode* inode = Get(dir);
  if (inode == nullptr || !inode->is_dir()) {
    return std::nullopt;
  }
  auto it = inode->children.find(name);
  if (it == inode->children.end()) {
    return std::nullopt;
  }
  return it->second;
}

Namespace::Namespace() {
  Inode root;
  root.ino = kRootIno;
  root.type = FileType::kDirectory;
  root.parent = kInvalidInode;
  inodes_.emplace(kRootIno, std::move(root));
}

Result<InodeNo> Namespace::Resolve(std::string_view path) const {
  InodeNo cur = kRootIno;
  size_t pos = 0;
  for (std::string_view part = NextComponent(path, &pos); !part.empty();
       part = NextComponent(path, &pos)) {
    std::optional<InodeNo> child = Lookup(cur, part);
    if (!child.has_value()) {
      return Status(StatusCode::kNotFound, std::string(path));
    }
    cur = *child;
  }
  return cur;
}

Result<std::string> Namespace::PathOf(InodeNo ino) const {
  const Inode* inode = Get(ino);
  if (inode == nullptr) {
    return Status(StatusCode::kNotFound);
  }
  if (ino == kRootIno) {
    return std::string("/");
  }
  std::vector<const Inode*> chain;
  while (inode != nullptr && inode->ino != kRootIno) {
    chain.push_back(inode);
    inode = Get(inode->parent);
  }
  if (inode == nullptr) {
    return Status(StatusCode::kCorruption, "detached inode");
  }
  std::string path;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    path += '/';
    path += (*it)->name;
  }
  return path;
}

const Inode* Namespace::Get(InodeNo ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

Inode* Namespace::GetMutable(InodeNo ino) {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

bool Namespace::IsUnder(InodeNo ino, InodeNo ancestor) const {
  while (ino != kInvalidInode) {
    if (ino == ancestor) {
      return true;
    }
    const Inode* inode = Get(ino);
    if (inode == nullptr) {
      return false;
    }
    ino = inode->parent;
  }
  return false;
}

Result<InodeNo> Namespace::Create(std::string_view path, FileType type) {
  size_t pos = 0;
  std::string_view name = NextComponent(path, &pos);
  if (name.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty path");
  }
  // Every component but the last names a directory to descend into.
  InodeNo parent = kRootIno;
  for (std::string_view next = NextComponent(path, &pos); !next.empty();
       next = NextComponent(path, &pos)) {
    std::optional<InodeNo> dir = Lookup(parent, name);
    if (!dir.has_value()) {
      return Status(StatusCode::kNotFound, std::string(path));
    }
    parent = *dir;
    name = next;
  }
  return CreateIn(parent, name, type);
}

Result<InodeNo> Namespace::CreateIn(InodeNo parent, std::string_view name,
                                    FileType type) {
  Inode* dir = GetMutable(parent);
  if (dir == nullptr || !dir->is_dir()) {
    return Status(StatusCode::kNotFound, "parent");
  }
  if (name.empty() || name.find('/') != std::string_view::npos) {
    return Status(StatusCode::kInvalidArgument, std::string(name));
  }
  // One descent: the lower bound is both the existence check and the hint
  // the new entry is inserted at.
  auto at = dir->children.lower_bound(name);
  if (at != dir->children.end() && at->first == name) {
    return Status(StatusCode::kExists, std::string(name));
  }
  InodeNo ino = next_ino_++;
  at = dir->children.emplace_hint(at, std::string(name), ino);
  Inode& inode = inodes_[ino];
  inode.ino = ino;
  inode.type = type;
  inode.parent = parent;
  inode.name = at->first;
  for (VfsObserver* o : observers_) {
    o->OnCreate(ino);
  }
  return ino;
}

Status Namespace::Unlink(InodeNo ino) {
  if (ino == kRootIno) {
    return Status(StatusCode::kInvalidArgument, "cannot unlink root");
  }
  Inode* inode = GetMutable(ino);
  if (inode == nullptr) {
    return Status(StatusCode::kNotFound);
  }
  if (inode->is_dir() && !inode->children.empty()) {
    return Status(StatusCode::kBusy, "directory not empty");
  }
  Inode* parent = GetMutable(inode->parent);
  assert(parent != nullptr);
  parent->children.erase(inode->name);
  inodes_.erase(ino);
  for (VfsObserver* o : observers_) {
    o->OnUnlink(ino);
  }
  return Status::Ok();
}

Status Namespace::Rename(InodeNo ino, InodeNo new_parent, std::string_view new_name) {
  if (ino == kRootIno) {
    return Status(StatusCode::kInvalidArgument, "cannot move root");
  }
  Inode* inode = GetMutable(ino);
  Inode* dest = GetMutable(new_parent);
  if (inode == nullptr || dest == nullptr || !dest->is_dir()) {
    return Status(StatusCode::kNotFound);
  }
  if (new_name.empty() || new_name.find('/') != std::string_view::npos) {
    return Status(StatusCode::kInvalidArgument, std::string(new_name));
  }
  if (inode->is_dir() && IsUnder(new_parent, ino)) {
    return Status(StatusCode::kInvalidArgument, "would create a cycle");
  }
  std::string key(new_name);
  if (dest->children.count(key) > 0) {
    return Status(StatusCode::kExists, key);
  }
  InodeNo old_parent = inode->parent;
  Inode* src = GetMutable(old_parent);
  assert(src != nullptr);
  src->children.erase(inode->name);
  inode->parent = new_parent;
  inode->name = key;
  dest->children.emplace(std::move(key), ino);
  for (VfsObserver* o : observers_) {
    o->OnRename(ino, old_parent, new_parent, inode->is_dir());
  }
  return Status::Ok();
}

void Namespace::RestoreInode(InodeNo ino, FileType type, uint64_t size,
                             InodeNo parent, std::string name) {
  Inode inode;
  inode.ino = ino;
  inode.type = type;
  inode.size = size;
  inode.parent = parent;
  inode.name = std::move(name);
  inodes_[ino] = std::move(inode);
}

void Namespace::RestoreLinks(InodeNo next_ino) {
  for (auto& [ino, inode] : inodes_) {
    inode.children.clear();
  }
  for (auto& [ino, inode] : inodes_) {
    if (ino == kRootIno) {
      continue;
    }
    Inode* parent = GetMutable(inode.parent);
    assert(parent != nullptr && parent->is_dir());
    parent->children.emplace(inode.name, ino);
  }
  next_ino_ = next_ino;
}

bool Namespace::WalkImpl(const Inode& dir,
                         const std::function<bool(const Inode&)>& fn) const {
  for (const auto& [name, child_ino] : dir.children) {
    const Inode* child = Get(child_ino);
    assert(child != nullptr);
    if (!fn(*child)) {
      return false;
    }
    if (child->is_dir() && !WalkImpl(*child, fn)) {
      return false;
    }
  }
  return true;
}

void Namespace::WalkDepthFirst(InodeNo dir,
                               const std::function<bool(const Inode&)>& fn) const {
  const Inode* inode = Get(dir);
  if (inode == nullptr || !inode->is_dir()) {
    return;
  }
  WalkImpl(*inode, fn);
}

void Namespace::ForEachInode(const std::function<void(const Inode&)>& fn) const {
  for (const auto& [ino, inode] : inodes_) {
    fn(inode);
  }
}

void Namespace::AddObserver(VfsObserver* observer) {
  assert(observer != nullptr);
  observers_.push_back(observer);
}

void Namespace::RemoveObserver(VfsObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

}  // namespace duet
