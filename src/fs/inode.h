// Inode model shared by both simulated file systems.
#ifndef SRC_FS_INODE_H_
#define SRC_FS_INODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/util/types.h"

namespace duet {

enum class FileType : uint8_t { kRegular, kDirectory };

struct Inode {
  InodeNo ino = kInvalidInode;
  FileType type = FileType::kRegular;
  uint64_t size = 0;             // bytes (regular files)
  InodeNo parent = kInvalidInode;
  std::string name;              // name within parent (root has "")
  // Directory entries, name -> child inode. Ordered so traversals are
  // deterministic (rsync walks depth-first in name order); the transparent
  // comparator lets a path component look up without a string copy.
  std::map<std::string, InodeNo, std::less<>> children;

  bool is_dir() const { return type == FileType::kDirectory; }
  uint64_t PageCount() const { return PagesForBytes(size); }
};

}  // namespace duet

#endif  // SRC_FS_INODE_H_
