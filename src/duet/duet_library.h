// The Duet task library (paper §4.2): a priority queue for opportunistic
// processing plus the fetch-drain helper from Algorithm 1. Used by both
// "kernel" tasks (defrag) and "user" tasks (rsync) in this repository.
#ifndef SRC_DUET_DUET_LIBRARY_H_
#define SRC_DUET_DUET_LIBRARY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/duet/duet_core.h"
#include "src/duet/duet_types.h"

namespace duet {

// Priority queue over inodes, ordered by a task-specific score derived from
// the number of pages Duet reports in memory (e.g. absolute count for rsync,
// fraction of the file for defrag). Backed by an ordered set (red-black
// tree), as the paper's implementation is.
class InodePriorityQueue {
 public:
  // `score` maps (inode, pages_in_memory) to a priority; higher dequeues
  // first. Called whenever an inode's page count changes.
  explicit InodePriorityQueue(std::function<double(InodeNo, uint64_t)> score);

  // Ingests fetched file-task items: Exists notifications raise an inode's
  // page count, Removed (¬exists) notifications lower it.
  void Update(const std::vector<DuetItem>& items);

  // Removes and returns the highest-priority inode, or nullopt when empty.
  std::optional<InodeNo> Dequeue();

  // Drops an inode (e.g. after the task processed or dismissed it).
  void Erase(InodeNo ino);

  uint64_t size() const { return by_score_.size(); }
  bool empty() const { return by_score_.empty(); }
  uint64_t PagesInMemory(InodeNo ino) const;

 private:
  void Reinsert(InodeNo ino);

  std::function<double(InodeNo, uint64_t)> score_;
  struct PageSet {
    uint64_t count = 0;
    double score = 0;
    bool queued = false;
  };
  std::unordered_map<InodeNo, PageSet> inodes_;
  // (score, ino), ordered descending by score via reverse iteration.
  std::set<std::pair<double, InodeNo>> by_score_;
};

// Algorithm 1's prioqueue_update: drains all pending events from the
// session into the queue, fetching `batch` items per call (tasks pass
// TaskRun::kFetchBatch). Returns the number of items fetched.
uint64_t DrainEvents(DuetCore& duet, SessionId sid, InodePriorityQueue& queue,
                     size_t batch);

// Drains pending events and hands each raw item to `fn` (block tasks).
uint64_t DrainEvents(DuetCore& duet, SessionId sid,
                     const std::function<void(const DuetItem&)>& fn, size_t batch);

}  // namespace duet

#endif  // SRC_DUET_DUET_LIBRARY_H_
