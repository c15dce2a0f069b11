// Fully wired simulation stacks for experiments: event loop, block device,
// file system, Duet framework, and a Filebench workload.
#ifndef SRC_HARNESS_RIG_H_
#define SRC_HARNESS_RIG_H_

#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/harness/stack_config.h"
#include "src/logfs/logfs.h"
#include "src/workload/filebench.h"

namespace duet {

// One stack over file system type `Fs`, reporting into `obs` through its
// loop. The constructor populates the workload's file set; a population that
// fails (the file system fills up) aborts with its status in every build
// type.
template <typename Fs>
class Rig {
 public:
  // The default is the one reader of the ambient context (src/obs/obs.h),
  // kept only because the frozen end-to-end benchmark builds its rig inside
  // an ambient scope. ROADMAP item 10's benchmark revision deletes it,
  // together with the rest of the ambient.
  Rig(const StackConfig& stack, const WorkloadConfig& workload_config,
      obs::ObsContext& obs = *obs::CurrentObs());

  EventLoop& loop() { return loop_; }
  BlockDevice& device() { return device_; }
  Fs& fs() { return fs_; }
  DuetCore& duet() { return duet_; }
  FilebenchWorkload& workload() { return workload_; }

 private:
  EventLoop loop_;
  BlockDevice device_;
  Fs fs_;
  DuetCore duet_;
  FilebenchWorkload workload_;
};

extern template class Rig<CowFs>;
extern template class Rig<LogFs>;

// cowfs stack (scrubbing / backup / defragmentation / rsync source).
using CowRig = Rig<CowFs>;
// logfs stack (garbage collection).
using LogRig = Rig<LogFs>;

// Fills in the workload's file set parameters from the stack config and
// returns the adjusted config.
WorkloadConfig MakeWorkloadConfig(const StackConfig& stack, Personality personality,
                                  double coverage, bool skewed, double ops_per_sec,
                                  uint64_t seed);

}  // namespace duet

#endif  // SRC_HARNESS_RIG_H_
