#include "src/harness/rig.h"

#include <cstdio>
#include <cstdlib>

namespace duet {

template <typename Fs>
Rig<Fs>::Rig(const StackConfig& stack, const WorkloadConfig& workload_config,
             obs::ObsContext& obs)
    : loop_(obs),
      device_(&loop_, MakeDiskModel(stack), MakeScheduler(stack)),
      fs_(&loop_, &device_, stack.cache_pages),
      duet_(&fs_),
      workload_(&fs_, workload_config) {
  Status setup = workload_.Setup();
  if (!setup.ok()) {
    fprintf(stderr, "rig: cannot populate the %s file set: %s\n",
            PersonalityName(workload_config.personality), setup.ToString().c_str());
    std::abort();
  }
}

template class Rig<CowFs>;
template class Rig<LogFs>;

WorkloadConfig MakeWorkloadConfig(const StackConfig& stack, Personality personality,
                                  double coverage, bool skewed, double ops_per_sec,
                                  uint64_t seed) {
  WorkloadConfig config;
  config.personality = personality;
  config.file_count = stack.FileCount();
  config.mean_file_size = stack.mean_file_size;
  config.coverage = coverage;
  config.skewed = skewed;
  config.ops_per_sec = ops_per_sec;
  config.seed = seed;
  return config;
}

}  // namespace duet
