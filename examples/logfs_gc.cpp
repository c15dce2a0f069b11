// Log-structured GC: an F2fs-like file system under a write-heavy
// fileserver workload, cleaned by the background garbage collector (paper
// §5.4). The Duet-enabled cleaner tracks which segments have cached valid
// blocks and prefers them, cutting the synchronous reads per cleaned
// segment.
//
// Build & run:  ./build/examples/logfs_gc

#include <cstdio>

#include "src/harness/rig.h"
#include "src/tasks/gc_task.h"

using namespace duet;

int main() {
  StackConfig stack = QuickStackConfig();
  printf("logfs GC: fileserver workload (skewed), background cleaning\n\n");

  for (bool use_duet : {false, true}) {
    WorkloadConfig workload = MakeWorkloadConfig(stack, Personality::kFileserver,
                                                 1.0, /*skewed=*/true,
                                                 /*ops_per_sec=*/120, 13);
    obs::ObsContext obs;  // this run's metrics and trace
    LogRig rig(stack, workload, obs);
    GcConfig config;
    config.use_duet = use_duet;
    config.wake_interval = Millis(100);
    config.idle_threshold = Millis(10);
    GcTask gc(&rig.fs(), &rig.duet(), config);
    gc.Start();
    rig.workload().Start();
    rig.loop().RunUntil(stack.window);
    rig.workload().Stop();

    printf("--- %s ---\n", use_duet ? "with Duet" : "baseline");
    printf("  segments cleaned: %llu, free segments now: %llu\n",
           static_cast<unsigned long long>(gc.segments_cleaned()),
           static_cast<unsigned long long>(rig.fs().free_segments()));
    if (gc.cleaning_time_ms().count() > 0) {
      printf("  avg cleaning time: %.1f ms (+/- %.1f)\n",
             gc.cleaning_time_ms().mean(),
             gc.cleaning_time_ms().ConfidenceInterval95());
    }
    printf("  cleaning reads: %llu from disk, %llu saved by the cache\n\n",
           static_cast<unsigned long long>(gc.stats().io_read_pages),
           static_cast<unsigned long long>(gc.stats().saved_read_pages));
    gc.Stop();
  }
  return 0;
}
