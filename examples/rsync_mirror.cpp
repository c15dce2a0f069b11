// Rsync mirror: synchronize a directory tree from one simulated disk to
// another while a foreground workload hammers the source (paper §5.5).
// Demonstrates the file-task side of the Duet API: GetPath as the hint
// truth, priority by pages-in-memory, and exactly-once metadata.
//
// Build & run:  ./build/examples/rsync_mirror

#include <cstdio>

#include "src/harness/rig.h"
#include "src/tasks/rsync_task.h"

using namespace duet;

int main() {
  StackConfig stack = QuickStackConfig();
  printf("Rsync mirror: /data -> second disk /backup, webserver running\n\n");

  for (bool use_duet : {false, true}) {
    WorkloadConfig workload =
        MakeWorkloadConfig(stack, Personality::kWebserver, 1.0, false, 0, 11);
    CowRig rig(stack, workload);

    BlockDevice dst_device(&rig.loop(), MakeDiskModel(stack), MakeScheduler(stack));
    CowFs dst_fs(&rig.loop(), &dst_device, stack.cache_pages);
    if (!dst_fs.Mkdir("/backup").ok()) {
      return 1;
    }

    RsyncConfig config;
    config.hints = use_duet ? RsyncHints::kDuet : RsyncHints::kNone;
    config.source_dir = "/data";
    config.dest_dir = "/backup";
    RsyncTask task(&rig.fs(), &dst_fs, &rig.duet(), config);

    bool finished = false;
    task.Start([&] { finished = true; });
    rig.workload().Start();
    while (!finished && rig.loop().now() < Minutes(30)) {
      rig.loop().RunUntil(rig.loop().now() + Seconds(1));
    }
    rig.workload().Stop();

    printf("--- %s ---\n", use_duet ? "with Duet" : "baseline");
    printf("  synced %llu files in %.1f s (%llu pages read from disk, %llu from "
           "cache)\n",
           static_cast<unsigned long long>(task.files_synced()),
           ToSeconds(task.stats().Runtime()),
           static_cast<unsigned long long>(task.stats().io_read_pages),
           static_cast<unsigned long long>(task.stats().saved_read_pages));
    printf("  destination matches source: %s\n\n",
           task.DestinationMatchesSource() ? "yes" : "NO (bug!)");
    task.Stop();
  }
  return 0;
}
