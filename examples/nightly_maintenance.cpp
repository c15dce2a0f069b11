// Nightly maintenance: an incremental backup epoch is open while the
// fileserver workload churns. With Duet, the backup copies each page the
// workload modifies from memory once it is flushed, so closing the epoch
// reads far less from disk.
//
// Build & run:  ./build/examples/nightly_maintenance

#include <cstdio>

#include "src/harness/rig.h"
#include "src/tasks/incremental_backup.h"

using namespace duet;

int main() {
  StackConfig stack = QuickStackConfig();
  printf("Nightly maintenance: incremental backup epoch, fileserver churning\n\n");

  for (bool use_duet : {false, true}) {
    WorkloadConfig workload = MakeWorkloadConfig(stack, Personality::kFileserver,
                                                 1.0, /*skewed=*/false,
                                                 /*ops_per_sec=*/80, 21);
    obs::ObsContext obs;  // this run's metrics and trace
    CowRig rig(stack, workload, obs);

    IncrementalBackupConfig inc_config;
    inc_config.use_duet = use_duet;
    IncrementalBackup inc(&rig.fs(), &rig.duet(), inc_config);
    inc.BeginEpoch();
    rig.loop().RunUntil(Millis(50));

    rig.workload().Start();
    rig.loop().RunUntil(stack.window);
    rig.workload().Stop();

    bool inc_done = false;
    inc.EndEpoch([&] { inc_done = true; });
    rig.loop().Run();

    printf("--- %s ---\n", use_duet ? "with Duet" : "baseline");
    printf("  incremental backup: %s; %llu changed pages, %llu read from disk, "
           "%llu captured from memory\n",
           inc_done && inc.IncrementComplete() ? "complete and consistent"
                                               : "INCOMPLETE (bug!)",
           static_cast<unsigned long long>(inc.stats().work_total),
           static_cast<unsigned long long>(inc.stats().io_read_pages),
           static_cast<unsigned long long>(inc.stats().saved_read_pages));
    printf("\n");
    inc.Stop();
  }
  return 0;
}
