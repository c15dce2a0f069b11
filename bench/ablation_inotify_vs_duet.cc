// §3.3 ablation: Duet's page-level hints vs an Inotify-style file-level
// mechanism, head to head on the rsync experiment (Fig. 4's setup).
//
// Inotify tells a task *that* a file was touched, but not how many of its
// pages are in memory, nor when data is flushed or evicted — and it needs a
// watch per directory. Duet's page-granular Exists notifications let rsync
// rank files by actual cached pages and back out of stale hints via
// duet_get_path.

#include "bench/bench_common.h"
#include "src/tasks/rsync_task.h"

using namespace duet;

namespace {

struct Variant {
  RsyncHints hints;
  const char* name;
};

}  // namespace

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Ablation: rsync with no hints vs Inotify-style vs Duet",
      "page-level information (counts + eviction) should beat file-level "
      "recency hints; both beat no hints",
      stack);

  TextTable table({"overlap", "hints", "runtime (s)", "reads saved", "speedup",
                   "watches"});
  std::vector<double> overlaps{0.5, 1.0};
  if (SmokeMode()) {
    overlaps = {1.0};
  }
  for (double overlap : overlaps) {
    double baseline_runtime = 0;
    for (const Variant& variant :
         {Variant{RsyncHints::kNone, "none"}, Variant{RsyncHints::kInotify, "inotify"},
          Variant{RsyncHints::kDuet, "duet"}}) {
      WorkloadConfig workload = MakeWorkloadConfig(
          stack, Personality::kWebserver, overlap, /*skewed=*/false,
          /*ops_per_sec=*/0, 42);
      obs::ObsContext ctx;  // per-run counts
      CowRig rig(stack, workload, ctx);
      BlockDevice dst_device(&rig.loop(), MakeDiskModel(stack), MakeScheduler(stack));
      CowFs dst_fs(&rig.loop(), &dst_device, stack.cache_pages);
      (void)dst_fs.Mkdir("/backup");

      RsyncConfig config;
      config.hints = variant.hints;
      config.source_dir = "/data";
      config.dest_dir = "/backup";
      RsyncTask task(&rig.fs(), &dst_fs, &rig.duet(), config);
      bool finished = false;
      task.Start([&] { finished = true; });
      rig.workload().Start();
      while (!finished && rig.loop().now() < 40 * stack.window) {
        rig.loop().RunUntil(rig.loop().now() + Seconds(1));
      }
      rig.workload().Stop();
      double runtime = ToSeconds(task.stats().Runtime());
      if (variant.hints == RsyncHints::kNone) {
        baseline_runtime = runtime;
      }
      double saved = task.stats().work_total > 0
                         ? static_cast<double>(task.stats().saved_read_pages) /
                               static_cast<double>(task.stats().work_total)
                         : 0;
      table.AddRow({Pct(overlap), variant.name, Num(runtime, 1), Pct(saved),
                    runtime > 0 ? Num(baseline_runtime / runtime, 2) : "n/a",
                    Num(static_cast<double>(task.watches_created()), 0)});
      task.Stop();
      fflush(stdout);
    }
  }
  table.Print();
  return 0;
}
