// Table 5: maximum device utilization (10% steps) at which each maintenance
// task still completes within the experiment window, baseline vs Duet, for
// the paper's workload grid.

#include "bench/bench_common.h"

using namespace duet;

namespace {

struct Row {
  Personality personality;
  const char* workload_name;
  const char* rw;
  double overlap;
  bool skewed;
};

std::string FmtUtil(double util) {
  return util < 0 ? std::string("n/a") : Pct(util);
}

}  // namespace

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Table 5: maximum utilization with and without Duet",
      "baseline scrub caps at ~70% regardless of workload, backup at ~40%, "
      "defrag 40-60%; Duet raises each, up to 100% at full overlap",
      stack);

  std::vector<Row> rows{
      {Personality::kWebserver, "webserver", "10:1", 0.25, false},
      {Personality::kWebserver, "webserver", "10:1", 0.50, false},
      {Personality::kWebserver, "webserver", "10:1", 0.75, false},
      {Personality::kWebserver, "webserver", "10:1", 1.00, false},
      {Personality::kWebserver, "webserver", "10:1", 1.00, true},
      {Personality::kWebproxy, "webproxy", "4:1", 1.00, false},
      {Personality::kWebproxy, "webproxy", "4:1", 1.00, true},
      {Personality::kFileserver, "fileserver", "1:2", 1.00, false},
      {Personality::kFileserver, "fileserver", "1:2", 1.00, true},
  };
  std::vector<MaintKind> task_kinds{MaintKind::kScrub, MaintKind::kBackup,
                                    MaintKind::kDefrag};
  if (SmokeMode()) {
    rows = {{Personality::kWebserver, "webserver", "10:1", 1.00, false}};
    task_kinds = {MaintKind::kScrub};
  }

  RateTable rates(BenchRateCachePath());
  int step_pct = SmokeMode() ? 50 : 10;
  TextTable table({"workload", "overlap", "distribution", "scrub base", "scrub duet",
                   "backup base", "backup duet", "defrag base", "defrag duet"});
  for (const Row& row : rows) {
    std::vector<std::string> cells{row.workload_name, Pct(row.overlap),
                                   row.skewed ? "MS trace" : "uniform"};
    for (MaintKind task : task_kinds) {
      MaintenanceRunConfig config{
          .stack = stack, .personality = row.personality, .coverage = row.overlap,
          .skewed = row.skewed, .tasks = {task},
          .fragmented_fraction = task == MaintKind::kDefrag ? 0.1 : 0.0};
      cells.push_back(FmtUtil(FindMaxUtilization(rates, config, step_pct)));
      config.use_duet = true;
      cells.push_back(FmtUtil(FindMaxUtilization(rates, config, step_pct)));
      fflush(stdout);
    }
    table.AddRow(std::move(cells));
  }
  table.Print();
  return 0;
}
