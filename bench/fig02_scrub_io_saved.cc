// Figure 2: I/O saved when the scrubbing task runs together with the
// webserver workload, as a function of device utilization (x-axis) for
// different data-overlap fractions (series), plus the skewed (MS-trace)
// access distribution at 100% overlap (§6.2 reports skew costs 15-30%).

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Figure 2: scrubbing I/O saved (webserver workload)",
      "savings grow with utilization and overlap, plateau at the overlap "
      "fraction; skewed access reduces savings by 15-30%",
      stack);

  RateTable rates(BenchRateCachePath());
  std::vector<std::string> headers{"util"};
  for (double overlap : OverlapSweep()) {
    headers.push_back(StrFormat("overlap %.0f%%", overlap * 100));
  }
  headers.push_back("100% (MS trace)");
  TextTable table(std::move(headers));
  for (int util_pct : UtilSweepPct()) {
    double util = util_pct / 100.0;
    std::vector<std::string> row{Pct(util)};
    for (double overlap : OverlapSweep()) {
      MaintenanceRunResult result =
          RunAtUtil(rates, {.stack = stack, .coverage = overlap, .target_util = util,
                            .tasks = {MaintKind::kScrub}, .use_duet = true});
      row.push_back(Pct(result.IoSavedFraction()));
    }
    MaintenanceRunResult skewed =
        RunAtUtil(rates, {.stack = stack, .skewed = true, .target_util = util,
                          .tasks = {MaintKind::kScrub}, .use_duet = true});
    row.push_back(Pct(skewed.IoSavedFraction()));
    table.AddRow(std::move(row));
    fflush(stdout);
  }
  table.Print();

  // §6.2 also reports write-heavier workloads saving less; show the
  // personality effect at one utilization.
  if (SmokeMode()) {
    return 0;
  }
  printf("\npersonality effect at 70%% utilization, 100%% overlap:\n");
  TextTable ptable({"personality", "R:W", "I/O saved"});
  for (auto [p, name, ratio] :
       {std::tuple{Personality::kWebserver, "webserver", "10:1"},
        std::tuple{Personality::kWebproxy, "webproxy", "4:1"},
        std::tuple{Personality::kFileserver, "fileserver", "1:2"}}) {
    MaintenanceRunResult result =
        RunAtUtil(rates, {.stack = stack, .personality = p, .target_util = 0.7,
                          .tasks = {MaintKind::kScrub}, .use_duet = true});
    ptable.AddRow({name, ratio, Pct(result.IoSavedFraction())});
  }
  ptable.Print();
  return 0;
}
