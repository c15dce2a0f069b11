// Table 6: F2fs-style segment cleaning time with and without Duet, under the
// fileserver workload at 40-70% device utilization. Duet's cost function
// selects victims with cached blocks, so cleaning needs fewer synchronous
// reads and gets faster as utilization (and thus cache traffic) grows.

#include "bench/bench_common.h"

using namespace duet;

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Table 6: segment cleaning time (fileserver on logfs)",
      "baseline ~17 ms flat; Duet drops from ~16 ms at 40% util to ~8 ms at "
      "70% as more victim blocks are cached",
      stack);

  RateTable rates(BenchRateCachePath());
  TextTable table({"utilization", "distribution", "baseline (ms)", "duet (ms)",
                   "base cached", "duet cached"});
  auto fmt = [](const GcRunResult& r) {
    if (r.cleaning_time_ms.count() == 0) {
      return std::string("n/a");
    }
    return StrFormat("%.1f +/- %.1f", r.cleaning_time_ms.mean(),
                     r.cleaning_time_ms.ConfidenceInterval95());
  };
  auto cached_share = [](const GcRunResult& r) {
    uint64_t total = r.blocks_read + r.blocks_cached;
    return total == 0 ? std::string("n/a")
                      : Pct(static_cast<double>(r.blocks_cached) /
                            static_cast<double>(total));
  };
  std::vector<bool> skew_axis{false, true};
  int util_step = 10;
  if (SmokeMode()) {
    skew_axis = {false};
    util_step = 30;
  }
  for (bool skewed : skew_axis) {
    for (int util_pct = 40; util_pct <= 70; util_pct += util_step) {
      double util = util_pct / 100.0;
      double rate = rates.Get(stack, GcWorkload(stack, skewed, 42), util).ops_per_sec;
      GcRunResult baseline = RunGc(stack, /*use_duet=*/false, 42, rate, skewed);
      GcRunResult with_duet = RunGc(stack, /*use_duet=*/true, 42, rate, skewed);
      table.AddRow({Pct(util), skewed ? "MS trace" : "uniform", fmt(baseline),
                    fmt(with_duet), cached_share(baseline), cached_share(with_duet)});
      fflush(stdout);
    }
  }
  table.Print();
  printf("\nnote: the cleaning-time gap tracks how many victim blocks are cached,\n"
         "which depends on the workload's temporal locality; the skewed (MS-trace)\n"
         "rows show the stronger effect the paper reports.\n");
  return 0;
}
