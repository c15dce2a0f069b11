// Shared plumbing for the figure/table reproduction binaries.
//
// Every bench accepts:
//   --quick   1/100-scale stack (512 MiB data, 18 s window)  [default]
//   --std     1/50-scale stack  (1 GiB data, 36 s window)
//   --smoke   seconds-scale CI configuration: a tiny stack plus truncated
//             sweeps. Proves the binary runs end to end; the numbers it
//             prints are NOT a valid reproduction of the paper.
// All real scales preserve the paper's maintenance-work : window ratio,
// which is what the maximum-utilization and completion results depend on.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/harness/calibrate.h"
#include "src/harness/runner.h"
#include "src/harness/stack_config.h"
#include "src/harness/table.h"
#include "src/util/format.h"

namespace duet {

inline StackConfig StdStackConfig() {
  StackConfig config;
  config.capacity_blocks = 327'680;            // 1.25 GiB device
  config.data_bytes = 1ull * 1024 * 1024 * 1024;
  config.cache_pages = 5'243;                  // ~2%
  config.window = Seconds(36);
  return config;
}

inline StackConfig SmokeStackConfig() {
  StackConfig config = QuickStackConfig();
  config.data_bytes = 48ull * 1024 * 1024;
  config.capacity_blocks = (config.data_bytes / kPageSize) * 5 / 4;
  config.cache_pages =
      std::max<uint64_t>(256, config.data_bytes / kPageSize / 50);
  config.window = Seconds(2);
  return config;
}

// Set by ParseStackArgs when --smoke is given; sweeps consult it through the
// helpers below so every bench binary finishes in seconds under ctest.
inline bool g_smoke_mode = false;

inline bool SmokeMode() { return g_smoke_mode; }

inline StackConfig ParseStackArgs(int argc, char** argv) {
  StackConfig config = QuickStackConfig();
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--std") == 0) {
      config = StdStackConfig();
    } else if (strcmp(argv[i], "--quick") == 0) {
      config = QuickStackConfig();
    } else if (strcmp(argv[i], "--smoke") == 0) {
      g_smoke_mode = true;
      config = SmokeStackConfig();
    }
  }
  return config;
}

// Rate cache: smoke runs stay in-memory so parallel ctest jobs never race on
// the shared cache file (an empty path disables persistence).
inline std::string BenchRateCachePath() {
  return SmokeMode() ? std::string() : std::string(".duet_rate_cache");
}

// Utilization sweep in percent. Smoke mode visits only an idle and a loaded
// point instead of the full axis.
inline std::vector<int> UtilSweepPct(int step = 10, int max = 100) {
  if (SmokeMode()) {
    return {0, std::min(60, max)};
  }
  std::vector<int> out;
  for (int util = 0; util <= max; util += step) {
    out.push_back(util);
  }
  return out;
}

// Data-overlap sweep; smoke keeps only the 100% point.
inline std::vector<double> OverlapSweep() {
  if (SmokeMode()) {
    return {1.00};
  }
  return {0.25, 0.50, 0.75, 1.00};
}

inline void PrintBenchHeader(const char* title, const char* paper_expectation,
                             const StackConfig& stack) {
  printf("== %s ==\n", title);
  printf("paper: %s\n", paper_expectation);
  printf("scale: %.1f GiB data, %.0f s window, %s\n\n",
         static_cast<double>(stack.data_bytes) / (1024.0 * 1024 * 1024),
         ToSeconds(stack.window),
         stack.device == DeviceKind::kSsd ? "ssd" : "hdd");
}

}  // namespace duet

#endif  // BENCH_BENCH_COMMON_H_
