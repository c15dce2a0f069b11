// Perf-regression harness for the stack's hot paths.
//
// Runs a fixed set of seconds-scale measurements — hand-timed hook-dispatch
// and fetch loops (the stack's hot-path microbenchmarks; one of them with
// nightly-fs's two Duet sessions over thousands of files), page-cache eviction
// under dirty pressure and under whole-file read-miss churn, building and
// populating a stack, rate calibration alone, a fig02-style scrub run, and
// a table6-style GC run — and writes the results as JSON:
//
//   perf_runner [--smoke] [--out PATH]
//
// Each measurement records operations executed, wall-clock milliseconds,
// derived ops/sec, and (where meaningful) the peak descriptor-arena bytes
// observed. The JSON also records a fixed memory-bound calibration kernel
// (a dependent-load walk over a page-cache-arena-sized buffer), so two files
// from hosts of different speed compare by each row's wall time relative to
// the kernel's. tools/perf_compare.py diffs two such files and fails on
// regression; CI runs it against the checked-in bench/BENCH_hotpath.json
// baseline (refresh the baseline with --out bench/BENCH_hotpath.json after
// intentional perf changes). The run exits non-zero if the GC scenario
// cleans no segment, since its wall time would then gate nothing.
//
// The simulated work is deterministic (fixed seeds); only the wall-clock
// numbers vary run to run, which is exactly what the harness is gating.
// --long runs the same op counts as --smoke but repeats each measurement
// and keeps the minimum wall-clock, so a baseline refreshed with --long is
// directly comparable to a single-shot --smoke run in CI.

#include <chrono>
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cache/page_cache.h"
#include "src/cowfs/cowfs.h"
#include "src/duet/duet_core.h"
#include "src/util/crc32c.h"
#include "src/util/rng.h"
#include "tests/sim_fixture.h"

namespace duet {
namespace {

using Clock = std::chrono::steady_clock;

struct Measurement {
  std::string name;
  uint64_t ops = 0;
  double wall_ms = 0;
  uint64_t peak_descriptor_bytes = 0;
};

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// A cowfs + Duet stack with one 64 MiB file and a 256 MiB cache: every
// dispatch and fetch scenario runs against the same shape, so their numbers
// are comparable.
struct HookRig {
  HookRig() : rig(1'000'000, Micros(1)), fs(&rig.loop, &rig.device, 1 << 16), duet(&fs) {
    ino = *fs.PopulateFile("/f", (1 << 14) * kPageSize);
  }
  SimRig rig;
  CowFs fs;
  DuetCore duet;
  InodeNo ino;
};

Measurement MeasureHookDispatchNoSessions(uint64_t iters) {
  HookRig rig;
  auto start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    rig.fs.cache().Insert(rig.ino, i % (1 << 14), i, false);
  }
  Measurement m{"hook_dispatch_no_sessions", iters, MsSince(start)};
  m.peak_descriptor_bytes = rig.duet.DescriptorMemoryBytes();
  return m;
}

Measurement MeasureHookDispatchOneEventSession(uint64_t iters) {
  HookRig rig;
  SessionId sid = *rig.duet.RegisterBlockTask(kDuetPageAdded | kDuetPageRemoved);
  uint64_t peak = 0;
  auto start = Clock::now();
  for (uint64_t i = 1; i <= iters; ++i) {
    PageIdx idx = i % (1 << 14);
    rig.fs.cache().Insert(rig.ino, idx, i, false);
    rig.fs.cache().Remove(rig.ino, idx);
    if (i % 4096 == 0) {
      peak = std::max(peak, rig.duet.DescriptorMemoryBytes());
      (void)rig.duet.Fetch(sid, 1 << 14);  // drain so descriptors recycle
    }
  }
  // 2 hook events per iteration (insert + remove).
  Measurement m{"hook_dispatch_one_event_session", iters * 2, MsSince(start)};
  m.peak_descriptor_bytes = peak;
  return m;
}

Measurement MeasureHookDispatchSixteenSessions(uint64_t iters) {
  HookRig rig;
  std::vector<SessionId> sids;
  for (int s = 0; s < 16; ++s) {
    sids.push_back(*rig.duet.RegisterBlockTask(kDuetPageExists));
  }
  uint64_t peak = 0;
  auto start = Clock::now();
  for (uint64_t i = 1; i <= iters; ++i) {
    rig.fs.cache().Insert(rig.ino, i % (1 << 14), i, false);
    if (i % 4096 == 0) {
      peak = std::max(peak, rig.duet.DescriptorMemoryBytes());
      for (SessionId sid : sids) {
        (void)rig.duet.Fetch(sid, 1 << 14);
      }
    }
  }
  Measurement m{"hook_dispatch_sixteen_sessions", iters, MsSince(start)};
  m.peak_descriptor_bytes = peak;
  return m;
}

// nightly-fs's Duet shape: backup's block state session (kDuetPageExists)
// and the scrubber's block event session (kDuetPageAdded |
// kDuetPageDirtied), over page churn across 4096 four-page files through a
// cache holding an eighth of them. Each op caches a random page, so most
// ops are an Added hook plus the eviction's Removed hook; every fourth op
// also dirties and cleans its page. Both sessions fetch every 4096 ops and
// mark done what they would process, as the tasks do: backup the pages
// reported present, the scrubber every item.
Measurement MeasureHookDispatchBackupScrub(uint64_t iters) {
  constexpr uint64_t kFiles = 4096;
  constexpr PageIdx kFilePages = 4;
  SimRig rig(1'000'000, Micros(1));
  CowFs fs(&rig.loop, &rig.device, kFiles * kFilePages / 8);
  DuetCore duet(&fs);
  std::vector<InodeNo> inos;
  for (uint64_t f = 0; f < kFiles; ++f) {
    inos.push_back(*fs.PopulateFile("/f" + std::to_string(f), kFilePages * kPageSize));
  }
  SessionId backup = *duet.RegisterBlockTask(kDuetPageExists);
  SessionId scrub = *duet.RegisterBlockTask(kDuetPageAdded | kDuetPageDirtied);
  Rng rng(42);
  uint64_t peak = 0;
  auto start = Clock::now();
  for (uint64_t i = 1; i <= iters; ++i) {
    InodeNo ino = inos[rng.Uniform(kFiles)];
    PageIdx idx = rng.Uniform(kFilePages);
    fs.cache().Insert(ino, idx, i, false);
    if (i % 4 == 0) {
      fs.cache().MarkDirty(ino, idx, i);
      fs.cache().MarkClean(ino, idx);
    }
    if (i % 4096 == 0) {
      peak = std::max(peak, duet.DescriptorMemoryBytes());
      for (SessionId sid : {backup, scrub}) {
        Result<std::vector<DuetItem>> items = duet.Fetch(sid, 1 << 14);
        for (const DuetItem& item : *items) {
          if (sid == scrub || item.has(kDuetPageExists)) {
            (void)duet.SetDone(sid, item.id);
          }
        }
      }
    }
  }
  Measurement m{"hook_dispatch_backup_scrub", iters, MsSince(start)};
  m.peak_descriptor_bytes = peak;
  return m;
}

Measurement MeasureFetchBatch(uint64_t batches, uint64_t batch) {
  HookRig rig;
  SessionId sid = *rig.duet.RegisterBlockTask(kDuetPageAdded);
  uint64_t produced = 0;
  double wall_ms = 0;
  for (uint64_t b = 0; b < batches; ++b) {
    for (uint64_t k = 0; k < batch; ++k) {
      rig.fs.cache().Insert(rig.ino, (produced + k) % (1 << 14), k, false);
    }
    produced += batch;
    auto start = Clock::now();
    auto items = rig.duet.Fetch(sid, batch);
    wall_ms += MsSince(start);
    if (!items.ok()) {
      break;
    }
  }
  return Measurement{"fetch_batch_256", batches * batch, wall_ms};
}

Measurement MeasureCrc32c(uint64_t iters) {
  std::vector<uint8_t> buf(1 << 16);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  uint32_t acc = 0;
  auto start = Clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    acc = Crc32c(buf.data(), buf.size(), acc);
  }
  Measurement m{std::string("crc32c_64k_") + Crc32cImplName(), iters,
                MsSince(start)};
  if (acc == 0xdeadbeef) {  // keep the checksum observable
    printf("(unlikely)\n");
  }
  return m;
}

// Clean inserts over capacity into a bare cache whose LRU tail is a run of
// aged dirty pages (writeback has not caught up): every insert evicts the
// coldest clean page, which sits beyond the whole dirty run.
Measurement MeasurePageCacheEvictDirtyTail(uint64_t inserts) {
  constexpr uint64_t kCapacity = 4096;
  constexpr uint64_t kDirtyTail = 512;
  obs::ObsContext ctx;
  EventLoop loop(ctx);
  PageCache cache(kCapacity, &loop);
  for (PageIdx i = 0; i < kDirtyTail; ++i) {
    cache.Insert(/*ino=*/1, i, i, /*dirty=*/true);
  }
  for (PageIdx i = 0; i < kCapacity - kDirtyTail; ++i) {
    cache.Insert(/*ino=*/2, i, i, /*dirty=*/false);
  }
  auto start = Clock::now();
  for (uint64_t i = 0; i < inserts; ++i) {
    cache.Insert(/*ino=*/3, i, i, /*dirty=*/false);
  }
  return Measurement{"page_cache_evict_dirty_tail", inserts, MsSince(start)};
}

// Whole-file reads through a cache holding 2% of the data, the scrub-web
// benchmark workload's pattern: 4096 files of 64 pages, read in turn, so
// every page misses (Lookup), is inserted clean and evicts the coldest
// clean page.
Measurement MeasurePageCacheReadMissChurn(int passes) {
  constexpr InodeNo kFiles = 4096;
  constexpr PageIdx kFilePages = 64;
  obs::ObsContext ctx;
  EventLoop loop(ctx);
  PageCache cache(kFiles * kFilePages / 50, &loop);
  uint64_t reads = 0;
  auto start = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (InodeNo ino = 1; ino <= kFiles; ++ino) {
      for (PageIdx idx = 0; idx < kFilePages; ++idx, ++reads) {
        if (!cache.Lookup(ino, idx)) {
          cache.Insert(ino, idx, idx, /*dirty=*/false);
        }
      }
    }
  }
  return Measurement{"page_cache_read_miss_churn", reads, MsSince(start)};
}

// Host-speed calibration: a dependent-load walk over a buffer the size of
// the HookRig cache's entry arena (65536 entries of 64 bytes), one load per
// cache line in a fixed pseudo-random single cycle. Every load waits on the
// previous one, so the time tracks the host's memory latency. It does not
// track a CPU share lost to other tenants, which moves the CPU-bound rows.
Measurement MeasureCalibration(uint64_t steps) {
  constexpr uint32_t kLines = 1 << 16;
  struct alignas(64) Line {
    uint32_t next;
  };
  std::vector<Line> lines(kLines);
  // Sattolo's shuffle with a fixed LCG: one cycle through every line.
  std::vector<uint32_t> order(kLines);
  std::iota(order.begin(), order.end(), 0u);
  uint64_t lcg = 42;
  for (uint32_t i = kLines - 1; i > 0; --i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(order[i], order[(lcg >> 33) % i]);
  }
  for (uint32_t i = 0; i < kLines; ++i) {
    lines[order[i]].next = order[(i + 1) % kLines];
  }
  uint32_t at = order[0];
  auto start = Clock::now();
  for (uint64_t i = 0; i < steps; ++i) {
    at = lines[at].next;
  }
  Measurement m{"calibration_dependent_load", steps, MsSince(start)};
  if (at == kLines) {  // keep the walk observable
    printf("(unlikely)\n");
  }
  return m;
}

// Stack set-up, which every calibration probe and every run pays: build a
// cowfs Rig on the smoke stack (device, file system, Duet, the webserver's
// file set populated) and destroy it, `builds` times. One op is one page
// populated.
Measurement MeasureStackBuildPopulate(const StackConfig& stack, int builds) {
  WorkloadConfig workload = MakeWorkloadConfig(stack, Personality::kWebserver,
                                               /*coverage=*/1.0, /*skewed=*/false,
                                               /*ops_per_sec=*/0, /*seed=*/42);
  obs::ObsContext ctx;
  uint64_t pages = 0;
  auto start = Clock::now();
  for (int b = 0; b < builds; ++b) {
    CowRig rig(stack, workload, ctx);
    pages += rig.fs().allocated_blocks();
  }
  return Measurement{"stack_build_populate", pages, MsSince(start)};
}

// Rate calibration alone, as a figure binary runs it on a cold rate cache:
// the webserver at 60% on the smoke stack, the calibration the
// fig02_scrub_duet_smoke row starts with. One op is one profile run.
Measurement MeasureCalibrateRate(const StackConfig& stack) {
  WorkloadConfig base = MakeWorkloadConfig(stack, Personality::kWebserver, /*coverage=*/1.0,
                                           /*skewed=*/false, /*ops_per_sec=*/0, /*seed=*/42);
  auto start = Clock::now();
  CalibratedRate rate = CalibrateRate(stack, base, /*target_util=*/0.6);
  return Measurement{"calibrate_rate_smoke", static_cast<uint64_t>(rate.probes),
                     MsSince(start)};
}

Measurement MeasureScrubRun(const StackConfig& stack) {
  RateTable rates((std::string()));  // in-memory rate cache
  auto start = Clock::now();
  MaintenanceRunResult result =
      RunAtUtil(rates, {.stack = stack, .target_util = 0.6,
                        .tasks = {MaintKind::kScrub}, .use_duet = true});
  Measurement m{"fig02_scrub_duet_smoke", result.workload_ops, MsSince(start)};
  return m;
}

// Fileserver on logfs with Duet-informed GC. The rate leaves the device
// idle often enough for the background cleaner to run (at 800 ops/s the
// smoke device saturates and no segment is ever cleaned), and the window is
// long enough to clean a dozen-odd segments.
Measurement MeasureGcRun(StackConfig stack) {
  stack.window = Seconds(6);
  auto start = Clock::now();
  GcRunResult result =
      RunGc(stack, /*use_duet=*/true, /*seed=*/42, /*ops_per_sec=*/100);
  Measurement m{"table6_gc_duet_smoke", result.segments_cleaned, MsSince(start)};
  return m;
}

void WriteJson(const std::vector<Measurement>& ms, const Measurement& calibration,
               const std::string& path) {
  FILE* out = path.empty() ? stdout : fopen(path.c_str(), "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot open %s\n", path.c_str());
    exit(1);
  }
  fprintf(out, "{\n  \"schema\": 2,\n  \"crc32c_impl\": \"%s\",\n",
          Crc32cImplName());
  fprintf(out,
          "  \"calibration\": {\"name\": \"%s\", \"ops\": %llu, "
          "\"wall_ms\": %.3f},\n",
          calibration.name.c_str(),
          static_cast<unsigned long long>(calibration.ops), calibration.wall_ms);
  fprintf(out, "  \"measurements\": [\n");
  for (size_t i = 0; i < ms.size(); ++i) {
    const Measurement& m = ms[i];
    double ops_per_sec = m.wall_ms > 0 ? m.ops / (m.wall_ms / 1000.0) : 0;
    fprintf(out,
            "    {\"name\": \"%s\", \"ops\": %llu, \"wall_ms\": %.3f, "
            "\"ops_per_sec\": %.1f, \"peak_descriptor_bytes\": %llu}%s\n",
            m.name.c_str(), static_cast<unsigned long long>(m.ops), m.wall_ms,
            ops_per_sec, static_cast<unsigned long long>(m.peak_descriptor_bytes),
            i + 1 < ms.size() ? "," : "");
  }
  fprintf(out, "  ]\n}\n");
  if (out != stdout) {
    fclose(out);
  }
}

}  // namespace
}  // namespace duet

int main(int argc, char** argv) {
  using namespace duet;
  StackConfig stack = SmokeStackConfig();
  std::string out_path;
  int reps = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--smoke") {
      // default; kept so the ctest harness can pass it uniformly
    } else if (arg == "--long") {
      // Baseline-refresh mode: identical op counts (so wall_ms stays
      // comparable with --smoke runs), but each measurement repeats and the
      // minimum wall-clock is kept — the least-perturbed run is the best
      // estimate of the true cost on a shared machine.
      reps = 5;
    } else if (arg == "--reps" && i + 1 < argc) {
      // Explicit repetition count; CI uses --smoke --reps 3 so the gated
      // side is also a minimum, not a single sample of scheduler jitter.
      reps = std::max(1, atoi(argv[++i]));
    }
  }

  // Runs fn() `reps` times and keeps the repetition with the lowest wall_ms.
  auto best = [reps](auto fn) {
    Measurement m = fn();
    for (int r = 1; r < reps; ++r) {
      Measurement again = fn();
      if (again.wall_ms < m.wall_ms) {
        m = again;
      }
    }
    return m;
  };

  std::vector<Measurement> ms;
  ms.push_back(best([] { return MeasureHookDispatchNoSessions(400'000); }));
  ms.push_back(best([] { return MeasureHookDispatchOneEventSession(200'000); }));
  ms.push_back(best([] { return MeasureHookDispatchSixteenSessions(200'000); }));
  ms.push_back(best([] { return MeasureHookDispatchBackupScrub(200'000); }));
  // Enough batches that the timed Fetch region is tens of ms — sub-ms
  // measurements can't be gated at 25% on a shared host.
  ms.push_back(best([] { return MeasureFetchBatch(20'000, 256); }));
  ms.push_back(best([] { return MeasureCrc32c(2'000); }));
  ms.push_back(best([] { return MeasurePageCacheEvictDirtyTail(400'000); }));
  ms.push_back(best([] { return MeasurePageCacheReadMissChurn(2); }));
  ms.push_back(best([&stack] { return MeasureStackBuildPopulate(stack, 32); }));
  ms.push_back(best([&stack] { return MeasureCalibrateRate(stack); }));
  ms.push_back(best([&stack] { return MeasureScrubRun(stack); }));
  const Measurement gc = best([&stack] { return MeasureGcRun(stack); });
  ms.push_back(gc);
  // Tens of ms, the same order as the gated rows.
  const Measurement calibration = best([] { return MeasureCalibration(1'000'000); });

  for (const Measurement& m : ms) {
    double ops_per_sec = m.wall_ms > 0 ? m.ops / (m.wall_ms / 1000.0) : 0;
    printf("%-36s %10llu ops  %9.2f ms  %12.0f ops/s  peak_desc %llu B\n",
           m.name.c_str(), static_cast<unsigned long long>(m.ops), m.wall_ms,
           ops_per_sec, static_cast<unsigned long long>(m.peak_descriptor_bytes));
  }
  printf("%-36s %10llu ops  %9.2f ms\n", calibration.name.c_str(),
         static_cast<unsigned long long>(calibration.ops), calibration.wall_ms);
  if (!out_path.empty()) {
    WriteJson(ms, calibration, out_path);
    printf("wrote %s\n", out_path.c_str());
  }
  if (gc.ops == 0) {
    fprintf(stderr, "%s cleaned no segment\n", gc.name.c_str());
    return 1;
  }
  return 0;
}
