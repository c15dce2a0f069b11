// The repository benchmark: runs one figure-suite workload end to end
// through the public harness API, checks its outputs, and prints one JSON
// result line (the last line of stdout).
//
//   perfbench --workload scrub-web|nightly-fs --seed N --seconds S --trace 0|1
//
// A run's inputs are a fixed number of workload seeds derived from N. One
// iteration on one input = rate calibration into an in-memory RateTable plus
// stack build and file-set population (set-up), the simulated window (run),
// then quiesce and output checks (untimed). A pass runs every input once;
// passes repeat while the next one is expected to end within S seconds.
// --trace 0 reports end-to-end metrics; --trace 1 adds a traced iteration
// after each untraced one and reports per-layer metrics. Every input then gets one reference run through
// RunMaintenance, whose trace fingerprint must match. README.md in this
// directory documents the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/calibrate.h"
#include "src/harness/rig.h"
#include "src/harness/runner.h"
#include "src/harness/stack_config.h"
#include "src/obs/obs.h"
#include "src/tasks/backup.h"
#include "src/tasks/scrubber.h"

namespace duet {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  Personality personality;
  double target_util;
  double fragmented_fraction;
  std::vector<MaintKind> tasks;  // all in Duet mode
  uint64_t data_mib;             // data set size; see StackFor
  // Inputs per run: seeds vary the file set and op stream, and host time
  // varies with them, so each run averages over this many.
  int inputs;
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Fig. 2: webserver, scrubber with Duet at 50% util. Like every
      // workload here, 100% overlap: the workload may touch every file.
      {"scrub-web", Personality::kWebserver, 0.5, 0.0, {MaintKind::kScrub}, 1024, 7},
      // Figs. 7/8's fileserver series on a 10%-fragmented FS at 60% util,
      // with the Fig. 5/6 task pair: scrub + backup. Defrag is left out:
      // backup + defrag leaves cowfs refcounts inconsistent (see README.md).
      {"nightly-fs", Personality::kFileserver, 0.6, 0.1,
       {MaintKind::kScrub, MaintKind::kBackup}, 512, 36},
  };
  return kWorkloads;
}

// The figure suite's stack scaled to the workload's data size: the device
// holds 1.25x the data, the page cache ~2% of it, and the window is 36 s per
// GiB (512 MiB is the suite's --quick stack, 1 GiB its --std stack).
StackConfig StackFor(const WorkloadSpec& spec) {
  StackConfig stack;
  stack.data_bytes = spec.data_mib << 20;
  uint64_t pages = stack.data_bytes / kPageSize;
  stack.capacity_blocks = pages * 5 / 4;
  stack.cache_pages = (pages + 25) / 50;
  stack.window = Millis(36'000 * spec.data_mib / 1024);
  return stack;
}

constexpr int kCalibrationsPerPass = 3;

// The j-th input of a run with seed `seed`.
uint64_t InputSeed(uint64_t seed, int j) { return seed * 1000 + static_cast<uint64_t>(j) + 1; }

// ---------------------------------------------------------------------------
// Trace sinks

// Online host-time attribution: the wall-clock gap since the previous trace
// event is charged to the event's layer and kind. Constant memory, so it
// keeps up with the millions of events a window emits.
class HostTimeSink : public obs::TraceSink {
 public:
  static constexpr size_t kLayers = 8;
  static constexpr size_t kKinds = 36;

  void Restart() { prev_ = Clock::now(); }

  void OnTraceEvent(const obs::TraceEvent& event) override {
    Clock::time_point now = Clock::now();
    int64_t gap = std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev_).count();
    prev_ = now;
    size_t layer = static_cast<size_t>(event.layer);
    size_t kind = static_cast<size_t>(event.kind);
    if (layer < kLayers) {
      layer_ns_[layer] += gap;
    }
    if (kind < kKinds) {
      kind_ns_[kind] += gap;
      ++kind_count_[kind];
    }
  }

  void Add(const HostTimeSink& other) {
    for (size_t i = 0; i < kLayers; ++i) {
      layer_ns_[i] += other.layer_ns_[i];
    }
    for (size_t i = 0; i < kKinds; ++i) {
      kind_ns_[i] += other.kind_ns_[i];
      kind_count_[i] += other.kind_count_[i];
    }
  }

  double LayerMs(obs::TraceLayer layer) const {
    return static_cast<double>(layer_ns_[static_cast<size_t>(layer)]) / 1e6;
  }
  double TotalMs() const {
    int64_t sum = 0;
    for (int64_t ns : layer_ns_) {
      sum += ns;
    }
    return static_cast<double>(sum) / 1e6;
  }
  // Mean host nanoseconds charged per event of `kind` (0 when none fired).
  double NsPerEvent(obs::TraceKind kind) const {
    size_t k = static_cast<size_t>(kind);
    return kind_count_[k] == 0 ? 0
                               : static_cast<double>(kind_ns_[k]) /
                                     static_cast<double>(kind_count_[k]);
  }

 private:
  Clock::time_point prev_ = Clock::now();
  std::array<int64_t, kLayers> layer_ns_{};
  std::array<int64_t, kKinds> kind_ns_{};
  std::array<uint64_t, kKinds> kind_count_{};
};

// Collects the simulated latency (microseconds) of every foreground
// whole-file read. Reads are the ops that wait for the device; buffered
// writes complete in zero simulated time.
class ReadLatencySink : public obs::TraceSink {
 public:
  // The workload's read-file op kind (payload `a` of kOpCompleted).
  static constexpr uint64_t kReadOpKind = 0;

  void OnTraceEvent(const obs::TraceEvent& event) override {
    if (event.kind == obs::TraceKind::kOpCompleted && event.a == kReadOpKind) {
      latencies_us_.push_back(event.b);
    }
  }
  // Nearest-rank percentile in milliseconds; p in (0, 100].
  double PercentileMs(double p) {
    if (latencies_us_.empty()) {
      return 0;
    }
    size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(latencies_us_.size()));
    rank = std::min(rank, latencies_us_.size() - 1);
    std::nth_element(latencies_us_.begin(), latencies_us_.begin() + rank,
                     latencies_us_.end());
    return static_cast<double>(latencies_us_[rank]) / 1000.0;
  }
  size_t count() const { return latencies_us_.size(); }

 private:
  std::vector<uint64_t> latencies_us_;
};

// ---------------------------------------------------------------------------
// One iteration

struct Iteration {
  // Host time.
  double calibrate_s = 0;  // 0 unless calibrated
  double build_s = 0;
  double run_s = 0;
  bool traced = false;
  bool calibrated = false;
  HostTimeSink host;  // filled when traced
  // Simulation (deterministic per input).
  CalibratedRate rate;
  uint64_t fingerprint = 0;  // taken where RunMaintenance takes its own
  uint64_t fg_ops = 0;       // foreground ops completed within the window
  uint64_t fg_read_ops = 0;
  TaskStats tasks;           // summed over the workload's maintenance tasks
  bool tasks_finished = true;
  obs::MetricsSnapshot metrics;  // after quiesce
  uint64_t trace_events = 0;
  double busy_be_pct = 0;
  double busy_idle_pct = 0;
  double read_p99_us = 0;
  uint64_t fsck_blocks_checked = 0;
  std::vector<std::string> check_failures;

  uint64_t SavedPages() const { return tasks.saved_read_pages + tasks.saved_write_pages; }

  // Every simulated value an iteration reports, for the determinism check.
  std::vector<std::pair<std::string, double>> SimValues() const {
    std::vector<std::pair<std::string, double>> v = {
        {"rate.ops_per_sec", rate.ops_per_sec},
        {"fg_ops", static_cast<double>(fg_ops)},
        {"fg_read_ops", static_cast<double>(fg_read_ops)},
        {"tasks.io_pages", static_cast<double>(tasks.TotalIoPages())},
        {"tasks.saved_pages", static_cast<double>(SavedPages())},
        {"tasks.done", static_cast<double>(tasks.work_done)},
        {"tasks.work", static_cast<double>(tasks.work_total)},
        {"block.read.p99_us", read_p99_us},
        {"fsck.blocks_checked", static_cast<double>(fsck_blocks_checked)},
    };
    for (const auto& [name, value] : metrics.counters) {
      v.emplace_back(name, static_cast<double>(value));
    }
    return v;
  }
};

void Check(Iteration* it, bool ok, const std::string& what) {
  if (!ok) {
    it->check_failures.push_back(what);
  }
}

void AddTaskStats(Iteration* it, const TaskStats& s) {
  it->tasks.work_total += s.work_total;
  it->tasks.work_done += std::min(s.work_done, s.work_total);
  it->tasks.io_read_pages += s.io_read_pages;
  it->tasks.io_write_pages += s.io_write_pages;
  it->tasks.saved_read_pages += s.saved_read_pages;
  it->tasks.saved_write_pages += s.saved_write_pages;
  it->tasks_finished = it->tasks_finished && s.finished;
}

// The caller has stopped the workload and the tasks. Syncs, drains in-flight
// I/O, runs the checks every input shares (fsck, cache conservation) and
// records end-of-run state.
void QuiesceAndCheck(FileSystem& fs, obs::ObsContext& ctx, SimDuration window,
                     Iteration* it) {
  EventLoop& loop = fs.loop();
  bool synced = false;
  fs.Sync([&synced] { synced = true; });
  SimTime cap = loop.now() + Seconds(600);
  while (!synced && loop.now() < cap) {
    loop.RunUntil(loop.now() + Millis(100));
  }
  loop.RunUntil(loop.now() + Seconds(1));
  Check(it, synced, "sync did not complete after the window");

  FsckReport fsck = fs.CheckConsistency();
  it->fsck_blocks_checked = fsck.blocks_checked;
  Check(it, fsck.clean(),
        "fsck: " + std::to_string(fsck.structural_errors) + " structural, " +
            std::to_string(fsck.checksum_errors) + " checksum errors, first bad block " +
            std::to_string(fsck.first_bad_block));

  it->metrics = ctx.metrics.Snapshot();
  const obs::MetricsSnapshot& m = it->metrics;
  uint64_t dirtied = m.Value("cache.dirtied");
  uint64_t accounted =
      m.Value("cache.flushed") + m.Value("cache.removed_dirty") + fs.cache().DirtyCount();
  Check(it, dirtied == accounted,
        "cache conservation: dirtied " + std::to_string(dirtied) +
            " != flushed + removed_dirty + resident dirty " + std::to_string(accounted));

  const DeviceStats& dev = fs.device().stats();
  double window_ns = static_cast<double>(window);
  it->busy_be_pct = 100.0 * static_cast<double>(dev.busy[0]) / window_ns;
  it->busy_idle_pct = 100.0 * static_cast<double>(dev.busy[1]) / window_ns;
  const obs::LogHistogram* reads = ctx.metrics.FindHistogram("block.read.latency_us");
  it->read_p99_us = reads != nullptr ? reads->P99() : 0;
  it->trace_events = ctx.trace.events_emitted();
}

WorkloadConfig BaseWorkload(const WorkloadSpec& spec, const StackConfig& stack,
                            uint64_t seed) {
  WorkloadConfig wc = MakeWorkloadConfig(stack, spec.personality, /*coverage=*/1.0,
                                         /*skewed=*/false, /*ops_per_sec=*/0, seed);
  wc.fragmented_fraction = spec.fragmented_fraction;
  return wc;
}

// Calibration uses a fresh in-memory RateTable, so it really runs and no
// stale on-disk rate cache is ever read. The profile runs use the figure
// suite's seed, so every input runs at the same rate and inputs vary only
// the file set and the op stream.
constexpr uint64_t kCalibrationSeed = 42;

// Calibrates when `rate` is null; otherwise reuses it.
Iteration RunIteration(const WorkloadSpec& spec, uint64_t seed, bool traced,
                       const CalibratedRate* rate) {
  Iteration it;
  it.traced = traced;
  it.calibrated = rate == nullptr;
  StackConfig stack = StackFor(spec);
  Clock::time_point t = Clock::now();
  if (it.calibrated) {
    RateTable rates;
    it.rate = rates.Get(stack, BaseWorkload(spec, stack, kCalibrationSeed), spec.target_util);
  } else {
    it.rate = *rate;
  }
  WorkloadConfig wc = BaseWorkload(spec, stack, seed);
  wc.ops_per_sec = it.rate.unthrottled ? 0 : it.rate.ops_per_sec;
  it.calibrate_s = SecondsSince(t);

  // Same construction and start order as RunMaintenance, so both runs emit
  // identical traces.
  t = Clock::now();
  obs::ObsContext ctx;
  obs::ObsScope scope(&ctx);
  CowRig rig(stack, wc);
  std::unique_ptr<Scrubber> scrub;
  std::unique_ptr<Backup> backup;
  for (MaintKind kind : spec.tasks) {
    if (kind == MaintKind::kScrub) {
      ScrubberConfig c;
      c.use_duet = true;
      scrub = std::make_unique<Scrubber>(&rig.fs(), &rig.duet(), c);
    } else if (kind == MaintKind::kBackup) {
      BackupConfig c;
      c.use_duet = true;
      backup = std::make_unique<Backup>(&rig.fs(), &rig.duet(), c);
    }
  }
  it.build_s = SecondsSince(t);

  if (traced) {
    ctx.trace.AddSink(&it.host);
    it.host.Restart();
  }
  t = Clock::now();
  if (scrub != nullptr) {
    scrub->Start();
  }
  if (backup != nullptr) {
    backup->Start();
  }
  rig.workload().Start();
  rig.loop().RunUntil(stack.window);
  it.run_s = SecondsSince(t);
  if (traced) {
    ctx.trace.RemoveSink(&it.host);
  }
  it.fg_ops = ctx.metrics.CounterValue("workload.ops.completed");
  it.fg_read_ops = ctx.metrics.CounterValue("workload.ops.read");

  rig.workload().Stop();
  if (scrub != nullptr) {
    scrub->Stop();
    AddTaskStats(&it, scrub->stats());
  }
  if (backup != nullptr) {
    backup->Stop();
    AddTaskStats(&it, backup->stats());
  }
  it.fingerprint = ctx.trace.Fingerprint();
  QuiesceAndCheck(rig.fs(), ctx, stack.window, &it);

  // Each workload must do the work it is named for.
  if (backup == nullptr) {
    Check(&it, it.tasks_finished, "scrub did not finish within the window");
  } else {
    Check(&it, it.metrics.Value("duet.items.fetched") > 0, "no Duet items fetched");
  }
  Check(&it, it.fg_ops > 0, "no foreground op completed");
  return it;
}

// The same input through RunMaintenance at the iteration's calibrated rate.
// Returns the trace fingerprint; feeds read latencies to `latencies`.
uint64_t RunReference(const WorkloadSpec& spec, uint64_t seed, const CalibratedRate& rate,
                      ReadLatencySink* latencies) {
  obs::ObsContext ctx;
  ctx.trace.AddSink(latencies);
  MaintenanceRunConfig config;
  config.stack = StackFor(spec);
  config.personality = spec.personality;
  config.coverage = 1.0;
  config.target_util = spec.target_util;
  config.tasks = spec.tasks;
  config.use_duet = true;
  config.fragmented_fraction = spec.fragmented_fraction;
  config.seed = seed;
  config.ops_per_sec = rate.ops_per_sec;
  config.unthrottled = rate.unthrottled;
  config.obs = &ctx;
  RunMaintenance(config);
  ctx.trace.RemoveSink(latencies);
  return ctx.trace.Fingerprint();
}

// ---------------------------------------------------------------------------
// Aggregation and output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

using IterationValue = std::function<double(const Iteration&)>;

// A run's results: the iterations of each input (untraced and traced, in
// run order) and the pooled reference-run read latencies.
struct RunResults {
  std::vector<std::vector<Iteration>> by_input;
  ReadLatencySink latencies;

  // Mean over inputs of a simulated value (identical across an input's
  // iterations, so its first iteration stands for all).
  double MeanSim(const IterationValue& f) const {
    double sum = 0;
    for (const std::vector<Iteration>& its : by_input) {
      sum += f(its.front());
    }
    return sum / static_cast<double>(by_input.size());
  }
  // Run time: the median over inputs of each input's fastest untraced
  // iteration. Host speed drifts while a run goes on; the minimum drops
  // passes that a slow spell hit, and the median drops slow inputs.
  double MedianOfInputMinimums() const {
    std::vector<double> v;
    for (const std::vector<Iteration>& its : by_input) {
      double best = std::numeric_limits<double>::infinity();
      for (const Iteration& it : its) {
        if (!it.traced) {
          best = std::min(best, it.run_s);
        }
      }
      v.push_back(best);
    }
    return Median(v);
  }
  // Median over the run's iterations that `keep` selects. Host speed
  // drifts while a run goes on, so host times use the median, not the mean.
  double MedianWhere(const std::function<bool(const Iteration&)>& keep,
                     const IterationValue& f) const {
    std::vector<double> v;
    for (const std::vector<Iteration>& its : by_input) {
      for (const Iteration& it : its) {
        if (keep(it)) {
          v.push_back(f(it));
        }
      }
    }
    return Median(v);
  }
};

bool All(const Iteration&) { return true; }
bool Calibrated(const Iteration& it) { return it.calibrated; }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> EndToEndMetrics(RunResults& r) {
  double io = r.MeanSim([](const Iteration& i) { return i.tasks.TotalIoPages(); });
  double saved = r.MeanSim([](const Iteration& i) { return i.SavedPages(); });
  return {
      {"run_s", r.MedianOfInputMinimums(), "s"},
      {"setup_s",
       r.MedianWhere(Calibrated, [](const Iteration& i) { return i.calibrate_s + i.build_s; }),
       "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"fg_ops", r.MeanSim([](const Iteration& i) { return i.fg_ops; }), "count"},
      {"fg_read_p50_ms", r.latencies.PercentileMs(50), "ms"},
      {"fg_read_p99_ms", r.latencies.PercentileMs(99), "ms"},
      // Share of the maintenance tasks' page accesses that went to the
      // device; the rest were served from the page cache (Table 4's I/O
      // saved is the complement).
      {"maint_io_pct", 100.0 * io / std::max(1.0, saved + io), "%"},
      // Maintenance pages scrubbed or backed up in the window.
      {"maint_done_pages", r.MeanSim([](const Iteration& i) { return i.tasks.work_done; }),
       "count"},
  };
}

std::vector<Metric> PerLayerMetrics(RunResults& r) {
  using obs::TraceKind;
  using obs::TraceLayer;
  HostTimeSink host;
  double traced_run_s = 0;
  double untraced_run_s = 0;
  double traced_count = 0;
  double untraced_count = 0;
  for (const std::vector<Iteration>& its : r.by_input) {
    for (const Iteration& it : its) {
      if (it.traced) {
        host.Add(it.host);
        traced_run_s += it.run_s;
        ++traced_count;
      } else {
        untraced_run_s += it.run_s;
        ++untraced_count;
      }
    }
  }
  // Host time per window, averaged over the traced iterations.
  auto layer_ms = [&](TraceLayer layer) { return host.LayerMs(layer) / traced_count; };
  auto kind_ns = [&](TraceKind kind) { return host.NsPerEvent(kind); };
  auto count = [&](const char* name) {
    return r.MeanSim([name](const Iteration& i) { return i.metrics.Value(name); });
  };
  double hits = count("cache.hits");
  double misses = count("cache.misses");
  double fetched = count("duet.items.fetched");
  double saved = r.MeanSim([](const Iteration& i) { return i.SavedPages(); });
  return {
      // sim
      {"sim.events.fired", count("sim.events.fired"), "count"},
      {"host.sim.ms", layer_ms(TraceLayer::kSim), "ms"},
      // block
      {"block.submits", count("block.submits"), "count"},
      {"block.busy_be_pct", r.MeanSim([](const Iteration& i) { return i.busy_be_pct; }), "%"},
      {"block.busy_idle_pct", r.MeanSim([](const Iteration& i) { return i.busy_idle_pct; }),
       "%"},
      {"block.read.p99_us", r.MeanSim([](const Iteration& i) { return i.read_p99_us; }), "us"},
      {"host.block.ms", layer_ms(TraceLayer::kBlock), "ms"},
      // cache
      {"cache.hit_ratio", hits / std::max(1.0, hits + misses), "ratio"},
      {"cache.evictions", count("cache.evictions"), "count"},
      {"cache.dirtied", count("cache.dirtied"), "count"},
      {"cache.flushed", count("cache.flushed"), "count"},
      {"host.cache.ms", layer_ms(TraceLayer::kCache), "ms"},
      {"host.page_evicted.ns", kind_ns(TraceKind::kPageEvicted), "ns"},
      // duet
      {"duet.hooks", count("duet.hooks"), "count"},
      {"duet.events.delivered", count("duet.events.delivered"), "count"},
      {"duet.items.fetched", fetched, "count"},
      {"duet.fetch.calls", count("duet.fetch.calls"), "count"},
      {"duet.useful_ratio", fetched > 0 ? saved / fetched : 0, "ratio"},
      {"host.duet.ms", layer_ms(TraceLayer::kDuet), "ms"},
      {"host.event_delivered.ns", kind_ns(TraceKind::kEventDelivered), "ns"},
      {"host.item_fetched.ns", kind_ns(TraceKind::kItemFetched), "ns"},
      // fs (cowfs): it emits no data-path trace events of its own, so its
      // allocation cost shows up in the gap before the cache events it causes.
      {"fsck.blocks_checked",
       r.MeanSim([](const Iteration& i) { return i.fsck_blocks_checked; }), "count"},
      {"host.page_added.ns", kind_ns(TraceKind::kPageAdded), "ns"},
      {"host.page_dirtied.ns", kind_ns(TraceKind::kPageDirtied), "ns"},
      {"host.setup.populate_ms",
       1000.0 * r.MedianWhere(All, [](const Iteration& i) { return i.build_s; }), "ms"},
      // tasks
      {"tasks.total.io_pages",
       r.MeanSim([](const Iteration& i) { return i.tasks.TotalIoPages(); }), "count"},
      {"tasks.total.saved_pages", saved, "count"},
      {"tasks.total.done", r.MeanSim([](const Iteration& i) { return i.tasks.work_done; }),
       "count"},
      {"host.task.ms", layer_ms(TraceLayer::kTask), "ms"},
      {"host.chunk_started.ns", kind_ns(TraceKind::kChunkStarted), "ns"},
      // workload
      {"workload.ops.completed", count("workload.ops.completed"), "count"},
      {"workload.pages.read", count("workload.pages.read"), "count"},
      {"workload.pages.written", count("workload.pages.written"), "count"},
      {"host.workload.ms", layer_ms(TraceLayer::kWorkload), "ms"},
      // harness
      {"host.setup.calibrate_ms",
       1000.0 * r.MedianWhere(Calibrated, [](const Iteration& i) { return i.calibrate_s; }),
       "ms"},
      // obs
      {"trace.events", r.MeanSim([](const Iteration& i) { return i.trace_events; }), "count"},
      {"host.traced_run_s", traced_run_s / traced_count, "s"},
      {"host.trace_overhead_pct",
       100.0 * ((traced_run_s / traced_count) / (untraced_run_s / untraced_count) - 1.0), "%"},
      {"host.attributed_pct", 100.0 * host.TotalMs() / (1000.0 * traced_run_s), "%"},
  };
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    printf("%-26s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": {",
         correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
           metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  printf("}}\n");
}

// ---------------------------------------------------------------------------

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseOptions(int argc, char** argv, Options* opts) {
  if (argc % 2 == 0) {
    return false;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadSpec& w : Workloads()) {
        if (strcmp(w.name, value) == 0) {
          opts->workload = &w;
        }
      }
    } else if (flag == "--seed") {
      opts->seed = strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts->seconds = atof(value);
    } else if (flag == "--trace") {
      opts->trace = strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return opts->workload != nullptr && opts->seconds > 0;
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    fprintf(stderr,
            "usage: perfbench --workload scrub-web|nightly-fs --seed N --seconds S "
            "--trace 0|1\n");
    return 2;
  }
  const WorkloadSpec& spec = *opts.workload;

  RunResults r;
  r.by_input.resize(static_cast<size_t>(spec.inputs));
  Clock::time_point start = Clock::now();
  int passes = 0;
  // Each pass calibrates at kCalibrationsPerPass evenly spaced inputs; the
  // inputs in between reuse the latest rate, as the figure suite's RateTable
  // does across runs.
  int stride = (spec.inputs + kCalibrationsPerPass - 1) / kCalibrationsPerPass;
  CalibratedRate rate;
  do {
    for (int j = 0; j < spec.inputs; ++j) {
      uint64_t seed = InputSeed(opts.seed, j);
      Iteration it = RunIteration(spec, seed, /*traced=*/false,
                                  j % stride == 0 ? nullptr : &rate);
      rate = it.rate;
      r.by_input[j].push_back(std::move(it));
      if (opts.trace) {
        r.by_input[j].push_back(RunIteration(spec, seed, /*traced=*/true, &rate));
      }
    }
    ++passes;
    // Another pass only if it is expected to end within the time given.
  } while (SecondsSince(start) * (passes + 1) / passes <= opts.seconds);

  // Checks: each iteration's output checks; every iteration of an input
  // (traced ones included) agrees on the fingerprint and every simulated
  // value; and RunMaintenance reproduces the fingerprint.
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t device_errors = 0;
  for (int j = 0; j < spec.inputs; ++j) {
    const std::vector<Iteration>& its = r.by_input[j];
    const Iteration& first = its.front();
    std::string input = "input " + std::to_string(j) + ": ";
    for (const Iteration& it : its) {
      attempted += it.metrics.Value("workload.ops.issued");
      device_errors += it.metrics.Value("block.failed.requests");
      for (const std::string& f : it.check_failures) {
        failures.push_back(input + f);
      }
      if (it.fingerprint != first.fingerprint) {
        failures.push_back(input + "trace fingerprint differs between iterations");
      }
      if (it.SimValues() != first.SimValues()) {
        failures.push_back(input + "simulated metrics differ between iterations");
      }
    }
    size_t reads_before = r.latencies.count();
    uint64_t reference = RunReference(spec, InputSeed(opts.seed, j), first.rate, &r.latencies);
    attempted += first.fg_ops;
    if (reference != first.fingerprint) {
      failures.push_back(input + "fingerprint differs from RunMaintenance's");
    }
    if (r.latencies.count() - reads_before != first.fg_read_ops) {
      failures.push_back(input + "RunMaintenance completed a different number of reads");
    }
    printf("input %d seed %" PRIu64 ": fingerprint %016" PRIx64 ", run_s %.4f\n", j,
           InputSeed(opts.seed, j), first.fingerprint, first.run_s);
  }
  printf("workload %s seed %" PRIu64 ": %d inputs x %d passes%s, rate %.3f ops/s%s\n",
         spec.name, opts.seed, spec.inputs, passes, opts.trace ? " (untraced + traced)" : "",
         rate.ops_per_sec, rate.unthrottled ? " (unthrottled)" : "");
  for (const std::string& f : failures) {
    printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::vector<Metric> metrics = opts.trace ? PerLayerMetrics(r) : EndToEndMetrics(r);
  bool correct = failures.empty() && device_errors == 0;
  PrintResult(correct, std::max<uint64_t>(attempted, 1), failures.size() + device_errors,
              metrics);
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace duet

int main(int argc, char** argv) { return duet::Main(argc, argv); }
