// Figure 9: CPU overhead of Duet. A file task registers the file-system
// root and fetches events every 10/20/40 ms while the webserver workload
// runs unthrottled (the paper measures ~12 page events/ms and 0.5-1.5% CPU
// overhead, with state-based notifications slightly cheaper because events
// merge, and little sensitivity to the fetch interval).
//
// The simulator executes hooks in zero virtual time, so the overhead is
// reported through a cost model applied to the counted operations. The
// per-operation costs are calibrated to the paper's measurement (~1 us of
// kernel work per hooked event end-to-end).

#include "bench/bench_common.h"

using namespace duet;

namespace {

// Cost model (nanoseconds per operation), calibrated against §6.4.
constexpr double kHookCost = 350;        // page-cache hook dispatch
constexpr double kDescriptorCost = 450;  // session check + flag update
constexpr double kItemCopyCost = 180;    // copying one item to the task
constexpr double kFetchCallCost = 4000;  // per fetch syscall

struct OverheadResult {
  double events_per_ms = 0;
  double cpu_overhead_pct = 0;
  uint64_t items = 0;
};

OverheadResult Measure(const StackConfig& stack, uint8_t mask,
                       SimDuration fetch_interval) {
  // Fresh context per measurement: the cost model below reads the duet.*
  // registry counters, so each configuration must start from zero.
  obs::ObsContext obs_ctx;

  WorkloadConfig workload = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                               false, /*ops_per_sec=*/0, 42);
  CowRig rig(stack, workload, obs_ctx);
  Result<SessionId> sid = rig.duet().RegisterFileTask("/", mask);
  assert(sid.ok());

  uint64_t items = 0;
  std::function<void()> poll = [&] {
    while (true) {
      Result<std::vector<DuetItem>> batch = rig.duet().Fetch(*sid, 256);
      if (!batch.ok() || batch->empty()) {
        break;
      }
      items += batch->size();
    }
    rig.loop().ScheduleAfter(fetch_interval, poll);
  };
  rig.loop().ScheduleAfter(fetch_interval, poll);
  rig.workload().Start();
  SimDuration window = SmokeMode() ? stack.window : Seconds(10);
  rig.loop().RunUntil(window);
  rig.workload().Stop();

  obs::MetricsSnapshot snap = obs_ctx.metrics.Snapshot();
  double hooks = static_cast<double>(snap.Value("duet.hooks"));
  double cost_ns =
      hooks * kHookCost +
      static_cast<double>(snap.Value("duet.events.delivered")) * kDescriptorCost +
      static_cast<double>(snap.Value("duet.items.fetched")) * kItemCopyCost +
      static_cast<double>(snap.Value("duet.fetch.calls")) * kFetchCallCost;
  OverheadResult out;
  out.events_per_ms = hooks / ToMillis(window);
  out.cpu_overhead_pct = cost_ns / static_cast<double>(window) * 100.0;
  out.items = items;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Figure 9: CPU overhead of Duet (webserver unthrottled)",
      "~0.5-1.5% CPU overhead at ~12 page events/ms; state-based sessions "
      "slightly cheaper (events merge); insensitive to fetch frequency",
      stack);

  const uint8_t event_mask =
      kDuetPageAdded | kDuetPageRemoved | kDuetPageDirtied | kDuetPageFlushed;
  const uint8_t state_mask = kDuetPageExists | kDuetPageModified;

  TextTable table({"fetch interval", "mode", "events/ms", "items fetched",
                   "CPU overhead", "at paper's 12 ev/ms"});
  std::vector<uint64_t> intervals_ms{10, 20, 40};
  if (SmokeMode()) {
    intervals_ms = {10};
  }
  for (uint64_t interval_ms : intervals_ms) {
    for (auto [mask, name] :
         {std::pair{event_mask, "events"}, std::pair{state_mask, "state"}}) {
      OverheadResult r = Measure(stack, mask, Millis(interval_ms));
      // Overhead scales with the event rate; normalize to the paper's
      // measured ~12 events/ms for a like-for-like comparison.
      double normalized =
          r.events_per_ms > 0 ? r.cpu_overhead_pct * 12.0 / r.events_per_ms : 0;
      table.AddRow({StrFormat("%llu ms", static_cast<unsigned long long>(interval_ms)),
                    name, Num(r.events_per_ms, 1),
                    Num(static_cast<double>(r.items), 0),
                    StrFormat("%.2f%%", r.cpu_overhead_pct),
                    StrFormat("%.2f%%", normalized)});
      fflush(stdout);
    }
  }
  table.Print();
  printf("\ncost model: hook %.0f ns, descriptor update %.0f ns, item copy %.0f ns, "
         "fetch call %.0f ns (calibrated to the paper's ~1 us/event)\n",
         kHookCost, kDescriptorCost, kItemCopyCost, kFetchCallCost);
  return 0;
}
