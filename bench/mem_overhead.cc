// §6.4 memory overhead: item descriptors and session bitmaps.
//
// Paper numbers (50 GB of data, N = 16 sessions): 32-byte merged
// descriptors; at most 2 x cached pages of descriptors alive for state
// sessions = 1.5% of cache memory; done bitmaps ~1.47 MB measured (1.56 MB
// worst case) for 50 GB of blocks. Also reports the file system's own
// metadata per block, the simulator's largest per-stack allocation.

#include "bench/bench_common.h"
#include "src/util/range_bitmap.h"

using namespace duet;

namespace {

struct StateSessionResult {
  uint64_t peak_descriptors = 0;
  uint64_t cache_capacity = 0;
  uint64_t descriptor_bytes = 0;
  uint64_t cache_bytes = 0;
  uint64_t fs_metadata_bytes = 0;
  uint64_t fs_blocks = 0;
  uint64_t mapped_pages = 0;
};

// How the state session consumes its notifications.
enum class Fetching {
  kNever,
  kPoll,  // every 20 ms, as real tasks fetch many times a second
  // Polls, and marks each block reported as existing done while its page is
  // cached, as backup does.
  kPollAndMarkDone,
};

// Runs the webserver over a state session that fetches as `fetching` says.
StateSessionResult RunStateSession(const StackConfig& stack, Fetching fetching) {
  WorkloadConfig workload = MakeWorkloadConfig(stack, Personality::kWebserver, 1.0,
                                               false, /*ops_per_sec=*/0, 42);
  // A context of its own, so the descriptor gauges count this run only.
  obs::ObsContext ctx;
  CowRig rig(stack, workload, ctx);
  Result<SessionId> sid = rig.duet().RegisterBlockTask(kDuetPageExists);
  assert(sid.ok());
  uint64_t peak_descriptors = 0;
  std::function<void()> tick = [&] {
    peak_descriptors = std::max(peak_descriptors, rig.duet().descriptor_count());
    while (fetching != Fetching::kNever) {
      auto items = rig.duet().Fetch(*sid, 256);
      if (!items.ok() || items->empty()) {
        break;
      }
      if (fetching == Fetching::kPollAndMarkDone) {
        for (const DuetItem& item : *items) {
          if (item.has(kDuetPageExists)) {
            (void)rig.duet().SetDone(*sid, item.id);
          }
        }
      }
    }
    rig.loop().ScheduleAfter(Millis(20), tick);
  };
  rig.loop().ScheduleAfter(Millis(20), tick);
  rig.workload().Start();
  rig.loop().RunUntil(SmokeMode() ? stack.window : Seconds(10));
  rig.workload().Stop();

  uint64_t cached = rig.fs().cache().PageCount();
  uint64_t descriptors = rig.duet().descriptor_count();
  if (fetching == Fetching::kPollAndMarkDone) {
    // The gauge sees every peak, not only those at a 20 ms tick.
    peak_descriptors = static_cast<uint64_t>(
        ctx.metrics.FindGauge("duet.desc.peak")->value());
  }
  printf("state session, webserver running, %s:\n",
         fetching == Fetching::kNever  ? "never fetching"
         : fetching == Fetching::kPoll ? "fetching every 20 ms"
                                       : "fetching every 20 ms and marking blocks done");
  printf("  cached pages:        %llu\n", static_cast<unsigned long long>(cached));
  printf("  item descriptors:    %llu now, %llu peak  (bound: 2x cached = %llu)\n",
         static_cast<unsigned long long>(descriptors),
         static_cast<unsigned long long>(peak_descriptors),
         static_cast<unsigned long long>(2 * cached));
  printf("  descriptor memory:   %.1f KiB (arena + page index) = %.2f%% of "
         "cache memory (paper, descriptors alone: 1.5%%)\n\n",
         static_cast<double>(rig.duet().DescriptorMemoryBytes()) / 1024.0,
         100.0 * static_cast<double>(rig.duet().DescriptorMemoryBytes()) /
             (static_cast<double>(cached) * kPageSize));
  StateSessionResult out;
  out.peak_descriptors = peak_descriptors;
  out.cache_capacity = rig.fs().cache().capacity();
  out.descriptor_bytes = rig.duet().DescriptorMemoryBytes();
  out.cache_bytes = cached * kPageSize;
  out.fs_metadata_bytes = rig.fs().MetadataMemoryBytes();
  out.fs_blocks = rig.fs().capacity_blocks();
  rig.fs().ns().ForEachInode([&out](const Inode& inode) {
    if (!inode.is_dir()) {
      out.mapped_pages += inode.PageCount();
    }
  });
  return out;
}

// Envelope check: prints and returns false when a bound is violated, so the
// smoke run fails loudly if descriptor/bitmap memory drifts off the paper's
// envelope.
bool CheckEnvelope(const char* what, double value, double bound) {
  bool ok = value <= bound;
  printf("envelope: %-46s %10.3f <= %.3f  %s\n", what, value, bound,
         ok ? "ok" : "VIOLATED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  StackConfig stack = ParseStackArgs(argc, argv);
  PrintBenchHeader(
      "Memory overhead: descriptors and bitmaps (§6.4)",
      "32 B/descriptor; <=2x cached pages alive for state sessions (1.5% of "
      "cache memory); ~1.5 MB of done bitmap per 50 GB scrubbed",
      stack);

  StateSessionResult polling = RunStateSession(stack, Fetching::kPoll);
  RunStateSession(stack, Fetching::kNever);
  StateSessionResult marking = RunStateSession(stack, Fetching::kPollAndMarkDone);

  // Done-bitmap footprint at the paper's scale: one bit per 4 KiB block of a
  // 50 GB device, fully marked (the scrub-complete worst case).
  const uint64_t blocks_50gb = 50ull * 1024 * 1024 * 1024 / kPageSize;
  RangeBitmap done(blocks_50gb);
  done.SetRange(0, blocks_50gb);
  printf("done bitmap, 50 GB of data fully scrubbed:\n");
  printf("  %.2f MiB across %llu chunks (paper: 1.47 MiB measured, 1.56 MiB "
         "worst case)\n",
         static_cast<double>(done.MemoryBytes()) / (1024.0 * 1024.0),
         static_cast<unsigned long long>(done.chunk_count()));

  // Sparse usage: only 1% of the device marked, in scattered runs.
  RangeBitmap sparse(blocks_50gb);
  for (uint64_t i = 0; i < blocks_50gb / 100; i += 1000) {
    sparse.SetRange(i * 100, i * 100 + 1000);
  }
  printf("  sparse marking (1%% of blocks): %.3f MiB — chunks allocate on "
         "demand\n\n",
         static_cast<double>(sparse.MemoryBytes()) / (1024.0 * 1024.0));

  // The file system's block store and extent maps, after the polling run.
  // Every page of a live file is mapped, so mapped pages = file pages.
  const double fs_bytes_per_block =
      static_cast<double>(polling.fs_metadata_bytes - 8 * polling.mapped_pages) /
      static_cast<double>(polling.fs_blocks);
  printf("file-system metadata (cowfs), webserver file set after the polling run:\n");
  printf("  %.2f MiB for %llu blocks and %llu mapped pages\n",
         static_cast<double>(polling.fs_metadata_bytes) / (1024.0 * 1024.0),
         static_cast<unsigned long long>(polling.fs_blocks),
         static_cast<unsigned long long>(polling.mapped_pages));
  printf("  %.2f B/block beyond 8 B per mapped page (reverse map 8 + token 8 + "
         "CRC32C 4 + refcount 4)\n\n",
         fs_bytes_per_block);

  // Hard envelope checks (exit non-zero on violation so the bench_smoke
  // ctest entry gates them):
  //  * a polling state session's live descriptors stay within the paper's
  //    2 x cached-pages bound (§6.4), also when it marks its items done;
  //  * the sizeof-accurate descriptor store (arena capacity of 24 B
  //    descriptors + freelist + page index) stays a small fraction of cache
  //    memory;
  //  * a fully-set done bitmap for 50 GB of blocks stays within the paper's
  //    ~1.5 MiB / ~1 MB-per-task envelope (2 MiB with chunk headers);
  //  * the file system's metadata stays within 24 B per block plus 8 B per
  //    mapped page.
  bool ok = true;
  ok &= CheckEnvelope("peak descriptors / cache capacity (poll)",
                      static_cast<double>(polling.peak_descriptors) /
                          static_cast<double>(polling.cache_capacity),
                      2.0);
  ok &= CheckEnvelope("peak descriptors / cache capacity (mark done)",
                      static_cast<double>(marking.peak_descriptors) /
                          static_cast<double>(marking.cache_capacity),
                      2.0);
  ok &= CheckEnvelope("descriptor memory % of cache memory",
                      100.0 * static_cast<double>(polling.descriptor_bytes) /
                          static_cast<double>(polling.cache_bytes),
                      8.0);
  ok &= CheckEnvelope("done bitmap MiB, 50 GB fully scrubbed",
                      static_cast<double>(done.MemoryBytes()) / (1024.0 * 1024.0),
                      2.0);
  ok &= CheckEnvelope("fs metadata B/block beyond 8 B/mapped page", fs_bytes_per_block,
                      24.0);
  if (!ok) {
    printf("memory envelope violated\n");
    return 1;
  }
  return 0;
}
