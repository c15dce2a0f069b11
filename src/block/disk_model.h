// Analytic device service-time models.
//
// The experiments depend on the *relative* costs the paper's hardware
// exhibits — random vs sequential, read vs write, HDD vs SSD — not on exact
// numbers. Both models share one structure: a positioning cost (distance-
// dependent seek + rotation for the HDD, a flat random-access penalty for the
// SSD) plus a bandwidth-limited transfer term.
#ifndef SRC_BLOCK_DISK_MODEL_H_
#define SRC_BLOCK_DISK_MODEL_H_

#include <cstdint>
#include <memory>

#include "src/block/io_request.h"
#include "src/sim/time.h"
#include "src/util/types.h"

namespace duet {

class DiskModel {
 public:
  virtual ~DiskModel() = default;

  // Service time for `count` blocks at `start`, given the head/last-access
  // position `head`. A request continuing exactly at `head` is sequential.
  virtual SimDuration ServiceTime(BlockNo start, uint32_t count, IoDir dir,
                                  BlockNo head) const = 0;

  virtual uint64_t capacity_blocks() const = 0;
};

// 10K RPM SAS drive, calibrated to the paper's setup (§6.1.3): ~150 MB/s
// sequential and ~21 MB/s for 64 KiB random reads (≈2.7 ms effective
// positioning). The positioning parameters are *effective* values for a
// short-stroked 50 GB working area on a 300 GB drive with command queueing,
// not datasheet full-stroke numbers — we calibrate the model to reproduce the
// end-to-end rates the paper reports.
struct HddParams {
  uint64_t capacity_blocks = 12'800'000;     // ~50 GiB of 4 KiB blocks
  double seq_read_mbps = 150.0;
  double seq_write_mbps = 140.0;
  SimDuration track_seek = Micros(200);      // adjacent-cylinder seek
  SimDuration max_seek = Millis(2);          // short-stroked full sweep
  SimDuration avg_rotation = Micros(1500);   // effective rotational delay
};

class HddModel : public DiskModel {
 public:
  explicit HddModel(HddParams params = HddParams());

  SimDuration ServiceTime(BlockNo start, uint32_t count, IoDir dir,
                          BlockNo head) const override;
  uint64_t capacity_blocks() const override { return params_.capacity_blocks; }

  const HddParams& params() const { return params_; }

 private:
  HddParams params_;
};

// Consumer SSD modeled after the Intel 510 the paper uses (§6.5): high
// sequential bandwidth, but 64 KiB random reads land near the HDD's ~21 MB/s
// (the paper calls the two "roughly similar"), so the random-read penalty is
// substantial for this generation of drive.
struct SsdParams {
  uint64_t capacity_blocks = 12'800'000;
  double seq_read_mbps = 265.0;
  double seq_write_mbps = 205.0;
  SimDuration random_read_penalty = Millis(2'700) / 1000;  // 2.7 ms
  SimDuration random_write_penalty = Micros(120);
};

class SsdModel : public DiskModel {
 public:
  explicit SsdModel(SsdParams params = SsdParams());

  SimDuration ServiceTime(BlockNo start, uint32_t count, IoDir dir,
                          BlockNo head) const override;
  uint64_t capacity_blocks() const override { return params_.capacity_blocks; }

  const SsdParams& params() const { return params_; }

 private:
  SsdParams params_;
};

}  // namespace duet

#endif  // SRC_BLOCK_DISK_MODEL_H_
