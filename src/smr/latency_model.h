// Rotational drive timing model.
//
// Simulated device time (not wall clock) is the performance currency of the
// whole reproduction: the paper's experiments are disk-bound, so throughput
// shapes are determined by how many seeks versus sequential bytes each
// design issues. Parameters are calibrated against the paper's Table II
// (Seagate ST1000DM003 HDD vs ST5000AS0011 SMR).
#pragma once

#include <cstdint>

namespace sealdb::smr {

struct LatencyParams {
  // Media transfer rates (bytes/second).
  double read_bandwidth = 169.0 * 1e6;
  double write_bandwidth = 155.0 * 1e6;

  // Seek model: t = min_seek + (max_seek - min_seek) * sqrt(d / capacity).
  // Calibrated against Table II: 64 random-read IOPS on the HDD.
  double min_seek_s = 0.0008;   // track-to-track
  double max_seek_s = 0.019;    // full stroke
  double rotation_s = 1.0 / 120.0;  // 7200 rpm -> 8.33 ms per revolution

  // Fixed controller/command overhead per operation.
  double command_overhead_s = 0.0001;

  // Fraction of (seek + rotational) cost charged to random *writes*.
  // Models write caching / command queueing, which is why the paper's HDD
  // does 143 random-write IOPS but only 64 random-read IOPS.
  double write_position_factor = 0.47;

  static LatencyParams Hdd();  // Table II HDD column
  static LatencyParams Smr();  // Table II SMR column (seq 165/148 MB/s)

  // Scale positioning times down by `factor`, matching a geometric
  // downscale of the stack (smaller tracks/SSTables/bands). Keeping
  // seek_time * bandwidth / transfer_size invariant preserves the paper's
  // transfer-vs-seek economics at reduced experiment sizes; bandwidths are
  // untouched.
  LatencyParams TimeScaled(uint64_t factor) const;
};

// Tracks head position and converts access patterns into elapsed seconds.
class LatencyModel {
 public:
  LatencyModel(LatencyParams params, uint64_t capacity_bytes)
      : params_(params), capacity_(capacity_bytes) {}

  // Simulated seconds one access takes: `total` is command overhead, then
  // positioning, then transfer, summed in that order; `position` is the
  // seek + rotation share, 0 when the access starts where the head is.
  struct AccessTime {
    double total;
    double position;
  };

  // An access of `nbytes` at byte offset `offset` from the current head
  // position. Advances the head to the end of the access.
  AccessTime Access(uint64_t offset, uint64_t nbytes, bool is_write);

  // Access absorbed by the on-drive write cache (metadata writes to the
  // conventional region): transfer cost only, head position untouched.
  double AccessCached(uint64_t nbytes, bool is_write) const;

  const LatencyParams& params() const { return params_; }

 private:
  double SeekTime(uint64_t from, uint64_t to) const;

  LatencyParams params_;
  uint64_t capacity_;
  uint64_t head_pos_ = 0;
};

}  // namespace sealdb::smr
