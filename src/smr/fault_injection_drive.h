// FaultInjectionDrive: a decorator over any Drive that deterministically
// injects the failure modes a store running on raw media must survive
// (SMORE makes recoverability from drive contents a first-class design
// obligation; SEALDB owns every failure a file system would normally
// absorb):
//
//  - read errors on chosen blocks, transient (heal after N failures) or
//    permanent, plus seeded probabilistic transient errors
//  - torn writes: a Write() that persists only a prefix of its blocks and
//    then fails, as a powercut mid-transfer would leave it
//  - write errors over a programmable address range (e.g. "every write to
//    the shingled region fails"), modelling a dying head/zone
//  - a crash point: "power off after N more successfully written blocks";
//    the write crossing the point is torn at the cut and all subsequent
//    I/O fails until ClearCrash() ("power restored")
//
// Successful writes heal injected per-block read errors on the rewritten
// blocks, like a drive remapping a bad sector on write. Injected faults are
// counted in the target's DeviceMetrics (sealdb_device_faults_total by
// kind: read_error / write_error / torn_write / crash), so the wrapper and
// its drive share one registry and benches and tests can account for them.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "smr/drive.h"
#include "util/random.h"

namespace sealdb::smr {

class FaultInjectionDrive final : public Drive {
 public:
  explicit FaultInjectionDrive(std::unique_ptr<Drive> target);
  ~FaultInjectionDrive() override = default;

  // ---- fault programming ----

  // Inject a read error on every block of [offset, offset+n).
  // remaining_failures < 0 makes the error permanent; otherwise the next
  // `remaining_failures` reads touching the block fail, then it heals.
  void InjectReadError(uint64_t offset, uint64_t n,
                       int remaining_failures = -1);
  void ClearReadError(uint64_t offset, uint64_t n);

  // Each read op additionally fails (transiently) with probability p.
  void SetReadErrorProbability(double p, uint32_t seed = 1234);

  // Fail every write overlapping [begin, end) until cleared; nothing of a
  // failed write is persisted. Defaults to the whole drive.
  void SetWriteError(bool enabled, uint64_t begin = 0,
                     uint64_t end = UINT64_MAX);

  // Tear the next write: persist only its first `keep_blocks` blocks, then
  // return an error. One-shot.
  void TearNextWrite(uint64_t keep_blocks);

  // Sleep this long (wall clock) inside every Write(), modelling a slow or
  // congested device so flush/compaction backlogs — and therefore engine
  // write stalls — become observable in tests. 0 disables. Thread-safe;
  // may be changed while I/O is in flight.
  void SetWriteDelayMicros(uint64_t micros) {
    write_delay_micros_.store(micros, std::memory_order_relaxed);
  }

  // Power off after `n` more successfully written blocks. The write that
  // crosses the budget persists only the blocks before the cut. Once
  // crashed, every Read/Write/Trim fails until ClearCrash().
  void CrashAfterBlockWrites(uint64_t n);
  // Power off immediately.
  void PowerOff();
  bool crashed() const {
    std::lock_guard<std::mutex> l(mu_);
    return crashed_;
  }
  // Power restored: I/O works again and any still-armed crash point is
  // disarmed (the power-cut experiment is over). Per-block faults persist.
  void ClearCrash() {
    std::lock_guard<std::mutex> l(mu_);
    crashed_ = false;
    crash_after_blocks_ = -1;
  }

  // Lifetime count of blocks actually persisted (crash-sweep yardstick).
  uint64_t blocks_written() const {
    std::lock_guard<std::mutex> l(mu_);
    return blocks_written_;
  }

  Drive* target() { return target_.get(); }

  // ---- Drive interface ----
  Status Read(uint64_t offset, uint64_t n, char* scratch) override;
  Status Write(uint64_t offset, const Slice& data) override;
  Status Trim(uint64_t offset, uint64_t n) override;
  const Geometry& geometry() const override { return target_->geometry(); }
  const DeviceMetrics& metrics() const override { return target_->metrics(); }
  bool IsValid(uint64_t offset, uint64_t n) const override {
    return target_->IsValid(offset, n);
  }

 private:
  // Returns true (and consumes one failure charge) if [offset, offset+n)
  // touches a faulted block. Callers hold mu_.
  bool ConsumeReadFault(uint64_t offset, uint64_t n);
  void HealWrittenBlocks(uint64_t offset, uint64_t n);
  void ClearReadErrorLocked(uint64_t offset, uint64_t n);

  std::unique_ptr<Drive> target_;

  // Guards all injected-fault state below; sharded stacks issue I/O to one
  // decorated drive from several shards at once. The target drive has its
  // own internal lock, so mu_ is released before delegating would be ideal,
  // but fault decisions and the delegated call must be atomic (a torn-write
  // budget shared between two racing writes must charge exactly once), so
  // the delegate happens under mu_ too.
  mutable std::mutex mu_;

  // block index -> remaining failures (<0 = permanent).
  std::map<uint64_t, int> bad_blocks_;
  double read_error_probability_ = 0.0;
  Random rng_{1234};

  bool write_error_enabled_ = false;
  uint64_t write_error_begin_ = 0;
  uint64_t write_error_end_ = UINT64_MAX;

  bool tear_next_write_ = false;
  uint64_t tear_keep_blocks_ = 0;

  std::atomic<uint64_t> write_delay_micros_{0};

  int64_t crash_after_blocks_ = -1;  // <0 = no crash point armed
  bool crashed_ = false;

  uint64_t blocks_written_ = 0;
};

}  // namespace sealdb::smr
