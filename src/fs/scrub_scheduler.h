// ScrubScheduler: background media scrubbing with failure-domain
// escalation.
//
// One scheduler owns a single low-priority thread that round-robins over
// the stack's FileStores (one per shard column), verifying live file data
// in small bounded steps (FileStore::ScrubStep) under a byte-rate token
// bucket so foreground I/O sees at most a trickle of extra reads.
//
// Escalation ladder, mirroring the failure-domain design (DESIGN.md §15):
//   1. a failing block is retried by the read path's bounded retries;
//   2. a block that keeps failing is quarantined inside the FileStore and
//      the damaged table file is reported to its DB column, which evicts
//      the cached reader and bans its pages from buffer-pool re-admission
//      (DB::QuarantineFile);
//   3. when a store's quarantined-block count crosses
//      ScrubOptions::degrade_bad_blocks the scheduler fires the degrade
//      callback, which every preset stack (one shard included) wires to
//      ShardedDb::DegradeShard — only that column stops serving.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fs/file_store.h"
#include "obs/metrics.h"

namespace sealdb {
class DB;
}

namespace sealdb::fs {

struct ScrubOptions {
  // Token-bucket refill rate for scrub reads. 8 MiB/s is ~2% of the
  // simulated drive's sequential bandwidth — slow enough to stay off the
  // foreground latency profile, fast enough to cover a test-sized store
  // in seconds.
  uint64_t rate_bytes_per_sec = 8ull << 20;
  // Bytes verified per ScrubStep (one mutex hold). Matches the read
  // path's readahead chunk so a step costs about one foreground read.
  uint64_t step_bytes = 256 * 1024;
  // Quarantined-block count at which the owning shard is degraded.
  uint64_t degrade_bad_blocks = 16;
};

class ScrubScheduler {
 public:
  // One scrub target: a shard column's store plus the DB that caches its
  // tables (required: damaged tables are quarantined in it). `label`
  // stamps {shard=<label>} on the sealdb_scrub_* series; empty = no label
  // (a one-shard stack).
  struct Target {
    FileStore* store = nullptr;
    sealdb::DB* db = nullptr;
    int shard = 0;
    std::string label;
  };

  // `degrade` is invoked at most once per target, off the scrub thread,
  // with (shard, reason) when that target crosses degrade_bad_blocks;
  // required (the preset stacks pass ShardedDb::DegradeShard at every
  // shard count). `registry` may be null (no metrics).
  ScrubScheduler(std::vector<Target> targets, ScrubOptions options,
                 std::shared_ptr<obs::MetricsRegistry> registry,
                 std::function<void(int, const std::string&)> degrade);
  ~ScrubScheduler();

  ScrubScheduler(const ScrubScheduler&) = delete;
  ScrubScheduler& operator=(const ScrubScheduler&) = delete;

  // Start/stop the background thread. Stop() joins; both are idempotent.
  void Start();
  void Stop();

  // Synchronously scrub every target's full namespace once, ignoring the
  // rate limiter (tests, offline verification). Safe alongside Start().
  void RunFullPass();

  // Totals across all targets since construction.
  uint64_t bytes_scrubbed() const;
  uint64_t errors_found() const;
  uint64_t blocks_repaired() const;
  uint64_t passes_completed() const;

 private:
  struct TargetState {
    Target target;
    ScrubCursor cursor;
    bool degraded = false;  // degrade callback already fired
    obs::Counter* c_bytes = nullptr;
    obs::Counter* c_errors = nullptr;
    obs::Counter* c_repaired = nullptr;
    obs::Counter* c_passes = nullptr;
    obs::Gauge* g_quarantined = nullptr;
  };

  void ThreadMain();
  // Run one bounded step against target `idx` (scrub_mu_ held), updating
  // counters and escalating damage. Returns bytes actually verified.
  uint64_t RunStep(size_t idx, uint64_t budget);
  void Escalate(TargetState& ts, const ScrubStepResult& step);

  const ScrubOptions options_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::function<void(int, const std::string&)> degrade_;

  // Serializes scrub steps between the background thread and RunFullPass.
  mutable std::mutex scrub_mu_;
  std::vector<TargetState> targets_;
  size_t next_target_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t total_errors_ = 0;
  uint64_t total_repaired_ = 0;
  uint64_t total_passes_ = 0;

  // Thread lifecycle.
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace sealdb::fs
