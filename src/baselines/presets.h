// System presets: assemble the three complete stacks the paper evaluates
// (plus the ablation and Fig. 2 variants) — drive model, extent allocator,
// FileStore, and engine options — from a single scale-aware config.
//
//   kLevelDB        LevelDB defaults, ext4-like placement, fixed-band SMR
//   kLevelDBOnHdd   same engine on a conventional drive (Fig. 2 baseline)
//   kLevelDBWithSets  LevelDB + set-grouped compactions, still on the
//                     fixed-band drive (the Fig. 14 ablation point)
//   kSMRDB          two-level LSM, 40 MB band-aligned SSTables, key-range
//                   overlap allowed in the last level
//   kSEALDB         sets + dynamic bands on a raw shingled disk
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "buf/buffer_pool.h"
#include "core/dynamic_band_allocator.h"
#include "fs/ext4_allocator.h"
#include "fs/file_store.h"
#include "fs/scrub_scheduler.h"
#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "obs/metrics.h"
#include "smr/drive.h"
#include "smr/fault_injection_drive.h"
#include "util/filter_policy.h"
#include "util/options.h"

namespace sealdb::baselines {

enum class SystemKind {
  kLevelDB,
  kLevelDBOnHdd,
  kLevelDBWithSets,
  kSMRDB,
  kSEALDB,
};

const char* SystemName(SystemKind kind);

// Scale-aware configuration. The paper's full-scale constants are the
// defaults; benches shrink everything by a common factor so CPU-bound runs
// finish quickly while all ratios (AF, band/SSTable, guard/track) hold.
struct StackConfig {
  SystemKind kind = SystemKind::kSEALDB;

  uint64_t capacity_bytes = 8ull << 30;
  uint64_t band_bytes = 40ull << 20;       // fixed-band drives
  uint64_t sstable_bytes = 4ull << 20;     // also the free-list class unit
  uint64_t write_buffer_bytes = 4ull << 20;
  uint32_t track_bytes = 1u << 20;
  uint32_t shingle_overlap_tracks = 4;     // guard = 4 tracks = 4 MB
  // Conventional (unshingled) region: FileStore metadata journal in the
  // front half, WAL pool in the back half, like the conventional
  // zones of real HM-SMR drives.
  uint64_t conventional_bytes = 64ull << 20;
  // Run flushes and compactions on the thread that triggers them: the
  // engine's zero-worker case (Options::max_background_compactions = 0).
  bool inline_compactions = true;

  // Worker threads for the background compaction executor (only used when
  // inline_compactions is false). 0 = pick a per-system default: SEALDB and
  // SMRDB compact disjoint sets/bands in parallel and get 4; the LevelDB
  // variants get 2.
  int max_background_compactions = 0;

  // Shared page-based buffer pool for the foreground read path (src/buf/):
  // ONE pool serves every shard column. 0 disables it (cache-sensitivity
  // benches).
  uint64_t buffer_pool_bytes = 8ull << 20;

  // Positioning-time divisor applied to the latency model, normally equal
  // to the geometric scale so seek:transfer economics match full scale.
  uint64_t time_scale = 1;

  // Wrap the drive model in a FaultInjectionDrive so tests can inject
  // read/write errors, torn writes, and power failures.
  bool fault_injection = false;

  // L0 write-stall trigger overrides (0 = keep the Options defaults).
  // Stall and overload tests lower these so the slowdown/stop states
  // engage with little data.
  int level0_slowdown_writes_trigger = 0;
  int level0_stop_writes_trigger = 0;

  // Online media scrub (fs/scrub_scheduler.h): a background thread
  // re-reads live file data under a byte-rate budget, quarantining bad
  // blocks, invalidating damaged tables' cached pages, and degrading a
  // shard whose quarantine count crosses scrub_degrade_bad_blocks.
  bool scrub_enabled = false;
  uint64_t scrub_rate_bytes_per_sec = 8ull << 20;
  uint64_t scrub_degrade_bad_blocks = 16;

  // Hash-partition the keyspace over this many independent LSM shards,
  // each with its own FileStore/allocator over a disjoint drive region
  // (core/shard_layout.h). Every stack is a ShardedDb over these columns;
  // 1 keeps the seed's superblock-free layout and unlabeled metric series.
  // Values > 1 are only supported by the kSEALDB stack.
  int num_shards = 1;

  // Divide all size constants by `factor` (power of two suggested).
  StackConfig Scaled(uint64_t factor) const;
};

// A fully assembled system under test. Destruction order matters and is
// handled by member order (db releases files before the store/drive die).
class Stack {
 public:
  Stack() = default;
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Every stack's DB is a ShardedDb over num_shards() engine columns; a
  // one-shard stack is its N=1 case (seed layout, unlabeled series), with
  // the same per-shard health latch (DegradeShard / IsShardDegraded).
  ShardedDb* db() { return db_.get(); }
  // Same pointer as db(), never null. Kept only for the benchmark harness
  // (perfbench/workloads.cc), which still calls it.
  ShardedDb* sharded_db() { return db_.get(); }
  // Shard 0's store (the only one in a one-shard stack; test plumbing
  // still works with more: the drive is shared).
  fs::FileStore* store() { return stores_.empty() ? nullptr
                                                  : stores_[0].get(); }
  int num_shards() const { return static_cast<int>(stores_.size()); }
  fs::FileStore* shard_store(int i) { return stores_[i].get(); }
  smr::Drive* drive() { return drive_.get(); }
  // Non-null only when config.fault_injection is set (drive() then returns
  // the wrapper itself).
  smr::FaultInjectionDrive* fault_drive() { return fault_; }
  core::DynamicBandAllocator* dynamic_allocator() { return dyn_alloc_; }
  // The one buffer pool shared by every shard column; null when the stack
  // was built with buffer_pool_bytes = 0. Survives Reopen() so a
  // restart keeps its hot pages (stale frames are purged per owner).
  buf::BufferPool* buffer_pool() { return buffer_pool_.get(); }
  // Non-null when the stack was built with config.scrub_enabled; already
  // started. Tests drive a full synchronous pass via scrub()->RunFullPass().
  fs::ScrubScheduler* scrub() { return scrub_.get(); }
  const Options& options() const { return options_; }
  const StackConfig& config() const { return config_; }

  // Process-external memory counter folded into the DB's
  // "sealdb.approximate-memory-usage" property; the network server keeps
  // its per-connection buffer bytes here.
  const std::shared_ptr<std::atomic<uint64_t>>& external_memory_bytes() const {
    return options_.external_memory_bytes;
  }

  // The stack-wide metrics registry: engine, drive, allocator, and any
  // server in front publish into this one instance, so a single Render()
  // (or the METRICS opcode) covers the whole system. Survives Reopen().
  const std::shared_ptr<obs::MetricsRegistry>& metrics_registry() const {
    return options_.metrics_registry;
  }

  // Paper Table I metrics, from registry family sums (every shard's
  // engine series, the one drive's series).
  double wa() const;
  double awa() const;
  double mwa() const { return wa() * awa(); }

  // Tear down and reopen the DB over the same drive contents, simulating a
  // crash + restart (unsynced data is lost). `num_shards` != 0 reopens with
  // a different shard count — the shard superblock rejects a mismatch, which
  // is the error path this parameter exists to exercise. Returns the reopen
  // status.
  Status Reopen(int num_shards = 0);

 private:
  friend Status BuildStack(const StackConfig& config, const std::string& name,
                           std::unique_ptr<Stack>* out);

  // Build the allocator/store/engine column for every shard over the
  // already-constructed drive; `format` formats fresh stores, otherwise
  // recovers existing ones (verifying the shard superblock first).
  Status OpenEngines(bool format);

  StackConfig config_;
  Options options_;
  std::string dbname_;
  std::unique_ptr<const FilterPolicy> filter_;
  // Declared before the stores and db_ so every Table's pinned pages drop
  // before the pool dies.
  std::unique_ptr<buf::BufferPool> buffer_pool_;
  std::unique_ptr<smr::Drive> drive_;
  smr::FaultInjectionDrive* fault_ = nullptr;
  // One allocator + store per shard (index == shard id); destruction order
  // (db before stores before drive) follows member order.
  std::vector<std::unique_ptr<fs::ExtentAllocator>> allocators_;
  core::DynamicBandAllocator* dyn_alloc_ = nullptr;  // shard 0's
  std::vector<std::unique_ptr<fs::FileStore>> stores_;
  std::unique_ptr<ShardedDb> db_;
  // Declared last: the scrub thread reads through db_ and stores_, so it
  // must stop (destructor joins) before either dies.
  std::unique_ptr<fs::ScrubScheduler> scrub_;
};

// Build a complete stack with a fresh (formatted) store and an open DB.
Status BuildStack(const StackConfig& config, const std::string& name,
                  std::unique_ptr<Stack>* out);

}  // namespace sealdb::baselines
