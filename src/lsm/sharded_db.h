// ShardedDb: hash-partition the keyspace over N independent LSM engines
// (DESIGN.md §13). Every preset stack's DB is a ShardedDb; a one-shard
// store is its N=1 case (routing is constant, the merged iterator is the
// one child, and the failure contract below is the same).
//
// Each shard is a complete DB (its own memtable, WAL, version set, and
// compaction scheduling) opened over its own FileStore, which in turn owns
// a disjoint slice of the shared drive (core/shard_layout.h). Shards never
// touch each other's state, so writes to different shards contend on
// nothing above the drive model itself — the shape of seastar-style
// shard-per-core engines, adapted to one simulated spindle.
//
// Routing is ShardLayout::ShardOfKey (fixed-seed hash of the user key), so
// point operations go straight to one engine. Cross-shard semantics:
//
//  - Write(batch): the batch is split per shard and each sub-batch applies
//    atomically *within its shard*; there is no cross-shard atomicity (the
//    same contract partitioned stores like ScaleStore give). Single-shard
//    batches keep full atomicity.
//  - GetSnapshot: a composite of one per-shard snapshot, taken in shard
//    order; reads through it are per-shard-consistent.
//  - NewIterator: a merging iterator over the per-shard iterators (shards
//    partition by hash, not range, so every shard contributes everywhere).
//  - Counters are not aggregated here: every shard engine stamps
//    {shard=N} on its sealdb_engine_* series in the one shared registry,
//    and readers take family sums (MetricsRegistry::*_family_*).
//
// Failure domains (DESIGN.md §15): a shard — not the DB — is the unit of
// failure. When one engine column latches a background error (the engine's
// own read-only degradation), ShardedDb latches that shard *degraded*:
// writes routed to it return the typed kShardDegraded status while every
// other shard keeps serving reads and writes. Reads on a degraded shard are
// still attempted (the engine serves whatever is readable); only a failing
// read is wrapped in the typed status. Health is exposed as the
// sealdb_shard_degraded{shard=} gauge family and the "sealdb.shard-health"
// property.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "lsm/db.h"
#include "obs/metrics.h"

namespace sealdb {

class Comparator;

// Not `final`: callers holding Stack::db()'s ShardedDb* then keep virtual
// dispatch instead of direct calls, so a static link pulls this object in
// where it always did and the engine's hot code keeps its placement (with
// `final`, perfbench ingest p50 moved ~5% from code placement alone).
class ShardedDb : public DB {
 public:
  // Takes ownership of the per-shard engines (index == shard id).
  // `comparator` orders the merged iterator view; pass the same comparator
  // the shards were opened with (Options::comparator). `registry` (the
  // stack's, required) receives the per-shard sealdb_shard_degraded gauges.
  ShardedDb(std::vector<std::unique_ptr<DB>> shards,
            const Comparator* comparator,
            std::shared_ptr<obs::MetricsRegistry> registry);
  ~ShardedDb() override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  // Routing, exposed so the server can pick a shard queue without
  // constructing a batch.
  int ShardOf(const Slice& user_key) const;
  DB* shard(int i) { return shards_[i].get(); }

  // ---- per-shard health ----
  bool IsShardDegraded(int shard) const {
    return health_[shard]->degraded.load(std::memory_order_acquire);
  }
  // Latch `shard` degraded (idempotent). Called internally when a shard's
  // engine latches a background error, by the scrub scheduler's escalation
  // ladder, and by tests/operators forcing a failure domain down.
  void DegradeShard(int shard, const std::string& reason);
  // Number of currently degraded shards (health gauge summary).
  int DegradedShardCount() const;

  // ---- DB interface ----
  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  void CompactRange(const Slice* begin, const Slice* end) override;
  void CompactLevelRange(int level, const Slice* begin,
                         const Slice* end) override;
  void WaitForIdle() override;
  int WriteStallLevel() override;
  // Stall level of one shard; the server's admission control checks the
  // target shard instead of rejecting for a stall elsewhere.
  int WriteStallLevelOfShard(int shard);
  std::vector<LiveFileMeta> GetLiveFilesMetadata() override;
  void SetRecordCompactionEvents(bool enable) override;
  std::vector<CompactionEvent> TakeCompactionEvents() override;

 private:
  struct ShardedSnapshot;

  // Health is latched: a shard that degrades stays degraded until the
  // process reopens it (matching the engine's own background-error latch).
  struct ShardHealth {
    std::atomic<bool> degraded{false};
    std::mutex mu;
    std::string reason;              // guarded by mu
    obs::Gauge* gauge = nullptr;     // sealdb_shard_degraded{shard=}
  };

  // Post-op filter: on a failed shard op, consult the shard's latched
  // background error and promote the failure to kShardDegraded when the
  // engine column is down (detection path of the health latch).
  Status MapShardStatus(int shard, Status s);
  Status DegradedStatus(int shard);

  std::vector<std::unique_ptr<DB>> shards_;
  const Comparator* comparator_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::vector<std::unique_ptr<ShardHealth>> health_;
};

}  // namespace sealdb
