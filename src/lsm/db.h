// Public database interface shared by all three systems in the study
// (LevelDB-like baseline, SMRDB, SEALDB). A DB lives inside a FileStore,
// which in turn sits on a simulated drive; choose the preset in
// baselines/presets.h to assemble a complete stack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lsm/iterator.h"
#include "util/options.h"
#include "util/slice.h"
#include "util/status.h"

namespace sealdb {

namespace fs {
class FileStore;
}

class WriteBatch;

// Abstract handle to particular state of a DB.
class Snapshot {
 protected:
  virtual ~Snapshot() = default;
};

// One record per executed compaction; the raw material of the paper's
// Figs. 2/10/11 (latency series, sizes, placement).
struct CompactionEvent {
  int level = 0;          // input level
  int output_level = 0;
  int num_inputs_base = 0;     // files taken from `level`
  int num_inputs_parent = 0;   // files taken from `output_level`
  int num_outputs = 0;
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;
  // Drive busy time over the compaction's window: exact only when
  // compactions run inline on a one-shard stack; otherwise it includes
  // every other stream on the shared drive.
  double device_seconds = 0.0;
  uint64_t set_id = 0;          // output set/region (0 = none)
  bool trivial_move = false;
  // Physical placement (offset, length) of every output table.
  std::vector<std::pair<uint64_t, uint64_t>> output_placement;
};

// Metadata for one live table file, for tooling and tests that check the
// LSM shape and set layout. `set_id` is the table's FileStore region.
struct LiveFileMeta {
  uint64_t number = 0;
  int level = 0;
  uint64_t file_size = 0;
  uint64_t set_id = 0;
  std::string smallest_user_key;
  std::string largest_user_key;
};

class DB {
 public:
  // Open the database named "name" inside "store". Stores a pointer to a
  // heap-allocated database in *dbptr; caller deletes it when done.
  static Status Open(const Options& options, const std::string& name,
                     fs::FileStore* store, DB** dbptr);

  DB() = default;
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;
  virtual ~DB() = default;

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  // If the database contains an entry for "key" store the corresponding
  // value in *value and return OK; returns NotFound otherwise.
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  // Heap-allocated iterator over the DB contents; caller deletes.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  // Supported properties: "sealdb.num-files-at-level<N>",
  // "sealdb.sstables", "sealdb.background-error",
  // "sealdb.approximate-memory-usage". Counters are not properties: they
  // live in the metrics registry (Options::metrics_registry).
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;

  // Compact the underlying storage for the key range [*begin,*end]
  // (nullptr meaning open-ended): flush the memtable, then compact the
  // whole range of every level above the deepest one holding part of it,
  // one level after the other. Runs on the calling thread and returns when
  // the range is done (or a compaction failed).
  virtual void CompactRange(const Slice* begin, const Slice* end) = 0;

  // Compact every file of `level` overlapping [*begin,*end] into the next
  // level, as many compactions as that takes; an overlapping last level
  // (SMRDB) merges them in place instead. Retires specific sets without
  // cascading through every level.
  virtual void CompactLevelRange(int level, const Slice* begin,
                                 const Slice* end) = 0;

  // Wait until no flush or compaction is pending or running (with inline
  // compactions, runs what is pending on the calling thread).
  virtual void WaitForIdle() = 0;

  // Live write-stall state, cheap enough to poll per request (one atomic
  // load, no DB mutex): 0 = no stall, 1 = slowdown (L0 file count at
  // level0_slowdown_writes_trigger or a memtable flush is backed up),
  // 2 = stop (L0 at level0_stop_writes_trigger — the next write would park
  // inside MakeRoomForWrite until background work catches up). Admission
  // layers reject or delay new writes at >= 2 instead of letting worker
  // threads block in the engine.
  virtual int WriteStallLevel() { return 0; }

  // A lower layer (scrub, FileStore) found table `file_number` damaged:
  // drop its buffer-pool pages and ban them from re-admission until the
  // table dies. Default: no cache to purge.
  virtual void QuarantineFile(uint64_t file_number) { (void)file_number; }

  // ---- instrumentation used by the benchmark harnesses ----
  virtual std::vector<LiveFileMeta> GetLiveFilesMetadata() = 0;
  // Enable per-compaction event recording (off by default) and drain the
  // recorded events.
  virtual void SetRecordCompactionEvents(bool enable) = 0;
  virtual std::vector<CompactionEvent> TakeCompactionEvents() = 0;
};

// Delete the named database's files from the store.
Status DestroyDB(const std::string& name, const Options& options,
                 fs::FileStore* store);

}  // namespace sealdb
