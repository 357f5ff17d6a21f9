// Engine configuration. One Options struct drives all three systems the
// paper evaluates (LevelDB, SMRDB, SEALDB); src/baselines/presets.h provides
// the paper's configurations.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace sealdb::obs {
class MetricsRegistry;
}

namespace sealdb::buf {
class BufferPool;
}

namespace sealdb {

class Comparator;
class FilterPolicy;
class Snapshot;

// How compaction inputs/outputs are grouped and placed on the device.
enum class CompactionUnit {
  // Classic LevelDB: each SSTable is an independent file placed by the
  // filesystem allocator.
  kSSTable,
  // SEALDB: the overlapped SSTables of a compaction form a *set* stored in
  // one contiguous extent; compaction reads/writes whole sets.
  kSet,
};

struct Options {
  // -------- ordering and correctness --------
  const Comparator* comparator;  // default: BytewiseComparator()

  bool paranoid_checks = false;

  // -------- memory / file sizing (paper Sec. IV defaults, scalable) -------
  size_t write_buffer_size = 4 * 1024 * 1024;  // memtable budget
  size_t max_file_size = 4 * 1024 * 1024;      // SSTable target size (4 MB)
  size_t block_size = 4 * 1024;
  int block_restart_interval = 16;

  // If non-null, use this filter policy (e.g. bloom) for table reads.
  const FilterPolicy* filter_policy = nullptr;
  // If non-null, all SSTable block reads go through this page-based buffer
  // manager (src/buf/, DESIGN.md §14); null disables block caching. Not
  // owned: the Stack builds one pool from StackConfig::buffer_pool_bytes
  // and every shard column caches into the same frames.
  buf::BufferPool* buffer_pool = nullptr;

  // -------- LSM shape --------
  int num_levels = 7;
  // Size budget of L1 in bytes; L_i = base * 10^(i-1) (the paper's
  // amplification factor, lsm/version_set.cc kLevelSizeMultiplier).
  uint64_t max_bytes_for_level_base = 10ull * 4 * 1024 * 1024;
  int level0_slowdown_writes_trigger = 8;
  int level0_stop_writes_trigger = 12;

  // SMRDB mode: key ranges inside level 1 may overlap (two-level LSM where
  // L1 behaves like L0 for lookups; compactions L0->L1 merge with every
  // overlapping run, and an intra-level merge runs once
  // lsm/version_set.cc kMaxOverlapRuns runs overlap). Enabled by the smrdb
  // preset together with num_levels = 2 and 40 MB SSTables.
  bool allow_overlap_last_level = false;

  // SEALDB set-aware compaction (paper Sec. III-A). With kSet the picker
  // also prefers a victim whose set holds many invalidated SSTables (paper
  // Sec. III-C "Delete", lsm/version_set.cc kInvalidSetPriorityThreshold).
  CompactionUnit compaction_unit = CompactionUnit::kSSTable;

  // Worker threads that run flushes and compactions in the background,
  // 0 to 8. Compactions whose key ranges and levels do not overlap
  // (disjoint sets at a level, paper Sec. III-A) run concurrently;
  // conflicting picks are serialized by a reservation map. With 0 the same
  // work runs inline on the thread that triggered it (deterministic on one
  // thread; used by tests and benches).
  int max_background_compactions = 0;

  // Bytes held by components outside the engine but inside the same
  // process budget (e.g. the network server's per-connection read/write
  // buffers). Folded into "sealdb.approximate-memory-usage" so a serving
  // front-end reports total memory pressure through one property. Shared
  // so the owner can keep updating it after Open() copies the Options.
  std::shared_ptr<std::atomic<uint64_t>> external_memory_bytes;

  // Metrics registry the engine publishes its sealdb_engine_* counters
  // into. Shared with the drive/allocator/server by the preset stacks so
  // one exposition covers the whole process; when null the DB creates a
  // private registry.
  std::shared_ptr<obs::MetricsRegistry> metrics_registry;

  // Value of the `shard` label this engine instance stamps on its
  // sealdb_engine_* metric series. Empty (default) emits unlabeled series,
  // as a one-shard stack does; the preset stacks (baselines/presets.h)
  // set "0".."N-1" on the columns of an N-shard store.
  std::string metrics_shard_label;

  Options();
};

struct ReadOptions {
  bool verify_checksums = false;
  // If non-null, read as of the supplied snapshot.
  const Snapshot* snapshot = nullptr;
};

struct WriteOptions {
  // If true, the WAL write is flushed to the device before acking.
  bool sync = false;
};

}  // namespace sealdb
