// ShardLayout: carve one simulated drive into N independent shard regions
// (DESIGN.md §13).
//
// The keyspace-partitioned engine (ShardedDb) gives every shard its own
// FileStore and extent allocator, all sharing a single drive. This module
// owns the geometry of that split:
//
//  - a one-block *shard superblock* at the very start of the conventional
//    region records how many shards the drive was formatted with, so a
//    reopen with a different count fails with a typed error instead of
//    silently routing keys to the wrong shard's LSM;
//  - the remaining conventional space is divided into N equal block-aligned
//    slices, one metadata journal + WAL/manifest pool per shard;
//  - the shingled space is divided into N track-aligned slices with a
//    guard-sized gap between neighbours, so a shard appending at the tail
//    of its region can never shingle over the first tracks of the next
//    shard's region (the same Eq. 1 safety the dynamic band allocator
//    enforces inside a region).
//
// Routing uses a fixed-seed hash of the user key; it must stay stable
// across processes and versions, or a reopened DB would look up keys in the
// wrong shard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "smr/geometry.h"
#include "util/slice.h"
#include "util/status.h"

namespace sealdb::smr {
class Drive;
}

namespace sealdb::core {

// One shard's byte ranges on the shared drive.
struct ShardRegion {
  // Conventional slice holding this shard's FileStore journal and
  // appendable-file (WAL/manifest) pool.
  uint64_t conv_base = 0;
  uint64_t conv_len = 0;
  // Shingled slice managed by this shard's extent allocator. The
  // inter-shard guard gap is *outside* [data_base, data_limit).
  uint64_t data_base = 0;
  uint64_t data_limit = 0;
};

class ShardLayout {
 public:
  // Computes the carve-out for `num_shards` shards on a drive with `geo`.
  // `alignment` aligns the shingled slice boundaries (track size for
  // SEALDB/LevelDB stacks, band size for SMRDB). num_shards == 1
  // degenerates to the seed's whole-drive layout (no superblock, full
  // conventional region).
  ShardLayout(const smr::Geometry& geo, int num_shards, uint64_t alignment);

  int num_shards() const { return num_shards_; }
  const ShardRegion& region(int shard) const { return regions_[shard]; }
  // Value of the `shard` label on the shard's metric series: "" for a
  // one-shard layout, so its series stay unlabeled as in the seed.
  std::string label(int shard) const {
    return num_shards_ == 1 ? std::string() : std::to_string(shard);
  }

  // Stable key -> shard routing (fixed-seed hash of the user key).
  // A free function so callers without a layout (tests, tools) can route.
  static int ShardOfKey(const Slice& user_key, int num_shards);

  // ---- shard superblock ----
  // Written once at Format() time; verified before every recovery. A
  // one-shard layout has none: both calls return OK without I/O, because
  // the seed layout's offset 0 belongs to the FileStore journal.
  Status WriteSuperblock(smr::Drive* drive) const;
  // Reads the superblock and checks it was formatted with num_shards()
  // shards; a mismatch (or a missing/corrupt superblock) is a typed
  // InvalidArgument/Corruption error naming both counts.
  Status VerifySuperblock(smr::Drive* drive) const;

 private:
  smr::Geometry geo_;
  int num_shards_;
  std::vector<ShardRegion> regions_;
};

}  // namespace sealdb::core
