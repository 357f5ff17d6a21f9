#include "core/shard_layout.h"

#include <algorithm>
#include <cstring>

#include "smr/drive.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/hash.h"

namespace sealdb::core {

namespace {

// "SHRD" — distinguishes a sharded format from the seed layout, whose
// offset 0 holds a FileStore checkpoint slot instead.
constexpr uint32_t kSuperblockMagic = 0x53485244;
constexpr uint32_t kSuperblockVersion = 1;

uint64_t AlignDown(uint64_t v, uint64_t a) { return v / a * a; }
uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

}  // namespace

ShardLayout::ShardLayout(const smr::Geometry& geo, int num_shards,
                         uint64_t alignment)
    : geo_(geo), num_shards_(std::max(1, num_shards)) {
  regions_.resize(num_shards_);
  if (num_shards_ == 1) {
    // Seed-parity layout: the single shard owns everything, superblock-free.
    regions_[0].conv_base = 0;
    regions_[0].conv_len = geo.conventional_bytes;
    regions_[0].data_base = geo.conventional_bytes;
    regions_[0].data_limit = geo.capacity_bytes;
    return;
  }

  // Conventional split: one block for the superblock, then N equal
  // block-aligned slices.
  const uint64_t conv_start = geo.block_bytes;  // after the superblock
  const uint64_t conv_slice = AlignDown(
      (geo.conventional_bytes - conv_start) / num_shards_, geo.block_bytes);
  // Shingled split: N aligned slices separated by a guard-sized gap so a
  // shard's trailing tracks can never damage its neighbour's leading ones.
  const uint64_t align = std::max<uint64_t>(alignment, geo.block_bytes);
  const uint64_t data_start = AlignUp(geo.conventional_bytes, align);
  const uint64_t data_slice =
      AlignDown((geo.capacity_bytes - data_start) / num_shards_, align);
  const uint64_t guard = AlignUp(geo.guard_bytes(), align);

  for (int i = 0; i < num_shards_; i++) {
    ShardRegion& r = regions_[i];
    r.conv_base = conv_start + static_cast<uint64_t>(i) * conv_slice;
    r.conv_len = conv_slice;
    r.data_base = data_start + static_cast<uint64_t>(i) * data_slice;
    const uint64_t slice_end =
        (i + 1 == num_shards_)
            ? geo.capacity_bytes
            : data_start + static_cast<uint64_t>(i + 1) * data_slice;
    // Leave the inter-shard guard gap at the tail of every slice but the
    // last (nothing lives after the last shard's region).
    r.data_limit = (i + 1 == num_shards_)
                       ? slice_end
                       : (slice_end > guard ? slice_end - guard : r.data_base);
  }
}

int ShardLayout::ShardOfKey(const Slice& user_key, int num_shards) {
  if (num_shards <= 1) return 0;
  // Fixed seed: routing must be identical across processes and reopens.
  const uint32_t h = Hash(user_key.data(), user_key.size(), 0x5ea1db5d);
  return static_cast<int>(h % static_cast<uint32_t>(num_shards));
}

Status ShardLayout::WriteSuperblock(smr::Drive* drive) const {
  if (num_shards_ == 1) return Status::OK();
  std::string rec;
  PutFixed32(&rec, kSuperblockMagic);
  PutFixed32(&rec, kSuperblockVersion);
  PutFixed32(&rec, static_cast<uint32_t>(num_shards_));
  PutFixed64(&rec, geo_.capacity_bytes);
  PutFixed32(&rec, crc32c::Value(rec.data(), rec.size()));
  rec.resize(geo_.block_bytes, '\0');
  return drive->Write(0, rec);
}

Status ShardLayout::VerifySuperblock(smr::Drive* drive) const {
  if (num_shards_ == 1) return Status::OK();
  std::string scratch(geo_.block_bytes, '\0');
  Status s = drive->Read(0, geo_.block_bytes, scratch.data());
  if (!s.ok()) {
    return Status::Corruption("shard superblock unreadable: " + s.ToString());
  }
  Slice in(scratch);
  const size_t payload = 4 + 4 + 4 + 8;
  const uint32_t crc = DecodeFixed32(in.data() + payload);
  if (crc != crc32c::Value(in.data(), payload)) {
    return Status::Corruption(
        "shard superblock checksum mismatch (drive not formatted for "
        "sharding, or formatted by a one-shard stack)");
  }
  const uint32_t magic = DecodeFixed32(in.data());
  const uint32_t version = DecodeFixed32(in.data() + 4);
  const uint32_t formatted = DecodeFixed32(in.data() + 8);
  if (magic != kSuperblockMagic) {
    return Status::Corruption("shard superblock magic mismatch");
  }
  if (version != kSuperblockVersion) {
    return Status::InvalidArgument("unsupported shard superblock version");
  }
  if (formatted != static_cast<uint32_t>(num_shards_)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "shard count mismatch: drive formatted with %u shards, "
                  "reopened with %d",
                  formatted, num_shards_);
    return Status::InvalidArgument(buf);
  }
  return Status::OK();
}

}  // namespace sealdb::core
