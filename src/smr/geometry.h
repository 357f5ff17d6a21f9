// Drive geometry shared by the simulated device models.
//
// The address space is byte-addressed (a "PBA" here is a byte offset);
// writes are block-aligned. Tracks matter for the shingling constraint:
// writing track t makes tracks (t, t + shingle_overlap] unreadable unless
// they are rewritten afterwards, exactly like a real shingled platter.
#pragma once

#include <cstdint>

namespace sealdb::smr {

struct Geometry {
  // Total usable capacity in bytes.
  uint64_t capacity_bytes = 16ull * 1024 * 1024 * 1024;

  // I/O granularity; all reads/writes must be aligned multiples.
  uint32_t block_bytes = 4096;

  // Bytes per track. Real 1 TB drives have ~1-2 MB outer tracks; we use a
  // uniform 1 MB track, which keeps guard-region math identical to the
  // paper (4 MB guard == 4 tracks at the default shingle overlap).
  uint32_t track_bytes = 1024 * 1024;

  // Number of *following* tracks damaged when a track is written.
  // A guard region therefore spans shingle_overlap_tracks tracks.
  uint32_t shingle_overlap_tracks = 4;

  // Reserved conventional (non-shingled) region at the front of the drive
  // for host metadata, like the conventional zones of real HM-SMR drives.
  // Writes there are absorbed by the drive's write cache: they are charged
  // command overhead and transfer only, and the head does not move (the
  // cache is unbounded for now, ROADMAP item 12).
  uint64_t conventional_bytes = 8ull * 1024 * 1024;

  uint64_t num_blocks() const { return capacity_bytes / block_bytes; }
  uint64_t num_tracks() const { return capacity_bytes / track_bytes; }

  uint64_t track_of(uint64_t offset) const { return offset / track_bytes; }
  uint64_t block_of(uint64_t offset) const { return offset / block_bytes; }

  bool aligned(uint64_t offset) const { return offset % block_bytes == 0; }

  // Size of a guard region in bytes (the paper reserves 4 MB).
  uint64_t guard_bytes() const {
    return static_cast<uint64_t>(shingle_overlap_tracks) * track_bytes;
  }
};

}  // namespace sealdb::smr
