// Offline consistency checker ("sealdb_doctor") for the FileStore's
// on-media metadata.
//
// The doctor parses the drive contents *independently* of the FileStore
// implementation — its own checkpoint/journal reader, its own state
// decoder — so a bug in the store's recovery path cannot hide the
// corruption it caused. Checks, per shard column:
//
//   - shard superblock (multi-shard layouts): present, matching count;
//   - checkpoint slots: at least one valid slot, damaged slots reported;
//   - journal: records parse, sequence numbers chain from the checkpoint
//     through its own log (and on through a damaged slot's log, as
//     FileStore::Recover replays it);
//   - extent cross-consistency: every extent lies inside the shard's
//     conventional pool or shingled data slice; no two live allocations
//     (standalone files, set regions) overlap; region-carved files stay
//     inside their region; no file references an unknown region;
//   - live data: every block of each live file's written prefix (its size
//     rounded up to blocks) is valid on the drive (Drive::IsValid), so no
//     trim, by any shard, has dropped data the metadata still references;
//   - orphaned regions: regions holding no live file. Replay releases a
//     region with the record that removes its last file, and an empty
//     region is released by a journaled seal, so on a store at rest this
//     is 0; a nonzero count is a region leaked by a compaction that
//     crashed or failed between allocating its set region and writing or
//     removing its tables (benign — recovery reclaims it — but reported).
//
// From the surviving extents the doctor re-derives the data-slice free
// map the allocator would build at recovery (SMORE-style: free = slice
// minus live extents), which is exactly what the overlap checks protect.
//
// With `repair` set, the doctor writes back a reconciled state: files
// with out-of-range or double-allocated extents are dropped (newest
// first, since the older allocation owned the range first), orphaned
// regions are released, and both checkpoint slots are rewritten with a
// sequence number past every surviving journal record so stale log
// entries cannot resurrect the dropped state. After a successful repair
// FileStore::Recover() derives a clean free map from the live extents.
//
// Drives are process-local simulations, so the doctor is a library first
// (tests and the crash sweep call RunDoctor on a recovered stack's drive)
// and a demo binary second (tools/doctor_main.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "smr/drive.h"
#include "util/status.h"

namespace sealdb::fs {

struct DoctorOptions {
  // Shard columns the drive was formatted with (the shard layout's
  // superblock is verified against this).
  int num_shards = 1;
  // Shingled-slice alignment of the shard layout (track size for the
  // SEALDB stack); must match the value the stack formatted with.
  uint64_t alignment = 0;  // 0 = the drive's track size
  // Attempt to fix what --check found (see file header).
  bool repair = false;
};

// One shard column's findings.
struct ShardDoctorReport {
  int shard = 0;
  // Inventory of the recovered metadata.
  uint64_t files = 0;
  uint64_t regions = 0;
  uint64_t journal_records = 0;   // replayed past the checkpoint
  uint64_t live_bytes = 0;        // extent bytes (with guards) in use
  uint64_t free_bytes = 0;        // re-derived data-slice free space
  int damaged_checkpoint_slots = 0;
  uint64_t orphaned_regions = 0;  // regions holding no live file (header)
  // Fatal inconsistencies (store must not be trusted until repaired) and
  // benign notes.
  std::vector<std::string> errors;
  std::vector<std::string> warnings;
  // Repair actions taken (repair mode only).
  uint64_t dropped_files = 0;
  uint64_t dropped_regions = 0;
  bool rewrote_checkpoints = false;
};

struct DoctorReport {
  std::vector<ShardDoctorReport> shards;
  std::vector<std::string> errors;  // whole-drive problems (superblock)

  bool ok() const {
    if (!errors.empty()) return false;
    for (const auto& s : shards) {
      if (!s.errors.empty()) return false;
    }
    return true;
  }
  std::string ToString() const;
};

// Check (and with options.repair, fix) the store metadata on `drive`.
// Returns non-OK only when the doctor itself cannot run (unreadable
// superblock areas in repair mode, write failures); findings — including
// fatal corruption — land in *report with Status::OK().
Status RunDoctor(smr::Drive* drive, const DoctorOptions& options,
                 DoctorReport* report);

}  // namespace sealdb::fs
