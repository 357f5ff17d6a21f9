// FragmentGc — the garbage-collection supplement the paper leaves as
// future work (Sec. IV-C):
//
//   "these small fragments are quite difficult to be leveraged, thus
//    SEALDB needs alternative garbage collection policies as a
//    supplement. We leave it for our future work."
//
// Policy implemented here: when the fragment share of occupied space
// exceeds a threshold, find the set regions physically adjacent to small
// fragments and compact their key ranges. Compacting a set invalidates its
// members; when the set fades, the FileStore frees its whole region, which
// the dynamic band allocator coalesces with the neighbouring fragments
// into reusable space.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/band_inspector.h"
#include "core/dynamic_band_allocator.h"
#include "fs/file_store.h"
#include "lsm/db.h"

namespace sealdb::core {

struct FragmentGcOptions {
  // Run only when fragments exceed this share of occupied space.
  double fragment_share_trigger = 0.10;
  // Free regions at most this large count as fragments (the paper uses
  // the average set size).
  uint64_t fragment_threshold_bytes = 27ull << 20;
  // Upper bound on set regions compacted per Run() call.
  int max_sets_per_run = 4;
};

struct FragmentGcResult {
  bool triggered = false;
  double fragment_share_before = 0.0;
  double fragment_share_after = 0.0;
  int sets_compacted = 0;
  // Fragment bytes that were pinned by the compacted sets...
  uint64_t pinned_bytes_targeted = 0;
  // ...and how many of them became usable again (merged into a free
  // region larger than the fragment threshold, or un-banded back into
  // residual space).
  uint64_t pinned_bytes_reclaimed = 0;
};

class FragmentGc {
 public:
  FragmentGc(DB* db, fs::FileStore* store,
             const DynamicBandAllocator* allocator,
             const FragmentGcOptions& options)
      : db_(db), store_(store), allocator_(allocator), options_(options) {}

  // Inspect the layout and, if fragmented enough, compact the sets that
  // pin fragments in place. Synchronous; returns what happened.
  FragmentGcResult Run();

 private:
  // Set regions whose physical placement directly follows a fragment
  // (ordered by how much dead space they pin).
  struct Candidate {
    uint64_t set_id = 0;
    int level = 0;
    uint64_t pinned_bytes = 0;
    uint64_t fragment_offset = 0;  // the fragment preceding the region
    std::string smallest_key;
    std::string largest_key;
  };
  std::vector<Candidate> FindCandidates();

  DB* db_;
  fs::FileStore* store_;
  const DynamicBandAllocator* allocator_;
  FragmentGcOptions options_;
};

}  // namespace sealdb::core
