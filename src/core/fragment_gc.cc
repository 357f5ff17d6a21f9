#include "core/fragment_gc.h"

#include <algorithm>
#include <map>

namespace sealdb::core {

std::vector<FragmentGc::Candidate> FragmentGc::FindCandidates() {
  // Physical map: region start -> set span, built from the live files'
  // placement (files of one set share one region; region id == set id).
  struct SetSpan {
    uint64_t begin = UINT64_MAX;
    uint64_t end = 0;
    int level = 0;
    std::string smallest, largest;
  };
  std::map<uint64_t, SetSpan> sets;          // set_id -> span
  std::map<uint64_t, uint64_t> span_starts;  // physical begin -> set_id

  for (const LiveFileMeta& f : db_->GetLiveFilesMetadata()) {
    if (f.set_id == 0) continue;
    fs::Extent region;
    if (!store_->GetRegionExtent(f.set_id, &region).ok()) continue;
    SetSpan& span = sets[f.set_id];
    span.begin = region.offset;
    span.end = region.end_with_guard();
    span.level = f.level;
    if (span.smallest.empty() || f.smallest_user_key < span.smallest) {
      span.smallest = f.smallest_user_key;
    }
    if (f.largest_user_key > span.largest) {
      span.largest = f.largest_user_key;
    }
    span_starts[region.offset] = f.set_id;
  }

  // For every fragment, charge its size to the set region that starts
  // right after it (the set pinning the fragment in place), if retiring
  // that set reclaims the fragment: the fragment and the region together
  // must outgrow the threshold. Free space after the region does not
  // count, as the retiring compaction places its output set before it
  // frees its inputs and may place it there. A region ending at the
  // residual frontier does not un-band either, for the same reason.
  struct Pin {
    uint64_t bytes = 0;
    uint64_t fragment_offset = 0;
  };
  const std::vector<DynamicBandAllocator::FreeRegionInfo> free_regions =
      allocator_->FreeRegions();
  std::map<uint64_t, Pin> pinned;  // set_id -> pin
  for (const auto& fr : free_regions) {
    if (fr.length > options_.fragment_threshold_bytes) continue;
    auto it = span_starts.lower_bound(fr.offset + fr.length);
    if (it == span_starts.end() || it->first != fr.offset + fr.length) {
      continue;
    }
    const SetSpan& span = sets[it->second];
    const uint64_t run = fr.length + (span.end - span.begin);
    if (run <= options_.fragment_threshold_bytes) continue;
    Pin& pin = pinned[it->second];
    pin.bytes += fr.length;
    pin.fragment_offset = fr.offset;
  }

  std::vector<Candidate> candidates;
  for (const auto& [set_id, pin] : pinned) {
    auto it = sets.find(set_id);
    if (it == sets.end()) continue;
    Candidate c;
    c.set_id = set_id;
    c.level = it->second.level;
    c.pinned_bytes = pin.bytes;
    c.fragment_offset = pin.fragment_offset;
    c.smallest_key = it->second.smallest;
    c.largest_key = it->second.largest;
    candidates.push_back(std::move(c));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.pinned_bytes > b.pinned_bytes;
            });
  return candidates;
}

FragmentGcResult FragmentGc::Run() {
  FragmentGcResult result;
  BandInspector inspector(allocator_);
  const FragmentReport before =
      inspector.Fragments(options_.fragment_threshold_bytes);
  result.fragment_share_before = before.fragment_fraction();
  if (result.fragment_share_before < options_.fragment_share_trigger) {
    return result;
  }
  result.triggered = true;

  auto candidates = FindCandidates();
  std::vector<uint64_t> fragment_offsets;
  for (const Candidate& c : candidates) {
    if (result.sets_compacted >= options_.max_sets_per_run) break;
    // Retire exactly this set: compact its level's files over its range
    // into the next level. When every member is gone the FileStore frees
    // the region, and the allocator coalesces it with the fragment.
    const Slice begin(c.smallest_key);
    const Slice end(c.largest_key);
    db_->CompactLevelRange(c.level, &begin, &end);
    result.sets_compacted++;
    result.pinned_bytes_targeted += c.pinned_bytes;
    fragment_offsets.push_back(c.fragment_offset);
  }
  db_->WaitForIdle();

  // A targeted fragment counts as reclaimed when it is no longer a small
  // free region: either merged into a free region above the threshold or
  // un-banded into residual space (past the frontier).
  auto free_regions = allocator_->FreeRegions();
  for (size_t i = 0; i < fragment_offsets.size(); i++) {
    const uint64_t off = fragment_offsets[i];
    bool still_fragment = false;
    for (const auto& fr : free_regions) {
      if (off >= fr.offset && off < fr.offset + fr.length) {
        still_fragment = fr.length <= options_.fragment_threshold_bytes;
        break;
      }
    }
    if (!still_fragment) {
      result.pinned_bytes_reclaimed += candidates[i].pinned_bytes;
    }
  }

  const FragmentReport after =
      inspector.Fragments(options_.fragment_threshold_bytes);
  result.fragment_share_after = after.fragment_fraction();
  return result;
}

}  // namespace sealdb::core
