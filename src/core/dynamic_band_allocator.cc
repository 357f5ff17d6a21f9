#include "core/dynamic_band_allocator.h"

#include <algorithm>
#include <cassert>

namespace sealdb::core {

DynamicBandAllocator::DynamicBandAllocator(const DynamicBandOptions& opt)
    : opt_(opt), frontier_(opt.base) {
  assert(opt_.base % opt_.track_bytes == 0);
  assert(opt_.guard_bytes % opt_.track_bytes == 0);
  const uint64_t span = opt_.limit - opt_.base;
  num_classes_ = static_cast<int>(span / opt_.class_unit) + 2;
  // Cap the array: regions beyond the last class all share it.
  num_classes_ = std::min(num_classes_, 1 << 20);
  classes_.resize(num_classes_);

  if (opt_.metrics_registry != nullptr) {
    obs::MetricsRegistry& r = *opt_.metrics_registry;
    auto L = [this](obs::Labels labels = {}) {
      if (!opt_.metrics_shard_label.empty()) {
        labels.emplace_back("shard", opt_.metrics_shard_label);
      }
      return labels;
    };
    g_freelist_bytes_ = r.RegisterGauge("sealdb_band_freelist_bytes",
                                        "Bytes held in the free-space list",
                                        L());
    g_guard_bytes_ = r.RegisterGauge(
        "sealdb_band_guard_bytes",
        "Bytes dead as guard regions attached to allocations", L());
    g_frontier_bytes_ = r.RegisterGauge(
        "sealdb_band_frontier_bytes",
        "Start of the residual (never banded) space, absolute offset", L());
    for (int slot = 0; slot < kClassGaugeSlots; slot++) {
      std::string cls = std::to_string(slot + 1);
      if (slot == kClassGaugeSlots - 1) cls += "+";
      g_class_regions_[slot] = r.RegisterGauge(
          "sealdb_band_freelist_regions",
          "Free regions per size class (class N holds regions of N or more "
          "SSTable units)",
          L({{"class", cls}}));
    }
    c_inserts_ = r.RegisterCounter(
        "sealdb_band_alloc_total",
        "Allocations served by inserting into freed space vs appending at "
        "the frontier",
        L({{"kind", "insert"}}));
    c_appends_ = r.RegisterCounter(
        "sealdb_band_alloc_total",
        "Allocations served by inserting into freed space vs appending at "
        "the frontier",
        L({{"kind", "append"}}));
    SyncMetrics();
  }
}

void DynamicBandAllocator::SyncMetrics() {
  if (g_freelist_bytes_ == nullptr) return;
  g_freelist_bytes_->Set(static_cast<double>(free_bytes_));
  g_guard_bytes_->Set(static_cast<double>(guard_attached_));
  g_frontier_bytes_->Set(static_cast<double>(frontier_));
  uint64_t counts[kClassGaugeSlots] = {};
  for (int c : nonempty_classes_) {
    counts[std::min(c, kClassGaugeSlots - 1)] += classes_[c].size();
  }
  for (int slot = 0; slot < kClassGaugeSlots; slot++) {
    g_class_regions_[slot]->Set(static_cast<double>(counts[slot]));
  }
  c_inserts_->Add(inserts_ - synced_inserts_);
  c_appends_->Add(appends_ - synced_appends_);
  synced_inserts_ = inserts_;
  synced_appends_ = appends_;
}

int DynamicBandAllocator::ClassOf(uint64_t size) const {
  const uint64_t c = size / opt_.class_unit;
  return static_cast<int>(std::min<uint64_t>(c, num_classes_ - 1));
}

int DynamicBandAllocator::ClassCeil(uint64_t size) const {
  const uint64_t c = (size + opt_.class_unit - 1) / opt_.class_unit;
  return static_cast<int>(std::min<uint64_t>(c, num_classes_ - 1));
}

void DynamicBandAllocator::InsertFreeRegion(uint64_t offset, uint64_t length) {
  Region r;
  r.length = length;
  r.cls = ClassOf(length);
  classes_[r.cls].push_back(offset);
  r.pos = std::prev(classes_[r.cls].end());
  nonempty_classes_.insert(r.cls);
  by_offset_[offset] = r;
  free_bytes_ += length;
}

void DynamicBandAllocator::RemoveFreeRegion(
    std::map<uint64_t, Region>::iterator it) {
  const Region& r = it->second;
  classes_[r.cls].erase(r.pos);
  if (classes_[r.cls].empty()) nonempty_classes_.erase(r.cls);
  free_bytes_ -= r.length;
  by_offset_.erase(it);
}

Status DynamicBandAllocator::Allocate(uint64_t size, fs::Extent* out) {
  Status s = AllocateImpl(size, /*force_guard=*/false, out);
  SyncMetrics();
  return s;
}

Status DynamicBandAllocator::AllocateGuarded(uint64_t size, fs::Extent* out) {
  // Append-mode files keep writing their extent long after later
  // allocations may land immediately behind it, so the shingle window
  // after the extent must stay dead for the extent's lifetime.
  Status s = AllocateImpl(size, /*force_guard=*/true, out);
  SyncMetrics();
  return s;
}

Status DynamicBandAllocator::AllocateNear(uint64_t size, uint64_t goal,
                                          fs::Extent* out) {
  // Dynamic bands place by free-list policy, not goal blocks; what matters
  // for a growing file is the guard (see header).
  (void)goal;
  Status s = AllocateImpl(size, /*force_guard=*/true, out);
  SyncMetrics();
  return s;
}

Status DynamicBandAllocator::AllocateImpl(uint64_t size, bool force_guard,
                                          fs::Extent* out) {
  if (!finalized_) FinalizeReserves();
  if (size == 0) return Status::InvalidArgument("zero-size allocation");
  const uint64_t need = RoundToTrack(size);
  const uint64_t guard = opt_.guard_bytes;

  // Binary search of the class array for a free region satisfying Eq. 1
  // (S_free >= S_req + S_guard), taking the first region in the class list.
  auto cls_it = nonempty_classes_.lower_bound(ClassCeil(need + guard));
  if (cls_it != nonempty_classes_.end()) {
    const int cls = *cls_it;
    const uint64_t offset = classes_[cls].front();
    auto it = by_offset_.find(offset);
    assert(it != by_offset_.end());
    const uint64_t region_len = it->second.length;
    assert(region_len >= need + guard);
    RemoveFreeRegion(it);

    const uint64_t surplus = region_len - need;
    out->offset = offset;
    out->length = need;
    if (surplus < guard + opt_.track_bytes) {
      // Exact fit (within one track of slack): the whole remainder becomes
      // this allocation's guard region.
      out->guard = surplus;
      guard_attached_ += surplus;
    } else if (force_guard) {
      // Keep a full guard attached; the rest returns to the free list.
      out->guard = guard;
      guard_attached_ += guard;
      InsertFreeRegion(offset + need + guard, surplus - guard);
    } else {
      // Split: data region plus a residual free region. The free region is
      // itself the shingle separation, so no guard is consumed.
      out->guard = 0;
      InsertFreeRegion(offset + need, surplus);
    }
    allocated_ += need;
    inserts_++;
    return Status::OK();
  }

  // No suitable free region: append at the tail of valid data, in the
  // non-banded residual space. Appends damage nothing ahead, so completed
  // writes need no guard; append-mode extents still reserve one because
  // later allocations will land directly behind them.
  const uint64_t tail_guard = force_guard ? guard : 0;
  if (frontier_ + need + tail_guard > opt_.limit) {
    return Status::NoSpace("dynamic band space exhausted");
  }
  out->offset = frontier_;
  out->length = need;
  out->guard = tail_guard;
  guard_attached_ += tail_guard;
  frontier_ += need + tail_guard;
  allocated_ += need;
  appends_++;
  return Status::OK();
}

void DynamicBandAllocator::ReleaseRange(uint64_t offset, uint64_t length) {
  if (length == 0) return;

  // Coalesce with a free predecessor.
  auto next = by_offset_.lower_bound(offset);
  if (next != by_offset_.begin()) {
    auto prev = std::prev(next);
    assert(prev->first + prev->second.length <= offset);
    if (prev->first + prev->second.length == offset) {
      offset = prev->first;
      length += prev->second.length;
      RemoveFreeRegion(prev);
    }
  }
  // Coalesce with a free successor.
  next = by_offset_.lower_bound(offset);
  if (next != by_offset_.end() && offset + length == next->first) {
    length += next->second.length;
    RemoveFreeRegion(next);
  }

  // A region reaching the residual frontier un-bands: the frontier moves
  // back and the space returns to the non-banded pool.
  if (offset + length == frontier_) {
    frontier_ = offset;
    return;
  }

  InsertFreeRegion(offset, length);
}

Status DynamicBandAllocator::Free(const fs::Extent& e) {
  if (!finalized_) FinalizeReserves();
  // Validate before touching any state: allocated extents always lie below
  // the frontier, and a release overlapping a region already on the free
  // list is a double free. Both come back typed so the FileStore can count
  // them instead of the old assert corrupting the band accounting.
  const uint64_t total = e.length + e.guard;
  if (total == 0) return Status::OK();
  if (e.offset < opt_.base || e.offset + total > frontier_) {
    return Status::InvalidArgument("free outside allocated space");
  }
  auto next = by_offset_.lower_bound(e.offset);
  if (next != by_offset_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second.length > e.offset) {
      return Status::InvalidArgument("double free: range already free");
    }
  }
  if (next != by_offset_.end() && e.offset + total > next->first) {
    return Status::InvalidArgument("double free: range already free");
  }
  allocated_ -= e.length;
  guard_attached_ -= e.guard;
  ReleaseRange(e.offset, total);
  SyncMetrics();
  return Status::OK();
}

void DynamicBandAllocator::Shrink(fs::Extent* e, uint64_t new_length) {
  if (!finalized_) FinalizeReserves();
  const uint64_t keep = RoundToTrack(new_length);
  assert(keep <= e->length);
  if (keep == e->length) {
    if (e->guard == 0) return;
    // Exactly-full extent of a file being closed: it will never be written
    // again, so its trailing shingle guard returns to the free pool.
    guard_attached_ -= e->guard;
    ReleaseRange(e->offset + e->length, e->guard);
    e->guard = 0;
    SyncMetrics();
    return;
  }
  const uint64_t tail = e->length - keep + e->guard;
  allocated_ -= e->length - keep;
  guard_attached_ -= e->guard;
  ReleaseRange(e->offset + keep, tail);
  e->length = keep;
  e->guard = 0;
  SyncMetrics();
}

Status DynamicBandAllocator::Reserve(const fs::Extent& e) {
  if (e.offset < opt_.base || e.end_with_guard() > opt_.limit) {
    return Status::InvalidArgument("reserve outside managed space");
  }
  pending_reserves_.push_back(e);
  finalized_ = false;
  return Status::OK();
}

void DynamicBandAllocator::FinalizeReserves() {
  finalized_ = true;
  std::sort(pending_reserves_.begin(), pending_reserves_.end(),
            [](const fs::Extent& a, const fs::Extent& b) {
              return a.offset < b.offset;
            });
  uint64_t cursor = opt_.base;
  for (const fs::Extent& e : pending_reserves_) {
    assert(e.offset >= cursor && "overlapping reserves");
    if (e.offset > cursor) {
      InsertFreeRegion(cursor, e.offset - cursor);
    }
    allocated_ += e.length;
    guard_attached_ += e.guard;
    cursor = e.end_with_guard();
  }
  frontier_ = RoundToTrack(cursor);
  pending_reserves_.clear();
}

std::vector<DynamicBandAllocator::FreeRegionInfo>
DynamicBandAllocator::FreeRegions() const {
  std::vector<FreeRegionInfo> out;
  out.reserve(by_offset_.size());
  for (const auto& [offset, region] : by_offset_) {
    out.push_back({offset, region.length});
  }
  return out;
}

bool DynamicBandAllocator::CheckInvariants(std::string* why) const {
  uint64_t prev_end = opt_.base;
  uint64_t total_free = 0;
  uint64_t prev_offset = 0;
  bool first = true;
  for (const auto& [offset, region] : by_offset_) {
    if (offset < prev_end) {
      *why = "free regions overlap";
      return false;
    }
    if (!first && offset == prev_end && prev_offset != offset) {
      *why = "adjacent free regions not coalesced";
      return false;
    }
    if (offset + region.length > frontier_) {
      *why = "free region beyond residual frontier";
      return false;
    }
    if (region.cls != ClassOf(region.length)) {
      *why = "region filed in wrong size class";
      return false;
    }
    if (*region.pos != offset) {
      *why = "class list back-pointer mismatch";
      return false;
    }
    total_free += region.length;
    prev_end = offset + region.length;
    prev_offset = offset;
    first = false;
  }
  if (total_free != free_bytes_) {
    *why = "free byte accounting mismatch";
    return false;
  }
  for (int c = 0; c < num_classes_; c++) {
    const bool listed = nonempty_classes_.count(c) > 0;
    if (listed != !classes_[c].empty()) {
      *why = "nonempty-class index out of sync";
      return false;
    }
    for (uint64_t off : classes_[c]) {
      auto it = by_offset_.find(off);
      if (it == by_offset_.end() || it->second.cls != c) {
        *why = "class list references unknown region";
        return false;
      }
    }
  }
  return true;
}

}  // namespace sealdb::core
