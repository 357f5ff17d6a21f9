#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "smr/device_metrics.h"
#include "smr/drive.h"

namespace sealdb::smr {

namespace {

// Raw host-managed shingled disk (Caveat-Scriptor style, paper Sec. II-A):
// no fixed bands, writes allowed anywhere as long as they never damage
// valid data. Writing tracks [t0, t1] corrupts the next shingle_overlap
// tracks after t1, so the host must leave guard tracks when inserting
// before valid data. Violations are rejected with Corruption, which is the
// safety invariant SEALDB's dynamic band management must uphold.
class ShingledDiskImpl final : public ShingledDisk {
 public:
  ShingledDiskImpl(const Geometry& geo, const LatencyParams& lat,
                   std::shared_ptr<obs::MetricsRegistry> registry)
      : geo_(geo),
        media_(geo),
        latency_(lat, geo.capacity_bytes),
        met_(std::move(registry)) {}

  Status Read(uint64_t offset, uint64_t n, char* scratch) override {
    if (Status s = CheckRange(offset, n); !s.ok()) return s;
    std::lock_guard<std::mutex> l(mu_);
    if (latency_.head_position() != offset) met_.seeks->Inc();
    met_.busy->AddSeconds(latency_.Access(offset, n, /*is_write=*/false));
    met_.position->AddSeconds(latency_.last_position_seconds());
    media_.Read(offset, n, scratch);
    met_.read_ops->Inc();
    met_.logical_read->Add(n);
    met_.physical_read->Add(n);
    return Status::OK();
  }

  Status Write(uint64_t offset, const Slice& data) override {
    if (Status s = CheckRange(offset, data.size()); !s.ok()) return s;
    std::lock_guard<std::mutex> l(mu_);
    const uint64_t n = data.size();

    if (offset + n > geo_.conventional_bytes) {
      // Shingled region rules. (The conventional prefix is exempt.)
      const uint64_t shingled_begin =
          std::max(offset, geo_.conventional_bytes);
      const uint64_t shingled_len = offset + n - shingled_begin;

      // Rule 1: never overwrite valid data in place.
      if (media_.AnyValid(shingled_begin, shingled_len)) {
        met_.guard_violations->Inc();
        return Status::Corruption(
            "shingled write would overwrite valid data in place");
      }

      // Rule 2: the shingle overlap after the last written track must not
      // hold valid data; the host must have reserved a guard region there.
      const uint64_t last_track_end =
          ((offset + n - 1) / geo_.track_bytes + 1) * geo_.track_bytes;
      const uint64_t damage_end =
          std::min(geo_.capacity_bytes, last_track_end + geo_.guard_bytes());
      if (damage_end > offset + n &&
          media_.AnyValid(offset + n, damage_end - (offset + n))) {
        // Diagnostic aid for debugging allocator/placement bugs: set
        // SEALDB_DEBUG_SHINGLE=1 to dump the violating write and the
        // valid blocks inside its damage window.
        if (getenv("SEALDB_DEBUG_SHINGLE")) {
          fprintf(stderr,
                  "[shingle] write [%llu, +%llu) tracks [%llu,%llu] damage "
                  "window [%llu,%llu) has valid data; frontier_hint=%llu\n",
                  (unsigned long long)offset, (unsigned long long)n,
                  (unsigned long long)(offset / geo_.track_bytes),
                  (unsigned long long)((offset + n - 1) / geo_.track_bytes),
                  (unsigned long long)(offset + n),
                  (unsigned long long)damage_end,
                  (unsigned long long)frontier_hint_);
          for (uint64_t b = offset + n; b < damage_end; b += geo_.block_bytes) {
            if (media_.AnyValid(b, geo_.block_bytes))
              fprintf(stderr, "[shingle]   valid block at %llu (track %llu)\n",
                      (unsigned long long)b,
                      (unsigned long long)(b / geo_.track_bytes));
          }
        }
        met_.guard_violations->Inc();
        return Status::Corruption(
            "shingled write would damage valid data in following tracks");
      }
    }

    if (offset + n <= geo_.conventional_bytes) {
      // Metadata region: absorbed by the write cache.
      met_.busy->AddSeconds(latency_.AccessCached(n, /*is_write=*/true));
    } else {
      if (latency_.head_position() != offset) met_.seeks->Inc();
      met_.busy->AddSeconds(latency_.Access(offset, n, /*is_write=*/true));
      met_.position->AddSeconds(latency_.last_position_seconds());
    }
    media_.Write(offset, data);
    const uint64_t already_valid = media_.CountValidBytes(offset, n);
    media_.MarkValid(offset, n);
    valid_bytes_ += n - already_valid;
    frontier_hint_ = std::max(frontier_hint_, offset + n);
    met_.write_ops->Inc();
    met_.logical_write->Add(n);
    met_.physical_write->Add(n);
    return Status::OK();
  }

  Status Trim(uint64_t offset, uint64_t n) override {
    if (Status s = CheckRange(offset, n); !s.ok()) return s;
    std::lock_guard<std::mutex> l(mu_);
    valid_bytes_ -= media_.CountValidBytes(offset, n);
    media_.MarkInvalid(offset, n);
    return Status::OK();
  }

  const Geometry& geometry() const override { return geo_; }
  const DeviceMetrics& metrics() const override { return met_; }

  bool IsValid(uint64_t offset, uint64_t n) const override {
    std::lock_guard<std::mutex> l(mu_);
    return media_.AllValid(offset, n);
  }

  uint64_t valid_bytes() const override {
    std::lock_guard<std::mutex> l(mu_);
    return valid_bytes_;
  }

  uint64_t ValidFrontier() const override {
    std::lock_guard<std::mutex> l(mu_);
    return media_.ValidFrontier(0, frontier_hint_);
  }

 private:
  Status CheckRange(uint64_t offset, uint64_t n) const {
    if (!geo_.aligned(offset) || !geo_.aligned(n)) {
      return Status::InvalidArgument("unaligned drive access");
    }
    if (offset + n > geo_.capacity_bytes) {
      return Status::InvalidArgument("drive access beyond capacity");
    }
    return Status::OK();
  }

  Geometry geo_;
  // Serializes media/latency/validity state: with the sharded engine, N
  // independent FileStores issue I/O to this one drive concurrently. A
  // single real spindle serializes requests anyway, so a mutex is the
  // honest model, not a bottleneck.
  mutable std::mutex mu_;
  MediaStore media_;
  LatencyModel latency_;
  DeviceMetrics met_;
  uint64_t valid_bytes_ = 0;
  uint64_t frontier_hint_ = 0;
};

}  // namespace

std::unique_ptr<ShingledDisk> NewShingledDisk(
    const Geometry& geo, const LatencyParams& lat,
    std::shared_ptr<obs::MetricsRegistry> registry) {
  return std::make_unique<ShingledDiskImpl>(geo, lat, std::move(registry));
}

}  // namespace sealdb::smr
