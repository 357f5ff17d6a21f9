#include <algorithm>

#include "smr/drive.h"

namespace sealdb::smr {

namespace {

// Raw host-managed shingled disk (Caveat-Scriptor style, paper Sec. II-A):
// no fixed bands, writes allowed anywhere as long as they never damage
// valid data. Writing tracks [t0, t1] corrupts the next shingle_overlap
// tracks after t1, so the host must leave guard tracks when inserting
// before valid data. Violations are rejected with Corruption, which is the
// safety invariant SEALDB's dynamic band management must uphold.
class ShingledDisk final : public DriveCore {
 public:
  using DriveCore::DriveCore;

 private:
  Status WriteLocked(uint64_t offset, const Slice& data) override {
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
        met_.guard_violations->Inc();
        return Status::Corruption(
            "shingled write would damage valid data in following tracks");
      }
    }
    WritePlain(offset, data);
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Drive> NewShingledDisk(
    const Geometry& geo, const LatencyParams& lat,
    std::shared_ptr<obs::MetricsRegistry> registry) {
  return std::make_unique<ShingledDisk>(geo, lat, std::move(registry));
}

}  // namespace sealdb::smr
