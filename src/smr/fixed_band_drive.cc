#include <algorithm>
#include <cassert>

#include "smr/drive.h"

namespace sealdb::smr {

FixedBandDrive::FixedBandDrive(const Geometry& geo, const LatencyParams& lat,
                               const FixedBandOptions& opt,
                               std::shared_ptr<obs::MetricsRegistry> registry)
    : DriveCore(geo, lat, std::move(registry)), band_bytes_(opt.band_bytes) {
  assert(band_bytes_ % geo_.block_bytes == 0);
  const uint64_t shingled = geo_.capacity_bytes - geo_.conventional_bytes;
  write_pointers_.assign((shingled + band_bytes_ - 1) / band_bytes_, 0);
}

FixedBandDrive::ZoneInfo FixedBandDrive::Zone(uint64_t index) {
  std::lock_guard<std::mutex> l(mu_);
  FlushOpenBand();
  ZoneInfo z;
  z.start = BandStart(index);
  z.length = BandLength(index);
  z.write_pointer = write_pointers_[index];
  return z;
}

void FixedBandDrive::BeforeReadLocked(uint64_t offset, uint64_t n) {
  // Reading a band with a pending buffered modification forces the
  // write-back first (the translation layer cleans before serving).
  if (open_band_ >= 0 && offset + n > geo_.conventional_bytes &&
      offset < geo_.capacity_bytes) {
    const uint64_t begin = std::max(offset, geo_.conventional_bytes);
    if (BandOf(begin) == static_cast<uint64_t>(open_band_) ||
        BandOf(offset + n - 1) == static_cast<uint64_t>(open_band_)) {
      FlushOpenBand();
    }
  }
}

Status FixedBandDrive::WriteLocked(uint64_t offset, const Slice& data) {
  // Split the request at band boundaries; each piece is served by the
  // band it falls in. The conventional (metadata) region takes plain
  // writes.
  uint64_t pos = offset;
  const char* src = data.data();
  uint64_t remaining = data.size();
  while (remaining > 0) {
    uint64_t piece;
    if (pos < geo_.conventional_bytes) {
      piece = std::min(remaining, geo_.conventional_bytes - pos);
      WritePlain(pos, Slice(src, piece));
    } else {
      const uint64_t band = BandOf(pos);
      const uint64_t band_end = BandStart(band) + BandLength(band);
      piece = std::min(remaining, band_end - pos);
      WriteBand(band, pos, Slice(src, piece));
    }
    pos += piece;
    src += piece;
    remaining -= piece;
  }
  return Status::OK();
}

void FixedBandDrive::TrimLocked(uint64_t offset, uint64_t n) {
  FlushOpenBand();
  DriveCore::TrimLocked(offset, n);
  // Reset write pointers of bands that no longer hold any valid data so
  // they can be sequentially reused (zone reset).
  if (offset + n > geo_.conventional_bytes) {
    const uint64_t first = BandOf(std::max(offset, geo_.conventional_bytes));
    const uint64_t last = BandOf(offset + n - 1);
    for (uint64_t b = first; b <= last; b++) {
      if (!media_.AnyValid(BandStart(b), BandLength(b))) {
        write_pointers_[b] = 0;
      }
    }
  }
}

uint64_t FixedBandDrive::BandOf(uint64_t offset) const {
  assert(offset >= geo_.conventional_bytes);
  return (offset - geo_.conventional_bytes) / band_bytes_;
}

uint64_t FixedBandDrive::BandStart(uint64_t band) const {
  return geo_.conventional_bytes + band * band_bytes_;
}

uint64_t FixedBandDrive::BandLength(uint64_t band) const {
  return std::min(band_bytes_, geo_.capacity_bytes - BandStart(band));
}

// A band with a buffered read-modify-write in flight. The translation
// layer reads the band once, applies any number of updates in memory, and
// writes the band back once (on switching to another band, or when the
// band is read or trimmed). Charging one RMW per modified band — instead of
// one per 4 KB write — matches how the paper measures AWA (Fig. 3: one band
// rewrite per band involved in a compaction).
void FixedBandDrive::FlushOpenBand() {
  if (open_band_ < 0) return;
  const uint64_t band = static_cast<uint64_t>(open_band_);
  ChargeAccess(BandStart(band), open_salvage_, /*is_write=*/true);
  met_.physical_write->Add(open_salvage_);
  write_pointers_[band] = std::max(write_pointers_[band], open_salvage_);
  open_band_ = -1;
  open_salvage_ = 0;
}

void FixedBandDrive::WriteBand(uint64_t band, uint64_t offset,
                               const Slice& data) {
  const uint64_t start = BandStart(band);
  const uint64_t end_rel = offset - start + data.size();
  uint64_t& wp = write_pointers_[band];

  if (open_band_ == static_cast<int64_t>(band)) {
    // Band already staged in the translation layer: apply in memory.
    Place(offset, data);
    open_salvage_ = std::max(open_salvage_, end_rel);
    return;
  }
  FlushOpenBand();

  // Would this write shingle over valid data later in the band? Writing
  // the blocks ending at end_rel corrupts up to shingle_overlap tracks
  // beyond the last written track.
  const uint64_t last_track_end =
      ((offset + data.size() - 1) / geo_.track_bytes + 1) * geo_.track_bytes;
  const uint64_t damage_end = std::min(
      start + BandLength(band), last_track_end + geo_.guard_bytes());
  const bool damages_valid =
      damage_end > offset + data.size() &&
      media_.AnyValid(offset + data.size(), damage_end - (offset + data.size()));

  if (!damages_valid) {
    // Safe in-order (or gap-skipping) write.
    WritePlain(offset, data);
    wp = std::max(wp, end_rel);
    return;
  }

  // Stage a read-modify-write: read the valid prefix [start, start+wp)
  // now, buffer updates, write back when the band closes.
  met_.rmw_ops->Inc();
  ChargeAccess(start, wp, /*is_write=*/false);
  met_.physical_read->Add(wp);
  Place(offset, data);
  open_band_ = static_cast<int64_t>(band);
  open_salvage_ = std::max(wp, end_rel);
}

std::unique_ptr<FixedBandDrive> NewFixedBandDrive(
    const Geometry& geo, const LatencyParams& lat, const FixedBandOptions& opt,
    std::shared_ptr<obs::MetricsRegistry> registry) {
  return std::make_unique<FixedBandDrive>(geo, lat, opt, std::move(registry));
}

}  // namespace sealdb::smr
