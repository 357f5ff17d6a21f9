#include <algorithm>
#include <cassert>
#include <mutex>
#include <vector>

#include "smr/device_metrics.h"
#include "smr/drive.h"

namespace sealdb::smr {

namespace {

// Fixed-band SMR drive. Bands start after the conventional region; each
// band has a write pointer. Appending at the pointer is a plain write; any
// write that would shingle over valid data later in the band triggers a
// band read-modify-write, which is exactly the auxiliary write
// amplification (AWA) the paper measures in Figs. 3 and 12.
class FixedBandDriveImpl final : public FixedBandDrive {
 public:
  FixedBandDriveImpl(const Geometry& geo, const LatencyParams& lat,
                     const FixedBandOptions& opt,
                     std::shared_ptr<obs::MetricsRegistry> registry)
      : geo_(geo),
        band_bytes_(opt.band_bytes),
        media_(geo),
        latency_(lat, geo.capacity_bytes),
        met_(std::move(registry)) {
    assert(band_bytes_ % geo_.block_bytes == 0);
    const uint64_t shingled = geo_.capacity_bytes - geo_.conventional_bytes;
    write_pointers_.assign((shingled + band_bytes_ - 1) / band_bytes_, 0);
  }

  Status Read(uint64_t offset, uint64_t n, char* scratch) override {
    if (Status s = CheckRange(offset, n); !s.ok()) return s;
    std::lock_guard<std::mutex> l(mu_);
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
    met_.write_ops->Inc();
    met_.logical_write->Add(data.size());

    // Split the request at band boundaries; each piece is served by the
    // band it falls in.
    uint64_t pos = offset;
    const char* src = data.data();
    uint64_t remaining = data.size();
    while (remaining > 0) {
      uint64_t piece;
      if (pos < geo_.conventional_bytes) {
        piece = std::min(remaining, geo_.conventional_bytes - pos);
        WriteConventional(pos, Slice(src, piece));
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

  Status Trim(uint64_t offset, uint64_t n) override {
    if (Status s = CheckRange(offset, n); !s.ok()) return s;
    std::lock_guard<std::mutex> l(mu_);
    if (open_band_ >= 0) FlushOpenBand();
    media_.MarkInvalid(offset, n);
    // Reset write pointers of bands that no longer hold any valid data so
    // they can be sequentially reused (zone reset).
    if (offset + n > geo_.conventional_bytes) {
      const uint64_t first =
          BandOf(std::max(offset, geo_.conventional_bytes));
      const uint64_t last = BandOf(offset + n - 1);
      for (uint64_t b = first; b <= last; b++) {
        if (!media_.AnyValid(BandStart(b), BandLength(b))) {
          write_pointers_[b] = 0;
        }
      }
    }
    return Status::OK();
  }

  const Geometry& geometry() const override { return geo_; }
  const DeviceMetrics& metrics() const override { return met_; }

  bool IsValid(uint64_t offset, uint64_t n) const override {
    std::lock_guard<std::mutex> l(mu_);
    return media_.AllValid(offset, n);
  }

  uint64_t num_zones() const override { return write_pointers_.size(); }

  ZoneInfo Zone(uint64_t index) const override {
    std::lock_guard<std::mutex> l(mu_);
    const_cast<FixedBandDriveImpl*>(this)->FlushOpenBandIfAny();
    ZoneInfo z;
    z.start = BandStart(index);
    z.length = BandLength(index);
    z.write_pointer = write_pointers_[index];
    return z;
  }

 private:
  uint64_t BandOf(uint64_t offset) const {
    assert(offset >= geo_.conventional_bytes);
    return (offset - geo_.conventional_bytes) / band_bytes_;
  }
  uint64_t BandStart(uint64_t band) const {
    return geo_.conventional_bytes + band * band_bytes_;
  }
  uint64_t BandLength(uint64_t band) const {
    return std::min(band_bytes_, geo_.capacity_bytes - BandStart(band));
  }

  void WriteConventional(uint64_t offset, const Slice& data) {
    // Conventional (metadata) region: absorbed by the write cache.
    met_.busy->AddSeconds(
        latency_.AccessCached(data.size(), /*is_write=*/true));
    media_.Write(offset, data);
    media_.MarkValid(offset, data.size());
    met_.physical_write->Add(data.size());
  }

  // A band with a buffered read-modify-write in flight. The translation
  // layer reads the band once, applies any number of updates in memory,
  // and writes the band back once (on switching to another band, or when
  // the band is read or trimmed). Charging one RMW per modified band —
  // instead of one per 4 KB write — matches how the paper measures AWA
  // (Fig. 3: one band rewrite per band involved in a compaction).
  void FlushOpenBandIfAny() {
    if (open_band_ >= 0) FlushOpenBand();
  }

  void FlushOpenBand() {
    assert(open_band_ >= 0);
    const uint64_t band = static_cast<uint64_t>(open_band_);
    const uint64_t start = BandStart(band);
    met_.seeks->Inc();
    met_.busy->AddSeconds(
        latency_.Access(start, open_salvage_, /*is_write=*/true));
    met_.position->AddSeconds(latency_.last_position_seconds());
    met_.physical_write->Add(open_salvage_);
    write_pointers_[band] = std::max(write_pointers_[band], open_salvage_);
    open_band_ = -1;
    open_salvage_ = 0;
  }

  void WriteBand(uint64_t band, uint64_t offset, const Slice& data) {
    const uint64_t start = BandStart(band);
    const uint64_t rel = offset - start;
    const uint64_t end_rel = rel + data.size();
    uint64_t& wp = write_pointers_[band];

    if (open_band_ == static_cast<int64_t>(band)) {
      // Band already staged in the translation layer: apply in memory.
      media_.Write(offset, data);
      media_.MarkValid(offset, data.size());
      open_salvage_ = std::max(open_salvage_, end_rel);
      return;
    }
    if (open_band_ >= 0) FlushOpenBand();

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
      if (latency_.head_position() != offset) met_.seeks->Inc();
      met_.busy->AddSeconds(
          latency_.Access(offset, data.size(), /*is_write=*/true));
      met_.position->AddSeconds(latency_.last_position_seconds());
      media_.Write(offset, data);
      media_.MarkValid(offset, data.size());
      met_.physical_write->Add(data.size());
      wp = std::max(wp, end_rel);
      return;
    }

    // Stage a read-modify-write: read the valid prefix [start, start+wp)
    // now, buffer updates, write back when the band closes.
    met_.rmw_ops->Inc();
    met_.seeks->Inc();
    const uint64_t salvage = std::max(wp, end_rel);
    met_.busy->AddSeconds(latency_.Access(start, wp, /*is_write=*/false));
    met_.position->AddSeconds(latency_.last_position_seconds());
    met_.physical_read->Add(wp);
    media_.Write(offset, data);
    media_.MarkValid(offset, data.size());
    open_band_ = static_cast<int64_t>(band);
    open_salvage_ = salvage;
  }

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
  uint64_t band_bytes_;
  // Serializes media/latency/band state for concurrent shard I/O.
  mutable std::mutex mu_;
  MediaStore media_;
  LatencyModel latency_;
  DeviceMetrics met_;
  std::vector<uint64_t> write_pointers_;  // relative, one per band

  // Staged band modification (see FlushOpenBand).
  int64_t open_band_ = -1;
  uint64_t open_salvage_ = 0;
};

}  // namespace

std::unique_ptr<FixedBandDrive> NewFixedBandDrive(
    const Geometry& geo, const LatencyParams& lat, const FixedBandOptions& opt,
    std::shared_ptr<obs::MetricsRegistry> registry) {
  return std::make_unique<FixedBandDriveImpl>(geo, lat, opt,
                                              std::move(registry));
}

}  // namespace sealdb::smr
