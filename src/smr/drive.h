// Drive: the simulated block device interface all storage backends sit on.
//
// Three models reproduce the paper's device matrix. They share one core,
// DriveCore: it owns the media image, the head (LatencyModel), the traffic
// counters and the one mutex that serializes requests like a single
// spindle; it checks ranges, serves reads and trims, and turns every media
// access into device time through exactly two charge functions. A model
// adds only its write policy:
//  - NewHddDrive      DriveCore itself: a conventional drive that takes any
//                     aligned write in place (Fig. 2 baseline, Table II
//                     "HDD")
//  - FixedBandDrive   drive-managed-style SMR with fixed bands; in-place
//                     writes trigger a band read-modify-write, producing the
//                     auxiliary write amplification of Figs. 3 and 12
//  - NewShingledDisk  raw host-managed SMR (no fixed bands) that rejects any
//                     write damaging valid data; SEALDB's dynamic bands run
//                     on this model
// FaultInjectionDrive wraps any Drive.
//
// All offsets/lengths are bytes and must be block-aligned. Time is simulated
// (see LatencyModel); metrics() exposes logical vs physical traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "smr/device_metrics.h"
#include "smr/geometry.h"
#include "smr/latency_model.h"
#include "util/slice.h"
#include "util/status.h"

namespace sealdb::smr {

class Drive {
 public:
  virtual ~Drive() = default;

  virtual Status Read(uint64_t offset, uint64_t n, char* scratch) = 0;
  virtual Status Write(uint64_t offset, const Slice& data) = 0;

  // Declare [offset, offset+n) invalid. Every model discards the contents:
  // trimmed blocks read as zeros and their memory leaves the drive image.
  // Real drives vary (some return the old bytes until the blocks are
  // rewritten); zeroing is the strictest model, so a host that reads back
  // anything it trimmed finds out here.
  virtual Status Trim(uint64_t offset, uint64_t n) = 0;

  virtual const Geometry& geometry() const = 0;
  uint64_t capacity() const { return geometry().capacity_bytes; }

  // The drive's traffic counters. They live in a MetricsRegistry (the one
  // passed to the factory, or a private one) as the sealdb_device_* family;
  // read them directly or through that registry.
  virtual const DeviceMetrics& metrics() const = 0;

  // True iff every block of [offset, offset+n) holds valid data.
  virtual bool IsValid(uint64_t offset, uint64_t n) const = 0;
};

// Sparse in-memory backing store shared by the drive models, with per-block
// validity tracking. Not a Drive itself; a mechanism, not a policy.
//
// The image is held in chunks of 64 blocks, one per valid-map word. A chunk
// exists only while one of its blocks is valid: MarkInvalid zeroes the
// blocks it invalidates and gives up a chunk left with none, so memory
// follows live data, not the span ever written. Blocks outside any chunk
// read as zeros.
class MediaStore {
 public:
  MediaStore(const Geometry& geo);

  void Write(uint64_t offset, const Slice& data);
  void Read(uint64_t offset, uint64_t n, char* scratch) const;

  void MarkValid(uint64_t offset, uint64_t n);
  // Costs one valid-map word per chunk in range, plus a memset for each
  // kept chunk that held valid blocks in it.
  void MarkInvalid(uint64_t offset, uint64_t n);
  bool AllValid(uint64_t offset, uint64_t n) const;
  bool AnyValid(uint64_t offset, uint64_t n) const;

 private:
  Geometry geo_;
  const uint64_t chunk_bytes_;
  std::vector<std::unique_ptr<char[]>> chunks_;  // one per valid-map word
  std::vector<uint64_t> valid_bits_;  // one bit per block
};

// The shared core of the drive models, and by itself the conventional
// drive: any aligned write lands in place, no amplification.
class DriveCore : public Drive {
 public:
  DriveCore(const Geometry& geo, const LatencyParams& lat,
            std::shared_ptr<obs::MetricsRegistry> registry);

  Status Read(uint64_t offset, uint64_t n, char* scratch) final;
  // Counts the request (write_ops, logical bytes) iff WriteLocked succeeds.
  Status Write(uint64_t offset, const Slice& data) final;
  Status Trim(uint64_t offset, uint64_t n) final;

  const Geometry& geometry() const final { return geo_; }
  const DeviceMetrics& metrics() const final { return met_; }
  bool IsValid(uint64_t offset, uint64_t n) const final;

 protected:
  // A model's policy. Each runs with mu_ held, after the range check. A
  // rejected write must charge and count nothing.
  virtual Status WriteLocked(uint64_t offset, const Slice& data);
  virtual void BeforeReadLocked(uint64_t /*offset*/, uint64_t /*n*/) {}
  virtual void TrimLocked(uint64_t offset, uint64_t n);

  // Puts `data` on the media in one access and counts its physical bytes:
  // through the write cache when it lies in the conventional region, as a
  // head access otherwise.
  void WritePlain(uint64_t offset, const Slice& data);
  // Puts `data` on the media image without touching the head or any counter.
  void Place(uint64_t offset, const Slice& data);

  // The only two places device time is charged.
  // An access that moves the head to `offset`: adds its busy time, and
  // counts a seek iff positioning was charged.
  void ChargeAccess(uint64_t offset, uint64_t n, bool is_write);
  // A write absorbed by the conventional region's write cache: command
  // overhead and transfer only; the head stays where it is.
  void ChargeCachedWrite(uint64_t n);

  const Geometry geo_;
  // With the sharded engine, N FileStores issue I/O to one drive
  // concurrently; a real spindle serializes requests too, so one mutex over
  // media, head and model state is the honest model, not a bottleneck.
  mutable std::mutex mu_;
  MediaStore media_;
  DeviceMetrics met_;

 private:
  LatencyModel latency_;
};

// All factories take an optional metrics registry; traffic counters are
// registered there (or in a drive-private registry when null).
std::unique_ptr<Drive> NewHddDrive(
    const Geometry& geo, const LatencyParams& lat,
    std::shared_ptr<obs::MetricsRegistry> registry = nullptr);

struct FixedBandOptions {
  uint64_t band_bytes = 40ull * 1024 * 1024;  // paper default 40 MB
};

// Fixed-band SMR drive. Bands start after the conventional region; each
// band has a write pointer. Appending at the pointer is a plain write; any
// write that would shingle over valid data later in the band triggers a
// band read-modify-write, which is exactly the auxiliary write
// amplification (AWA) the paper measures in Figs. 3 and 12. It also
// reports zone state (a minimal ZBC-like interface).
class FixedBandDrive final : public DriveCore {
 public:
  FixedBandDrive(const Geometry& geo, const LatencyParams& lat,
                 const FixedBandOptions& opt,
                 std::shared_ptr<obs::MetricsRegistry> registry);

  struct ZoneInfo {
    uint64_t start = 0;
    uint64_t length = 0;
    uint64_t write_pointer = 0;  // relative to start
  };
  uint64_t num_zones() const { return write_pointers_.size(); }
  // Writes back a staged band first, so the pointer is the media's.
  ZoneInfo Zone(uint64_t index);

 private:
  Status WriteLocked(uint64_t offset, const Slice& data) override;
  void BeforeReadLocked(uint64_t offset, uint64_t n) override;
  void TrimLocked(uint64_t offset, uint64_t n) override;

  uint64_t BandOf(uint64_t offset) const;
  uint64_t BandStart(uint64_t band) const;
  uint64_t BandLength(uint64_t band) const;
  void WriteBand(uint64_t band, uint64_t offset, const Slice& data);
  void FlushOpenBand();

  const uint64_t band_bytes_;
  std::vector<uint64_t> write_pointers_;  // relative, one per band

  // The band with a staged read-modify-write, or -1 (see FlushOpenBand).
  int64_t open_band_ = -1;
  uint64_t open_salvage_ = 0;
};

std::unique_ptr<FixedBandDrive> NewFixedBandDrive(
    const Geometry& geo, const LatencyParams& lat, const FixedBandOptions& opt,
    std::shared_ptr<obs::MetricsRegistry> registry = nullptr);

// Raw write-anywhere HM-SMR drive (shingled tracks only).
std::unique_ptr<Drive> NewShingledDisk(
    const Geometry& geo, const LatencyParams& lat,
    std::shared_ptr<obs::MetricsRegistry> registry = nullptr);

}  // namespace sealdb::smr
