// Drive: the simulated block device interface all storage backends sit on.
//
// Three implementations reproduce the paper's device matrix:
//  - HddDrive        conventional drive (Fig. 2 baseline, Table II "HDD")
//  - FixedBandDrive  drive-managed-style SMR with fixed bands; in-place
//                    writes trigger a band read-modify-write, producing the
//                    auxiliary write amplification of Figs. 3 and 12
//  - ShingledDisk    raw host-managed SMR (no fixed bands) that faults any
//                    write damaging valid data; SEALDB's dynamic bands run
//                    on this model
//
// All offsets/lengths are bytes and must be block-aligned. Time is simulated
// (see LatencyModel); metrics() exposes logical vs physical traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
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

  // Declare [offset, offset+n) invalid; its contents may be discarded.
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
class MediaStore {
 public:
  MediaStore(const Geometry& geo);

  void Write(uint64_t offset, const Slice& data);
  void Read(uint64_t offset, uint64_t n, char* scratch) const;

  void MarkValid(uint64_t offset, uint64_t n);
  void MarkInvalid(uint64_t offset, uint64_t n);
  bool AllValid(uint64_t offset, uint64_t n) const;
  bool AnyValid(uint64_t offset, uint64_t n) const;
  uint64_t CountValidBytes(uint64_t offset, uint64_t n) const;

  // Highest exclusive end offset of any valid block in [offset, offset+n),
  // or `offset` if none.
  uint64_t ValidFrontier(uint64_t offset, uint64_t n) const;

 private:
  static constexpr uint64_t kChunkBytes = 256 * 1024;

  Geometry geo_;
  mutable std::unordered_map<uint64_t, std::vector<char>> chunks_;
  std::vector<uint64_t> valid_bits_;  // one bit per block
};

// All factories take an optional metrics registry; traffic counters are
// registered there (or in a drive-private registry when null).
std::unique_ptr<Drive> NewHddDrive(
    const Geometry& geo, const LatencyParams& lat,
    std::shared_ptr<obs::MetricsRegistry> registry = nullptr);

struct FixedBandOptions {
  uint64_t band_bytes = 40ull * 1024 * 1024;  // paper default 40 MB
};

// Fixed-band drive also reports zone state (a minimal ZBC-like interface).
class FixedBandDrive : public Drive {
 public:
  ~FixedBandDrive() override = default;

  struct ZoneInfo {
    uint64_t start = 0;
    uint64_t length = 0;
    uint64_t write_pointer = 0;  // relative to start
  };
  virtual uint64_t num_zones() const = 0;
  virtual ZoneInfo Zone(uint64_t index) const = 0;
};

std::unique_ptr<FixedBandDrive> NewFixedBandDrive(
    const Geometry& geo, const LatencyParams& lat, const FixedBandOptions& opt,
    std::shared_ptr<obs::MetricsRegistry> registry = nullptr);

// Raw write-anywhere HM-SMR drive (shingled tracks only).
class ShingledDisk : public Drive {
 public:
  ~ShingledDisk() override = default;

  // Inspection hooks used by layout benches (Figs. 11/13).
  virtual uint64_t valid_bytes() const = 0;
  virtual uint64_t ValidFrontier() const = 0;  // end of last valid block
};

std::unique_ptr<ShingledDisk> NewShingledDisk(
    const Geometry& geo, const LatencyParams& lat,
    std::shared_ptr<obs::MetricsRegistry> registry = nullptr);

}  // namespace sealdb::smr
