#include "smr/drive.h"

namespace sealdb::smr {

DriveCore::DriveCore(const Geometry& geo, const LatencyParams& lat,
                     std::shared_ptr<obs::MetricsRegistry> registry)
    : geo_(geo),
      media_(geo),
      met_(std::move(registry)),
      latency_(lat, geo.capacity_bytes) {}

namespace {

Status CheckRange(const Geometry& geo, uint64_t offset, uint64_t n) {
  if (!geo.aligned(offset) || !geo.aligned(n)) {
    return Status::InvalidArgument("unaligned drive access");
  }
  if (offset + n > geo.capacity_bytes) {
    return Status::InvalidArgument("drive access beyond capacity");
  }
  return Status::OK();
}

}  // namespace

Status DriveCore::Read(uint64_t offset, uint64_t n, char* scratch) {
  if (Status s = CheckRange(geo_, offset, n); !s.ok()) return s;
  std::lock_guard<std::mutex> l(mu_);
  BeforeReadLocked(offset, n);
  ChargeAccess(offset, n, /*is_write=*/false);
  media_.Read(offset, n, scratch);
  met_.read_ops->Inc();
  met_.logical_read->Add(n);
  met_.physical_read->Add(n);
  return Status::OK();
}

Status DriveCore::Write(uint64_t offset, const Slice& data) {
  if (Status s = CheckRange(geo_, offset, data.size()); !s.ok()) return s;
  std::lock_guard<std::mutex> l(mu_);
  Status s = WriteLocked(offset, data);
  if (s.ok()) {
    met_.write_ops->Inc();
    met_.logical_write->Add(data.size());
  }
  return s;
}

Status DriveCore::Trim(uint64_t offset, uint64_t n) {
  if (Status s = CheckRange(geo_, offset, n); !s.ok()) return s;
  std::lock_guard<std::mutex> l(mu_);
  TrimLocked(offset, n);
  return Status::OK();
}

bool DriveCore::IsValid(uint64_t offset, uint64_t n) const {
  std::lock_guard<std::mutex> l(mu_);
  return media_.AllValid(offset, n);
}

Status DriveCore::WriteLocked(uint64_t offset, const Slice& data) {
  WritePlain(offset, data);
  return Status::OK();
}

void DriveCore::TrimLocked(uint64_t offset, uint64_t n) {
  media_.MarkInvalid(offset, n);
}

void DriveCore::WritePlain(uint64_t offset, const Slice& data) {
  if (offset + data.size() <= geo_.conventional_bytes) {
    ChargeCachedWrite(data.size());
  } else {
    ChargeAccess(offset, data.size(), /*is_write=*/true);
  }
  Place(offset, data);
  met_.physical_write->Add(data.size());
}

void DriveCore::Place(uint64_t offset, const Slice& data) {
  media_.Write(offset, data);
  media_.MarkValid(offset, data.size());
}

void DriveCore::ChargeAccess(uint64_t offset, uint64_t n, bool is_write) {
  // One busy amount per access: TimeCounter rounds each add to whole
  // nanoseconds, so adding overhead, positioning and transfer separately
  // would drift from the model's sum.
  const LatencyModel::AccessTime t = latency_.Access(offset, n, is_write);
  if (t.position > 0) met_.seeks->Inc();
  met_.busy->AddSeconds(t.total);
  met_.position->AddSeconds(t.position);
}

void DriveCore::ChargeCachedWrite(uint64_t n) {
  met_.busy->AddSeconds(latency_.AccessCached(n, /*is_write=*/true));
}

std::unique_ptr<Drive> NewHddDrive(
    const Geometry& geo, const LatencyParams& lat,
    std::shared_ptr<obs::MetricsRegistry> registry) {
  return std::make_unique<DriveCore>(geo, lat, std::move(registry));
}

}  // namespace sealdb::smr
