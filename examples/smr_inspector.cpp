// smr_inspector: a tour of the drive substrate itself. Shows, on raw
// simulated devices, why LSM-trees and SMR need the cooperative design the
// paper proposes:
//   1. a conventional drive accepts random writes cheaply,
//   2. a fixed-band SMR drive turns them into band read-modify-writes,
//   3. a raw shingled disk rejects unsafe writes outright — the host must
//      manage guards, which is exactly what dynamic band management does.
//
//   ./smr_inspector
#include <cstdio>
#include <memory>
#include <string>

#include "core/dynamic_band_allocator.h"
#include "smr/drive.h"

using namespace sealdb;

namespace {

smr::Geometry DemoGeometry() {
  smr::Geometry geo;
  geo.capacity_bytes = 1ull << 30;
  geo.track_bytes = 1 << 20;
  geo.shingle_overlap_tracks = 4;
  geo.conventional_bytes = 8 << 20;
  return geo;
}

std::string Block(char c) { return std::string(1 << 20, c); }

double Awa(const smr::Drive& drive) {
  const smr::DeviceMetrics& m = drive.metrics();
  return smr::DeviceMetrics::Awa(m.logical_write->Value(),
                                 m.physical_write->Value());
}

void Report(const char* title, const smr::Drive& drive) {
  const smr::DeviceMetrics& m = drive.metrics();
  std::printf("  %-34s logical %.1f MB written, physical %.1f MB written, "
              "%llu RMW, busy %.3f s, AWA %.2f\n",
              title, m.logical_write->Value() / 1048576.0,
              m.physical_write->Value() / 1048576.0,
              (unsigned long long)m.rmw_ops->Value(), m.busy->Seconds(),
              Awa(drive));
}

}  // namespace

int main() {
  const smr::Geometry geo = DemoGeometry();
  const uint64_t base = geo.conventional_bytes;

  std::printf("=== 1. conventional drive: random writes are cheap ===\n");
  {
    auto hdd = smr::NewHddDrive(geo, smr::LatencyParams::Hdd());
    hdd->Write(base, Block('a') + Block('a') + Block('a') + Block('a'));
    hdd->Write(base, Block('b'));  // in-place rewrite: fine
    Report("after in-place rewrite:", *hdd);
  }

  std::printf("\n=== 2. fixed-band SMR: in-place writes cost a band RMW ===\n");
  {
    smr::FixedBandOptions opt;
    opt.band_bytes = 40 << 20;
    auto drive = smr::NewFixedBandDrive(geo, smr::LatencyParams::Smr(), opt);
    // Fill one 40 MB band sequentially, then rewrite 1 MB in the middle.
    for (int i = 0; i < 40; i++) {
      drive->Write(base + (uint64_t)i * (1 << 20), Block('a'));
    }
    Report("sequential fill (no RMW):", *drive);
    drive->Write(base + (4 << 20), Block('b'));
    drive->Zone(0);  // force the staged write-back so the counters show it
    Report("after one 1 MB in-place write:", *drive);
    std::printf("  -> AWA %.1f: the drive rewrote the whole band prefix to "
                "protect shingled data\n", Awa(*drive));
  }

  std::printf("\n=== 3. raw shingled disk: the host must leave guards ===\n");
  {
    auto disk = smr::NewShingledDisk(geo, smr::LatencyParams::Smr());
    disk->Write(base + (10 << 20), Block('v'));  // some valid data

    // Unsafe: writing within the 4-track shingle window before valid data.
    Status s = disk->Write(base + (8 << 20), Block('x'));
    std::printf("  write 2 MB before valid data: %s\n", s.ToString().c_str());

    // Safe: leave a 4 MB guard region.
    s = disk->Write(base + (5 << 20), Block('x'));
    std::printf("  write with a 4 MB guard:      %s\n", s.ToString().c_str());
  }

  std::printf("\n=== 4. dynamic band management automates the guards ===\n");
  {
    auto disk = smr::NewShingledDisk(geo, smr::LatencyParams::Smr());
    core::DynamicBandOptions opt;
    opt.base = base;
    opt.limit = geo.capacity_bytes;
    opt.track_bytes = geo.track_bytes;
    opt.guard_bytes = geo.guard_bytes();
    opt.class_unit = 4 << 20;
    core::DynamicBandAllocator alloc(opt);

    // Append three "sets", free the middle one, insert into the hole.
    fs::Extent a, b, c, d;
    alloc.Allocate(12 << 20, &a);
    alloc.Allocate(16 << 20, &b);
    alloc.Allocate(12 << 20, &c);
    std::printf("  appended sets at %llu / %llu / %llu (MB)\n",
                (unsigned long long)(a.offset >> 20),
                (unsigned long long)(b.offset >> 20),
                (unsigned long long)(c.offset >> 20));
    alloc.Free(b);
    alloc.Allocate(8 << 20, &d);  // Eq. 1: needs 8 + 4 guard <= 16 free
    std::printf("  freed the middle set, inserted an 8 MB set at %llu MB "
                "with a %llu MB guard\n",
                (unsigned long long)(d.offset >> 20),
                (unsigned long long)(d.guard >> 20));

    // Every placement the allocator hands out is writable without tripping
    // the drive's shingle protection.
    for (const fs::Extent* e : {&a, &c, &d}) {
      for (uint64_t off = 0; off < e->length; off += 1 << 20) {
        Status s = disk->Write(e->offset + off, Block('s'));
        if (!s.ok()) {
          std::printf("  UNEXPECTED: %s\n", s.ToString().c_str());
          return 1;
        }
      }
    }
    std::printf("  wrote all allocated extents: no shingle violations, "
                "AWA %.2f\n", Awa(*disk));
  }
  return 0;
}
