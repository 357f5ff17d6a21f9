// Tests for the simulated drive stack: geometry, latency model (calibrated
// against the paper's Table II), the conventional drive, the fixed-band SMR
// drive (read-modify-write => AWA), and the raw shingled disk's safety
// invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "smr/drive.h"

namespace sealdb::smr {

namespace {

Geometry SmallGeometry() {
  Geometry geo;
  geo.capacity_bytes = 256ull << 20;  // 256 MB
  geo.block_bytes = 4096;
  geo.track_bytes = 1 << 20;
  geo.shingle_overlap_tracks = 4;
  geo.conventional_bytes = 8 << 20;
  return geo;
}

std::string Pattern(size_t n, char seed) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; i++) s[i] = static_cast<char>(seed + i % 23);
  return s;
}

double Awa(const Drive& drive) {
  return DeviceMetrics::Awa(drive.metrics().logical_write->Value(),
                            drive.metrics().physical_write->Value());
}

// The counters a band-RMW test takes deltas of.
struct Traffic {
  uint64_t logical_write = 0;
  uint64_t physical_write = 0;
  uint64_t rmw_ops = 0;

  Traffic operator-(const Traffic& o) const {
    return {logical_write - o.logical_write, physical_write - o.physical_write,
            rmw_ops - o.rmw_ops};
  }
  double awa() const {
    return DeviceMetrics::Awa(logical_write, physical_write);
  }
};

Traffic TrafficOf(const Drive& drive) {
  const DeviceMetrics& m = drive.metrics();
  return {m.logical_write->Value(), m.physical_write->Value(),
          m.rmw_ops->Value()};
}

}  // namespace

TEST(Geometry, Math) {
  Geometry geo = SmallGeometry();
  EXPECT_EQ(geo.num_blocks(), (256ull << 20) / 4096);
  EXPECT_EQ(geo.num_tracks(), 256u);
  EXPECT_EQ(geo.track_of(0), 0u);
  EXPECT_EQ(geo.track_of((1 << 20) - 1), 0u);
  EXPECT_EQ(geo.track_of(1 << 20), 1u);
  EXPECT_TRUE(geo.aligned(4096));
  EXPECT_FALSE(geo.aligned(4095));
  EXPECT_EQ(geo.guard_bytes(), 4ull << 20);
}

// ------------------------------------------------------------ media store

// The valid-bit map answers range queries a 64-bit word at a time; check
// every query against a one-block-at-a-time reference over random
// unaligned byte ranges, the first and last block, and ranges that start
// or end on either side of a word boundary.
TEST(MediaStore, WordRangeQueriesMatchPerBlockReference) {
  Geometry geo;
  geo.block_bytes = 512;
  geo.capacity_bytes = 300 * 512ull;  // last word only partly used
  const uint64_t blocks = geo.num_blocks();
  MediaStore media(geo);
  std::vector<bool> ref(blocks, false);
  std::mt19937_64 rng(20181016);

  // A byte range [offset, offset + n) with n >= 1 inside the drive.
  auto random_range = [&](uint64_t* offset, uint64_t* n) {
    *offset = rng() % geo.capacity_bytes;
    *n = 1 + rng() % std::min<uint64_t>(geo.capacity_bytes - *offset,
                                        (rng() & 1) ? 200 * 512 : 3 * 512);
  };
  std::vector<std::pair<uint64_t, uint64_t>> fixed = {
      {0, 1}, {0, 512}, {(blocks - 1) * 512, 512}, {blocks * 512 - 1, 1},
      {0, geo.capacity_bytes}};
  for (uint64_t edge : {64ull, 128ull, 192ull, 256ull}) {
    for (uint64_t b : {edge - 1, edge}) {
      fixed.push_back({b * 512, 512});
      fixed.push_back({b * 512 + 100, 512});
      fixed.push_back({(edge - 2) * 512, 4 * 512});
      fixed.push_back({b * 512, (blocks - b) * 512});
      fixed.push_back({0, b * 512 + 1});
    }
  }

  auto check = [&](uint64_t offset, uint64_t n) {
    const uint64_t first = offset / 512, last = (offset + n - 1) / 512;
    bool any = false, all = true;
    for (uint64_t b = first; b <= last; b++) {
      any = any || ref[b];
      all = all && ref[b];
    }
    SCOPED_TRACE("range [" + std::to_string(offset) + ", +" +
                 std::to_string(n) + ")");
    EXPECT_EQ(any, media.AnyValid(offset, n));
    EXPECT_EQ(all, media.AllValid(offset, n));
  };

  for (int round = 0; round < 400; round++) {
    uint64_t offset, n;
    random_range(&offset, &n);
    const bool valid = rng() % 3 != 0;
    if (valid) {
      media.MarkValid(offset, n);
    } else {
      media.MarkInvalid(offset, n);
    }
    for (uint64_t b = offset / 512; b <= (offset + n - 1) / 512; b++) {
      ref[b] = valid;
    }
    for (int q = 0; q < 8; q++) {
      random_range(&offset, &n);
      check(offset, n);
    }
    for (const auto& [o, len] : fixed) check(o, len);
    if (HasFailure()) return;
  }
  EXPECT_FALSE(media.AnyValid(0, 0));
  EXPECT_TRUE(media.AllValid(0, 0));
}

// --------------------------------------------------------- latency model

TEST(LatencyModel, SequentialReadApproachesTableII) {
  // Stream 64 MB sequentially; effective bandwidth should be close to the
  // 169 MB/s Table II reports for the HDD.
  LatencyModel m(LatencyParams::Hdd(), 1ull << 40);
  double t = 0;
  const uint64_t chunk = 1 << 20;
  for (uint64_t off = 0; off < (64ull << 20); off += chunk) {
    t += m.Access(off, chunk, /*is_write=*/false).total;
  }
  const double mbps = (64.0 * 1e6 * 1.048576) / (t * 1e6);
  EXPECT_GT(mbps, 140.0);
  EXPECT_LT(mbps, 175.0);
}

TEST(LatencyModel, RandomReadIopsApproachesTableII) {
  // 4 KB random reads across a 1 TB span: Table II says 64 IOPS.
  LatencyModel m(LatencyParams::Hdd(), 1ull << 40);
  double t = 0;
  uint64_t pos = 123456789;
  const int kOps = 2000;
  for (int i = 0; i < kOps; i++) {
    pos = (pos * 2654435761u) % ((1ull << 40) - 4096);
    pos = pos / 4096 * 4096;
    t += m.Access(pos, 4096, /*is_write=*/false).total;
  }
  const double iops = kOps / t;
  EXPECT_GT(iops, 45.0);
  EXPECT_LT(iops, 95.0);
}

TEST(LatencyModel, RandomWritesFasterThanRandomReads) {
  // Write caching: Table II random-write IOPS (143) > random-read (64).
  LatencyModel mr(LatencyParams::Hdd(), 1ull << 40);
  LatencyModel mw(LatencyParams::Hdd(), 1ull << 40);
  double tr = 0, tw = 0;
  uint64_t pos = 97;
  for (int i = 0; i < 500; i++) {
    pos = (pos * 2654435761u) % ((1ull << 40) - 4096);
    pos = pos / 4096 * 4096;
    tr += mr.Access(pos, 4096, false).total;
    tw += mw.Access(pos, 4096, true).total;
  }
  EXPECT_LT(tw, tr);
  const double write_iops = 500 / tw;
  EXPECT_GT(write_iops, 100.0);
  EXPECT_LT(write_iops, 250.0);
}

TEST(LatencyModel, SequentialAccessSkipsPositioning) {
  LatencyModel m(LatencyParams::Hdd(), 1ull << 40);
  EXPECT_GT(m.Access(1 << 20, 4096, false).position, 0.0);
  // The head is already there: no seek, no rotation.
  const LatencyModel::AccessTime t = m.Access((1 << 20) + 4096, 4096, false);
  EXPECT_EQ(t.position, 0.0);
  EXPECT_LT(t.total, 0.001);
}

// --------------------------------------------------------- HDD drive

TEST(HddDrive, WriteReadRoundtrip) {
  auto drive = NewHddDrive(SmallGeometry(), LatencyParams::Hdd());
  const std::string data = Pattern(8192, 'a');
  ASSERT_TRUE(drive->Write(4096, data).ok());
  std::string out(8192, 0);
  ASSERT_TRUE(drive->Read(4096, 8192, out.data()).ok());
  EXPECT_EQ(data, out);
  EXPECT_TRUE(drive->IsValid(4096, 8192));
  EXPECT_FALSE(drive->IsValid(0, 4096));
}

TEST(HddDrive, RejectsUnaligned) {
  auto drive = NewHddDrive(SmallGeometry(), LatencyParams::Hdd());
  EXPECT_TRUE(drive->Write(100, Pattern(4096, 'x')).IsInvalidArgument());
  char buf[16];
  EXPECT_TRUE(drive->Read(0, 100, buf).IsInvalidArgument());
}

TEST(HddDrive, RejectsBeyondCapacity) {
  Geometry geo = SmallGeometry();
  auto drive = NewHddDrive(geo, LatencyParams::Hdd());
  EXPECT_TRUE(drive->Write(geo.capacity_bytes - 4096, Pattern(8192, 'x'))
                  .IsInvalidArgument());
}

TEST(HddDrive, OverwriteInPlaceAllowed) {
  auto drive = NewHddDrive(SmallGeometry(), LatencyParams::Hdd());
  ASSERT_TRUE(drive->Write(0, Pattern(4096, 'a')).ok());
  ASSERT_TRUE(drive->Write(0, Pattern(4096, 'b')).ok());
  std::string out(4096, 0);
  ASSERT_TRUE(drive->Read(0, 4096, out.data()).ok());
  EXPECT_EQ(Pattern(4096, 'b'), out);
  EXPECT_EQ(drive->metrics().physical_write->Value(), 8192u);
  EXPECT_EQ(Awa(*drive), 1.0);
}

TEST(HddDrive, TrimInvalidates) {
  auto drive = NewHddDrive(SmallGeometry(), LatencyParams::Hdd());
  ASSERT_TRUE(drive->Write(0, Pattern(4096, 'a')).ok());
  ASSERT_TRUE(drive->Trim(0, 4096).ok());
  EXPECT_FALSE(drive->IsValid(0, 4096));
}

// --------------------------------------------------------- fixed bands

class FixedBandTest : public ::testing::Test {
 protected:
  FixedBandTest() {
    geo_ = SmallGeometry();
    FixedBandOptions opt;
    opt.band_bytes = kBand;
    drive_ = NewFixedBandDrive(geo_, LatencyParams::Smr(), opt);
  }

  static constexpr uint64_t kBand = 8ull << 20;  // 8 MB bands
  Geometry geo_;
  std::unique_ptr<FixedBandDrive> drive_;
};

TEST_F(FixedBandTest, SequentialAppendNoRmw) {
  const uint64_t base = geo_.conventional_bytes;
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(drive_->Write(base + i * 1048576, Pattern(1048576, 'a' + i))
                    .ok());
  }
  EXPECT_EQ(drive_->metrics().rmw_ops->Value(), 0u);
  EXPECT_DOUBLE_EQ(Awa(*drive_), 1.0);
}

TEST_F(FixedBandTest, InPlaceRewriteTriggersRmw) {
  const uint64_t base = geo_.conventional_bytes;
  // Fill the whole band sequentially, then rewrite the first megabyte.
  ASSERT_TRUE(drive_->Write(base, Pattern(kBand, 'a')).ok());
  ASSERT_TRUE(drive_->Write(base, Pattern(1048576, 'b')).ok());
  EXPECT_EQ(drive_->metrics().rmw_ops->Value(), 1u);

  // Data integrity preserved (the read also forces the band write-back).
  std::string out(2 * 1048576, 0);
  ASSERT_TRUE(drive_->Read(base, out.size(), out.data()).ok());
  EXPECT_EQ(Pattern(1048576, 'b'), out.substr(0, 1048576));
  EXPECT_EQ(Pattern(kBand, 'a').substr(1048576, 1048576),
            out.substr(1048576));

  // One band RMW for 1 MB of updates: the whole band prefix was re-read
  // and rewritten, so AWA >> 1.
  EXPECT_GT(Awa(*drive_), 1.5);
  EXPECT_GE(drive_->metrics().physical_read->Value(), kBand);
}

TEST_F(FixedBandTest, RewriteTailWithoutFollowingDataIsCheap) {
  const uint64_t base = geo_.conventional_bytes;
  ASSERT_TRUE(drive_->Write(base, Pattern(2 * 1048576, 'a')).ok());
  // Rewriting the last written megabyte: trim it first, then nothing valid
  // follows within the damage window, so no RMW is needed.
  ASSERT_TRUE(drive_->Trim(base + 1048576, 1048576).ok());
  ASSERT_TRUE(drive_->Write(base + 1048576, Pattern(1048576, 'b')).ok());
  EXPECT_EQ(drive_->metrics().rmw_ops->Value(), 0u);
}

TEST_F(FixedBandTest, TrimWholeBandResetsWritePointer) {
  const uint64_t base = geo_.conventional_bytes;
  ASSERT_TRUE(drive_->Write(base, Pattern(kBand, 'a')).ok());
  EXPECT_EQ(drive_->Zone(0).write_pointer, kBand);
  ASSERT_TRUE(drive_->Trim(base, kBand).ok());
  EXPECT_EQ(drive_->Zone(0).write_pointer, 0u);
  // Sequential reuse after reset is RMW-free.
  ASSERT_TRUE(drive_->Write(base, Pattern(kBand, 'b')).ok());
  EXPECT_EQ(drive_->metrics().rmw_ops->Value(), 0u);
}

TEST_F(FixedBandTest, ZoneReport) {
  EXPECT_EQ(drive_->num_zones(),
            (geo_.capacity_bytes - geo_.conventional_bytes) / kBand);
  FixedBandDrive::ZoneInfo z0 = drive_->Zone(0);
  EXPECT_EQ(z0.start, geo_.conventional_bytes);
  EXPECT_EQ(z0.length, kBand);
  EXPECT_EQ(z0.write_pointer, 0u);
}

TEST_F(FixedBandTest, WriteSpanningBands) {
  const uint64_t base = geo_.conventional_bytes;
  // One 12 MB write spans two 8 MB bands; both pieces append cleanly.
  ASSERT_TRUE(drive_->Write(base, Pattern(12 << 20, 'a')).ok());
  EXPECT_EQ(drive_->metrics().rmw_ops->Value(), 0u);
  EXPECT_EQ(drive_->Zone(0).write_pointer, kBand);
  EXPECT_EQ(drive_->Zone(1).write_pointer, (12ull << 20) - kBand);
}

TEST_F(FixedBandTest, ConventionalRegionFreelyRewritable) {
  ASSERT_TRUE(drive_->Write(0, Pattern(4096, 'a')).ok());
  ASSERT_TRUE(drive_->Write(0, Pattern(4096, 'b')).ok());
  EXPECT_EQ(drive_->metrics().rmw_ops->Value(), 0u);
}

TEST_F(FixedBandTest, SameBandUpdatesBatchIntoOneRmw) {
  // Consecutive updates to the SAME band batch into one staged RMW (the
  // translation layer buffers the band and writes it back once).
  const uint64_t base = geo_.conventional_bytes;
  ASSERT_TRUE(drive_->Write(base, Pattern(kBand, 'a')).ok());
  const Traffic before = TrafficOf(*drive_);
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(drive_->Write(base + i * 1048576, Pattern(1048576, 'b')).ok());
  }
  drive_->Zone(0);  // forces the write-back
  const Traffic delta = TrafficOf(*drive_) - before;
  EXPECT_EQ(delta.rmw_ops, 1u);
  // 4 MB logical, one full-band read + write-back: AWA = 8/4 = 2.
  EXPECT_NEAR(delta.awa(), 2.0, 0.1);
}

TEST_F(FixedBandTest, AwaScalesWithBandToWriteRatio) {
  // Alternating small updates across DIFFERENT full bands: every switch
  // pays a full band RMW, reproducing Fig. 3(b)'s auxiliary amplification.
  const uint64_t base = geo_.conventional_bytes;
  ASSERT_TRUE(drive_->Write(base, Pattern(kBand, 'a')).ok());
  ASSERT_TRUE(drive_->Write(base + kBand, Pattern(kBand, 'b')).ok());
  const Traffic before = TrafficOf(*drive_);
  for (int i = 0; i < 4; i++) {
    const uint64_t band_base = base + (i % 2) * kBand;
    ASSERT_TRUE(
        drive_->Write(band_base + 1048576, Pattern(1048576, 'c')).ok());
  }
  drive_->Zone(0);  // flush the last staged band
  const Traffic delta = TrafficOf(*drive_) - before;
  EXPECT_EQ(delta.rmw_ops, 4u);
  // 4 MB logical, ~4 band write-backs (8 MB each): AWA ~ 8.
  EXPECT_GT(delta.awa(), 4.0);
}

TEST_F(FixedBandTest, SeekCountedOnlyWhenPositioningIsCharged) {
  // Band 1 holds data; filling band 0 leaves the head at band 1's start.
  const uint64_t band1 = geo_.conventional_bytes + kBand;
  ASSERT_TRUE(drive_->Write(band1, Pattern(2 << 20, 'a')).ok());
  ASSERT_TRUE(drive_->Write(band1 - kBand, Pattern(kBand, 'b')).ok());
  const DeviceMetrics& m = drive_->metrics();
  const uint64_t seeks = m.seeks->Value();
  const uint64_t position_ns = m.position->Nanos();
  // An in-place write at band 1's start stages an RMW whose prefix read
  // starts under the head: no positioning, so no seek.
  ASSERT_TRUE(drive_->Write(band1, Pattern(1 << 20, 'c')).ok());
  EXPECT_EQ(m.rmw_ops->Value(), 1u);
  EXPECT_EQ(m.seeks->Value(), seeks);
  EXPECT_EQ(m.position->Nanos(), position_ns);
  // The write-back goes back to the band start: positioned, one seek.
  drive_->Zone(1);
  EXPECT_EQ(m.seeks->Value(), seeks + 1);
  EXPECT_GT(m.position->Nanos(), position_ns);
}

// --------------------------------------------------------- shingled disk

class ShingledDiskTest : public ::testing::Test {
 protected:
  ShingledDiskTest() {
    geo_ = SmallGeometry();
    disk_ = NewShingledDisk(geo_, LatencyParams::Smr());
    base_ = geo_.conventional_bytes;
  }

  Geometry geo_;
  std::unique_ptr<Drive> disk_;
  uint64_t base_;
};

TEST_F(ShingledDiskTest, AppendSequentially) {
  ASSERT_TRUE(disk_->Write(base_, Pattern(1 << 20, 'a')).ok());
  ASSERT_TRUE(disk_->Write(base_ + (1 << 20), Pattern(1 << 20, 'b')).ok());
  EXPECT_TRUE(disk_->IsValid(base_, 2 << 20));
  EXPECT_FALSE(disk_->IsValid(base_ + (2 << 20), 4096));
}

TEST_F(ShingledDiskTest, OverwriteValidDataRejected) {
  ASSERT_TRUE(disk_->Write(base_, Pattern(1 << 20, 'a')).ok());
  Status s = disk_->Write(base_, Pattern(4096, 'b'));
  EXPECT_TRUE(s.IsCorruption());
}

TEST_F(ShingledDiskTest, DamagingFollowingTracksRejected) {
  // Valid data at track T; writing within shingle_overlap tracks before it
  // would destroy it.
  const uint64_t victim = base_ + (10 << 20);
  ASSERT_TRUE(disk_->Write(victim, Pattern(1 << 20, 'v')).ok());
  // Write ending 1 track before the victim: damage window covers victim.
  Status s = disk_->Write(victim - (2 << 20), Pattern(1 << 20, 'x'));
  EXPECT_TRUE(s.IsCorruption());
}

TEST_F(ShingledDiskTest, GuardRegionMakesInsertSafe) {
  const uint64_t victim = base_ + (10 << 20);
  ASSERT_TRUE(disk_->Write(victim, Pattern(1 << 20, 'v')).ok());
  // Leave a full guard (4 tracks) between the insert and the victim.
  const uint64_t guard = geo_.guard_bytes();
  ASSERT_TRUE(
      disk_->Write(victim - guard - (1 << 20), Pattern(1 << 20, 'x')).ok());
  // Victim is intact.
  std::string out(1 << 20, 0);
  ASSERT_TRUE(disk_->Read(victim, 1 << 20, out.data()).ok());
  EXPECT_EQ(Pattern(1 << 20, 'v'), out);
}

TEST_F(ShingledDiskTest, TrimAllowsReuse) {
  ASSERT_TRUE(disk_->Write(base_, Pattern(1 << 20, 'a')).ok());
  ASSERT_TRUE(disk_->Trim(base_, 1 << 20).ok());
  for (uint64_t off = base_; off < base_ + (1 << 20); off += 4096) {
    ASSERT_FALSE(disk_->IsValid(off, 4096)) << off;
  }
  ASSERT_TRUE(disk_->Write(base_, Pattern(1 << 20, 'b')).ok());
  EXPECT_TRUE(disk_->IsValid(base_, 1 << 20));
}

TEST_F(ShingledDiskTest, ConventionalRegionFreelyRewritable) {
  ASSERT_TRUE(disk_->Write(0, Pattern(4096, 'a')).ok());
  ASSERT_TRUE(disk_->Write(0, Pattern(4096, 'b')).ok());
  std::string out(4096, 0);
  ASSERT_TRUE(disk_->Read(0, 4096, out.data()).ok());
  EXPECT_EQ(Pattern(4096, 'b'), out);
}

TEST_F(ShingledDiskTest, NoAuxiliaryAmplificationEver) {
  // Every accepted write is written exactly once: AWA == 1 by construction.
  ASSERT_TRUE(disk_->Write(base_, Pattern(4 << 20, 'a')).ok());
  ASSERT_TRUE(disk_->Trim(base_, 1 << 20).ok());
  ASSERT_TRUE(disk_->Write(base_ + (8 << 20), Pattern(2 << 20, 'b')).ok());
  EXPECT_DOUBLE_EQ(Awa(*disk_), 1.0);
  EXPECT_EQ(disk_->metrics().rmw_ops->Value(), 0u);
}

TEST_F(ShingledDiskTest, InsertAtEndOfValidDataNoGuardNeeded) {
  // Appending right after valid data damages nothing (shingling is
  // one-directional).
  ASSERT_TRUE(disk_->Write(base_, Pattern(1 << 20, 'a')).ok());
  ASSERT_TRUE(disk_->Write(base_ + (1 << 20), Pattern(1 << 20, 'b')).ok());
  std::string out(1 << 20, 0);
  ASSERT_TRUE(disk_->Read(base_, 1 << 20, out.data()).ok());
  EXPECT_EQ(Pattern(1 << 20, 'a'), out);
}

TEST(LatencyModel, TimeScalingPreservesSeekTransferRatio) {
  // Scaling positioning times by k keeps seek_time * bandwidth /
  // transfer_size invariant when transfers shrink by the same k.
  LatencyModel full(LatencyParams::Hdd(), 1ull << 40);
  LatencyModel scaled(LatencyParams::Hdd().TimeScaled(16), 1ull << 40);

  // Full scale: random 4 MB accesses. Scaled: random 256 KB accesses.
  double t_full = 0, t_scaled = 0;
  uint64_t pos = 777;
  for (int i = 0; i < 200; i++) {
    pos = pos * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t offset = (pos % ((1ull << 40) - (4 << 20))) / 4096 * 4096;
    t_full += full.Access(offset, 4 << 20, false).total;
    t_scaled += scaled.Access(offset, 256 << 10, false).total;
  }
  // Same positioning:transfer ratio means scaled time = full time / 16.
  EXPECT_NEAR(t_full / t_scaled, 16.0, 1.6);
}

TEST(LatencyModel, CachedAccessSkipsPositioning) {
  LatencyModel m(LatencyParams::Hdd(), 1ull << 40);
  m.Access(1ull << 30, 4096, true);  // park the head somewhere
  EXPECT_LT(m.AccessCached(4096, true), 0.001);  // no seek, no rotation
  // The head is untouched: the access after the parked one is sequential.
  EXPECT_EQ(m.Access((1ull << 30) + 4096, 4096, true).position, 0.0);
}

TEST(LatencyModel, ScaleOfOneIsIdentity) {
  const LatencyParams p = LatencyParams::Smr();
  const LatencyParams q = p.TimeScaled(1);
  EXPECT_DOUBLE_EQ(p.max_seek_s, q.max_seek_s);
  EXPECT_DOUBLE_EQ(p.rotation_s, q.rotation_s);
}

// AWA is physical / logical write bytes, and 1.0 before any write.
TEST(DeviceMetrics, AwaFormulaAndRegistryGauge) {
  EXPECT_DOUBLE_EQ(DeviceMetrics::Awa(0, 0), 1.0);
  EXPECT_NEAR(DeviceMetrics::Awa(60, 200), 200.0 / 60.0, 1e-9);

  auto registry = std::make_shared<obs::MetricsRegistry>();
  auto drive = NewHddDrive(SmallGeometry(), LatencyParams::Hdd(), registry);
  EXPECT_EQ(drive->metrics().registry().get(), registry.get());
  ASSERT_TRUE(drive->Write(0, Pattern(8192, 'a')).ok());
  EXPECT_EQ(registry->counter_value("sealdb_device_logical_bytes_total",
                                    {{"dir", "write"}}),
            8192u);
  EXPECT_DOUBLE_EQ(
      registry->gauge_value("sealdb_device_aux_write_amplification"), 1.0);
}


// ------------------------------------------------- charges per request

// Everything one request charges at the drive: simulated busy and
// positioning time in whole nanoseconds, seeks, operations and media bytes.
struct Charges {
  uint64_t busy_ns = 0;
  uint64_t position_ns = 0;
  uint64_t seeks = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t physical_read = 0;
  uint64_t physical_write = 0;
  uint64_t rmw_ops = 0;

  bool operator==(const Charges&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Charges& c) {
    return os << "{busy_ns=" << c.busy_ns << " position_ns=" << c.position_ns
              << " seeks=" << c.seeks << " read_ops=" << c.read_ops
              << " write_ops=" << c.write_ops
              << " physical_read=" << c.physical_read
              << " physical_write=" << c.physical_write
              << " rmw_ops=" << c.rmw_ops << "}";
  }
};

Charges ChargesOf(const Drive& drive) {
  const DeviceMetrics& m = drive.metrics();
  return {m.busy->Nanos(),           m.position->Nanos(),
          m.seeks->Value(),          m.read_ops->Value(),
          m.write_ops->Value(),      m.physical_read->Value(),
          m.physical_write->Value(), m.rmw_ops->Value()};
}

// Runs `request` against `drive`, checks it returns `want_ok`, and returns
// what it charged.
template <typename Request>
Charges Charged(const Drive& drive, bool want_ok, Request request) {
  const Charges before = ChargesOf(drive);
  const Status s = request();
  EXPECT_EQ(want_ok, s.ok()) << s.ToString();
  const Charges after = ChargesOf(drive);
  return {after.busy_ns - before.busy_ns,
          after.position_ns - before.position_ns,
          after.seeks - before.seeks,
          after.read_ops - before.read_ops,
          after.write_ops - before.write_ops,
          after.physical_read - before.physical_read,
          after.physical_write - before.physical_write,
          after.rmw_ops - before.rmw_ops};
}

// Pins the exact device charges of one fixed request trace per drive model.
// Every simulated figure the benches print is a sum of these charges, so a
// change to how a model turns requests into busy time, positioning, seeks or
// media traffic shows here first. Values are whole nanoseconds and bytes.
TEST(DriveChargeTest, HddTrace) {
  auto drive = NewHddDrive(SmallGeometry(), LatencyParams::Hdd());
  const uint64_t at = 100ull << 20;
  const std::string data = Pattern(64 << 10, 'h');
  std::string out(64 << 10, 0);
  // Random read: the head moves from 0.
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Read(at, 64 << 10, out.data()); }),
            (Charges{16829454, 16341667, 1, 1, 0, 65536, 0, 0}));
  // Sequential write right after the read: no positioning.
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(at + (64 << 10), data); }),
            (Charges{522813, 0, 0, 0, 1, 0, 65536, 0}));
  // In-place rewrite: the head has moved past, so it repositions.
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(at + (64 << 10), data); }),
            (Charges{2990802, 2467990, 1, 0, 1, 0, 65536, 0}));
  // Conventional-region write: absorbed by the write cache.
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(0, Pattern(4096, 'c')); }),
            (Charges{126426, 0, 0, 0, 1, 0, 4096, 0}));
  // The cached write left the head where it was: sequential read.
  EXPECT_EQ(Charged(*drive, true,
                    [&] {
                      return drive->Read(at + (128 << 10), 4096, out.data());
                    }),
            (Charges{124237, 0, 0, 1, 0, 4096, 0, 0}));
}

TEST(DriveChargeTest, FixedBandTrace) {
  const Geometry geo = SmallGeometry();
  FixedBandOptions opt;
  opt.band_bytes = 8ull << 20;
  auto drive = NewFixedBandDrive(geo, LatencyParams::Smr(), opt);
  const uint64_t base = geo.conventional_bytes;
  const uint64_t mb = 1 << 20;
  std::string out(64 << 10, 0);
  // Sequential append into band 0: the first write positions, the second
  // continues at the write pointer.
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(base, Pattern(2 * mb, 'a')); }),
            (Charges{17966874, 3696928, 1, 0, 1, 0, 2097152, 0}));
  EXPECT_EQ(Charged(*drive, true,
                    [&] {
                      return drive->Write(base + 2 * mb, Pattern(2 * mb, 'b'));
                    }),
            (Charges{14269946, 0, 0, 0, 1, 0, 2097152, 0}));
  // In-place rewrite: stages a band RMW, reading the valid prefix now.
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(base + mb, Pattern(mb, 'c')); }),
            (Charges{32536691, 7016667, 1, 0, 1, 4194304, 0, 1}));
  // A second write into the staged band is applied in memory.
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(base, Pattern(mb, 'd')); }),
            (Charges{0, 0, 0, 0, 1, 0, 0, 0}));
  // Reading the staged band writes it back first, then reads.
  EXPECT_EQ(Charged(*drive, true,
                    [&] {
                      return drive->Read(base + 2 * mb, 64 << 10, out.data());
                    }),
            (Charges{38651148, 9714069, 2, 1, 0, 65536, 4194304, 0}));
  EXPECT_EQ(drive->Zone(0).write_pointer, 4 * mb);
  // Stage another RMW, then trim the whole written prefix: the trim writes
  // the staged band back, and the emptied zone's pointer resets.
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(base, Pattern(mb, 'e')); }),
            (Charges{31958735, 6438711, 1, 0, 1, 4194304, 0, 1}));
  EXPECT_EQ(Charged(*drive, true, [&] { return drive->Trim(base, 4 * mb); }),
            (Charges{31737725, 3297833, 1, 0, 0, 0, 4194304, 0}));
  EXPECT_EQ(drive->Zone(0).write_pointer, 0u);
  EXPECT_FALSE(drive->IsValid(base, 4096));
}

TEST(DriveChargeTest, ShingledTrace) {
  const Geometry geo = SmallGeometry();
  auto drive = NewShingledDisk(geo, LatencyParams::Smr());
  const uint64_t base = geo.conventional_bytes;
  const uint64_t mb = 1 << 20;
  std::string out(64 << 10, 0);
  // Append: the first write positions, the second is sequential.
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(base, Pattern(mb, 'a')); }),
            (Charges{10881901, 3696928, 1, 0, 1, 0, 1048576, 0}));
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(base + mb, Pattern(mb, 'b')); }),
            (Charges{7184973, 0, 0, 0, 1, 0, 1048576, 0}));
  // Guard-respecting insert before valid data at base + 20 MB.
  const uint64_t victim = base + 20 * mb;
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(victim, Pattern(mb, 'v')); }),
            (Charges{11563198, 4378225, 1, 0, 1, 0, 1048576, 0}));
  EXPECT_EQ(Charged(*drive, true,
                    [&] {
                      return drive->Write(victim - geo.guard_bytes() - mb,
                                          Pattern(mb, 'i'));
                    }),
            (Charges{10699348, 3514375, 1, 0, 1, 0, 1048576, 0}));
  // A write that would damage the victim is rejected and charges nothing.
  EXPECT_EQ(Charged(*drive, false,
                    [&] {
                      return drive->Write(victim - 2 * mb, Pattern(mb, 'x'));
                    }),
            (Charges{0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(drive->metrics().guard_violations->Value(), 1u);
  // Conventional-region write, then a read of the first append.
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(0, Pattern(4096, 'c')); }),
            (Charges{127676, 0, 0, 0, 1, 0, 4096, 0}));
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Read(base, 64 << 10, out.data()); }),
            (Charges{9563855, 9066667, 1, 1, 0, 65536, 0, 0}));
}

// ------------------------------------------------------- trim semantics

// Trim is honest in every model: trimmed blocks read as zeros and their
// memory goes, while the valid blocks around them keep their bytes.
enum class Model { kHdd, kFixedBand, kShingled };

class TrimSemanticsTest : public ::testing::TestWithParam<Model> {
 protected:
  TrimSemanticsTest() : geo_(SmallGeometry()), base_(geo_.conventional_bytes) {
    switch (GetParam()) {
      case Model::kHdd:
        drive_ = NewHddDrive(geo_, LatencyParams::Hdd());
        break;
      case Model::kFixedBand: {
        FixedBandOptions opt;
        opt.band_bytes = 8ull << 20;
        drive_ = NewFixedBandDrive(geo_, LatencyParams::Smr(), opt);
        break;
      }
      case Model::kShingled:
        drive_ = NewShingledDisk(geo_, LatencyParams::Smr());
        break;
    }
  }

  std::string ReadBack(uint64_t offset, uint64_t n) {
    std::string out(n, '\x5a');
    EXPECT_TRUE(drive_->Read(offset, n, out.data()).ok());
    return out;
  }

  // One media chunk: the 64 blocks of one valid-map word.
  static constexpr uint64_t kChunk = 64 * 4096;
  const Geometry geo_;
  const uint64_t base_;
  std::unique_ptr<Drive> drive_;
};

TEST_P(TrimSemanticsTest, TrimmedBlocksReadAsZeros) {
  const std::string data = Pattern(4 * kChunk, 'a');
  ASSERT_TRUE(drive_->Write(base_, data).ok());
  // A whole chunk, and a run of blocks inside the next one.
  ASSERT_TRUE(drive_->Trim(base_ + kChunk, kChunk).ok());
  ASSERT_TRUE(drive_->Trim(base_ + 2 * kChunk + 8192, 3 * 4096).ok());

  std::string want = data;
  std::fill_n(want.begin() + kChunk, kChunk, '\0');
  std::fill_n(want.begin() + 2 * kChunk + 8192, 3 * 4096, '\0');
  EXPECT_EQ(ReadBack(base_, 4 * kChunk), want);
  EXPECT_TRUE(drive_->IsValid(base_, kChunk));
  EXPECT_FALSE(drive_->IsValid(base_ + kChunk, 4096));
  EXPECT_TRUE(drive_->IsValid(base_ + 2 * kChunk, 8192));
  EXPECT_FALSE(drive_->IsValid(base_ + 2 * kChunk + 8192, 4096));

  // Trimming what is already invalid changes nothing.
  ASSERT_TRUE(drive_->Trim(base_ + kChunk, 2 * kChunk).ok());
  std::fill_n(want.begin() + 2 * kChunk, kChunk, '\0');
  EXPECT_EQ(ReadBack(base_, 4 * kChunk), want);
}

TEST_P(TrimSemanticsTest, PartlyTrimmedChunkKeepsItsValidBlocks) {
  const std::string data = Pattern(kChunk, 'p');
  ASSERT_TRUE(drive_->Write(base_, data).ok());
  // Every other block of the chunk.
  for (uint64_t b = 0; b < 64; b += 2) {
    ASSERT_TRUE(drive_->Trim(base_ + b * 4096, 4096).ok());
  }
  const std::string got = ReadBack(base_, kChunk);
  for (uint64_t b = 0; b < 64; b++) {
    const std::string block = got.substr(b * 4096, 4096);
    if (b % 2 == 0) {
      EXPECT_EQ(block, std::string(4096, '\0')) << b;
    } else {
      EXPECT_EQ(block, data.substr(b * 4096, 4096)) << b;
      EXPECT_TRUE(drive_->IsValid(base_ + b * 4096, 4096)) << b;
    }
  }
}

TEST_P(TrimSemanticsTest, ReusedChunkShowsNoStaleBytes) {
  // Fill and trim whole chunks, so their memory is freed; the heap may
  // hand it back to the next fresh chunk.
  ASSERT_TRUE(drive_->Write(base_, Pattern(4 * kChunk, 's')).ok());
  ASSERT_TRUE(drive_->Trim(base_, 4 * kChunk).ok());
  EXPECT_EQ(ReadBack(base_, 4 * kChunk), std::string(4 * kChunk, '\0'));

  // A fresh chunk past all written data: only its new block may hold
  // anything but zeros.
  const uint64_t fresh = base_ + (8ull << 20);
  const std::string block = Pattern(4096, 'n');
  ASSERT_TRUE(drive_->Write(fresh + 5 * 4096, block).ok());
  std::string want(kChunk, '\0');
  want.replace(5 * 4096, 4096, block);
  EXPECT_EQ(ReadBack(fresh, kChunk), want);

  // So does a write that spans the ends of two fresh chunks.
  const std::string span = Pattern(2 * 4096, 'm');
  ASSERT_TRUE(drive_->Write(fresh + 2 * kChunk - 4096, span).ok());
  std::string want2(2 * kChunk, '\0');
  want2.replace(kChunk - 4096, 2 * 4096, span);
  EXPECT_EQ(ReadBack(fresh + kChunk, 2 * kChunk), want2);
}

INSTANTIATE_TEST_SUITE_P(Models, TrimSemanticsTest,
                         ::testing::Values(Model::kHdd, Model::kFixedBand,
                                           Model::kShingled),
                         [](const ::testing::TestParamInfo<Model>& info) {
                           switch (info.param) {
                             case Model::kHdd:
                               return "Hdd";
                             case Model::kFixedBand:
                               return "FixedBand";
                             case Model::kShingled:
                               return "Shingled";
                           }
                           return "unknown";
                         });

// A trim inside a band's valid prefix does not change what the band's
// read-modify-write charges: the staged RMW charges exactly the first one
// DriveChargeTest.FixedBandTrace pins, and the write-back keeps the
// trimmed blocks zero.
TEST(TrimChargeTest, FixedBandRmwAfterTrimChargesAsPinned) {
  const Geometry geo = SmallGeometry();
  FixedBandOptions opt;
  opt.band_bytes = 8ull << 20;
  auto drive = NewFixedBandDrive(geo, LatencyParams::Smr(), opt);
  const uint64_t base = geo.conventional_bytes;
  const uint64_t mb = 1 << 20;
  ASSERT_TRUE(drive->Write(base, Pattern(2 * mb, 'a')).ok());
  ASSERT_TRUE(drive->Write(base + 2 * mb, Pattern(2 * mb, 'b')).ok());
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Trim(base + 3 * mb, 64 << 10); }),
            (Charges{0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(Charged(*drive, true,
                    [&] { return drive->Write(base + mb, Pattern(mb, 'c')); }),
            (Charges{32536691, 7016667, 1, 0, 1, 4194304, 0, 1}));
  EXPECT_EQ(drive->Zone(0).write_pointer, 4 * mb);
  std::string out(64 << 10, '\x5a');
  ASSERT_TRUE(drive->Read(base + 3 * mb, 64 << 10, out.data()).ok());
  EXPECT_EQ(out, std::string(64 << 10, '\0'));
  ASSERT_TRUE(drive->Read(base + mb, 64 << 10, out.data()).ok());
  EXPECT_EQ(out, Pattern(mb, 'c').substr(0, 64 << 10));
}

}  // namespace sealdb::smr
