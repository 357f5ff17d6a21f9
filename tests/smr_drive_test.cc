// Tests for the simulated drive stack: geometry, latency model (calibrated
// against the paper's Table II), the conventional drive, the fixed-band SMR
// drive (read-modify-write => AWA), and the raw shingled disk's safety
// invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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
    uint64_t count = 0, frontier = offset;
    for (uint64_t b = first; b <= last; b++) {
      any = any || ref[b];
      all = all && ref[b];
      if (ref[b]) {
        count++;
        frontier = (b + 1) * 512;
      }
    }
    SCOPED_TRACE("range [" + std::to_string(offset) + ", +" +
                 std::to_string(n) + ")");
    EXPECT_EQ(any, media.AnyValid(offset, n));
    EXPECT_EQ(all, media.AllValid(offset, n));
    EXPECT_EQ(count * 512, media.CountValidBytes(offset, n));
    EXPECT_EQ(frontier, media.ValidFrontier(offset, n));
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
  EXPECT_EQ(0u, media.CountValidBytes(0, 0));
  EXPECT_EQ(4096u, media.ValidFrontier(4096, 0));
}

// --------------------------------------------------------- latency model

TEST(LatencyModel, SequentialReadApproachesTableII) {
  // Stream 64 MB sequentially; effective bandwidth should be close to the
  // 169 MB/s Table II reports for the HDD.
  LatencyModel m(LatencyParams::Hdd(), 1ull << 40);
  double t = 0;
  const uint64_t chunk = 1 << 20;
  for (uint64_t off = 0; off < (64ull << 20); off += chunk) {
    t += m.Access(off, chunk, /*is_write=*/false);
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
    t += m.Access(pos, 4096, /*is_write=*/false);
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
    tr += mr.Access(pos, 4096, false);
    tw += mw.Access(pos, 4096, true);
  }
  EXPECT_LT(tw, tr);
  const double write_iops = 500 / tw;
  EXPECT_GT(write_iops, 100.0);
  EXPECT_LT(write_iops, 250.0);
}

TEST(LatencyModel, SequentialAccessSkipsPositioning) {
  LatencyModel m(LatencyParams::Hdd(), 1ull << 40);
  m.Access(0, 4096, false);
  const double t = m.Access(4096, 4096, false);  // head is already there
  EXPECT_LT(t, 0.001);  // no seek, no rotation
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
  EXPECT_EQ(drive->stats().physical_bytes_written, 8192u);
  EXPECT_EQ(drive->stats().awa(), 1.0);
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
  EXPECT_EQ(drive_->stats().rmw_ops, 0u);
  EXPECT_DOUBLE_EQ(drive_->stats().awa(), 1.0);
}

TEST_F(FixedBandTest, InPlaceRewriteTriggersRmw) {
  const uint64_t base = geo_.conventional_bytes;
  // Fill the whole band sequentially, then rewrite the first megabyte.
  ASSERT_TRUE(drive_->Write(base, Pattern(kBand, 'a')).ok());
  ASSERT_TRUE(drive_->Write(base, Pattern(1048576, 'b')).ok());
  EXPECT_EQ(drive_->stats().rmw_ops, 1u);

  // Data integrity preserved (the read also forces the band write-back).
  std::string out(2 * 1048576, 0);
  ASSERT_TRUE(drive_->Read(base, out.size(), out.data()).ok());
  EXPECT_EQ(Pattern(1048576, 'b'), out.substr(0, 1048576));
  EXPECT_EQ(Pattern(kBand, 'a').substr(1048576, 1048576),
            out.substr(1048576));

  // One band RMW for 1 MB of updates: the whole band prefix was re-read
  // and rewritten, so AWA >> 1.
  EXPECT_GT(drive_->stats().awa(), 1.5);
  EXPECT_GE(drive_->stats().physical_bytes_read, kBand);
}

TEST_F(FixedBandTest, RewriteTailWithoutFollowingDataIsCheap) {
  const uint64_t base = geo_.conventional_bytes;
  ASSERT_TRUE(drive_->Write(base, Pattern(2 * 1048576, 'a')).ok());
  // Rewriting the last written megabyte: trim it first, then nothing valid
  // follows within the damage window, so no RMW is needed.
  ASSERT_TRUE(drive_->Trim(base + 1048576, 1048576).ok());
  ASSERT_TRUE(drive_->Write(base + 1048576, Pattern(1048576, 'b')).ok());
  EXPECT_EQ(drive_->stats().rmw_ops, 0u);
}

TEST_F(FixedBandTest, TrimWholeBandResetsWritePointer) {
  const uint64_t base = geo_.conventional_bytes;
  ASSERT_TRUE(drive_->Write(base, Pattern(kBand, 'a')).ok());
  EXPECT_EQ(drive_->Zone(0).write_pointer, kBand);
  ASSERT_TRUE(drive_->Trim(base, kBand).ok());
  EXPECT_EQ(drive_->Zone(0).write_pointer, 0u);
  // Sequential reuse after reset is RMW-free.
  ASSERT_TRUE(drive_->Write(base, Pattern(kBand, 'b')).ok());
  EXPECT_EQ(drive_->stats().rmw_ops, 0u);
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
  EXPECT_EQ(drive_->stats().rmw_ops, 0u);
  EXPECT_EQ(drive_->Zone(0).write_pointer, kBand);
  EXPECT_EQ(drive_->Zone(1).write_pointer, (12ull << 20) - kBand);
}

TEST_F(FixedBandTest, ConventionalRegionFreelyRewritable) {
  ASSERT_TRUE(drive_->Write(0, Pattern(4096, 'a')).ok());
  ASSERT_TRUE(drive_->Write(0, Pattern(4096, 'b')).ok());
  EXPECT_EQ(drive_->stats().rmw_ops, 0u);
}

TEST_F(FixedBandTest, SameBandUpdatesBatchIntoOneRmw) {
  // Consecutive updates to the SAME band batch into one staged RMW (the
  // translation layer buffers the band and writes it back once).
  const uint64_t base = geo_.conventional_bytes;
  ASSERT_TRUE(drive_->Write(base, Pattern(kBand, 'a')).ok());
  const auto before = drive_->stats();
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(drive_->Write(base + i * 1048576, Pattern(1048576, 'b')).ok());
  }
  drive_->Zone(0);  // forces the write-back
  const auto delta = drive_->stats() - before;
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
  const auto before = drive_->stats();
  for (int i = 0; i < 4; i++) {
    const uint64_t band_base = base + (i % 2) * kBand;
    ASSERT_TRUE(
        drive_->Write(band_base + 1048576, Pattern(1048576, 'c')).ok());
  }
  drive_->Zone(0);  // flush the last staged band
  const auto delta = drive_->stats() - before;
  EXPECT_EQ(delta.rmw_ops, 4u);
  // 4 MB logical, ~4 band write-backs (8 MB each): AWA ~ 8.
  EXPECT_GT(delta.awa(), 4.0);
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
  std::unique_ptr<ShingledDisk> disk_;
  uint64_t base_;
};

TEST_F(ShingledDiskTest, AppendSequentially) {
  ASSERT_TRUE(disk_->Write(base_, Pattern(1 << 20, 'a')).ok());
  ASSERT_TRUE(disk_->Write(base_ + (1 << 20), Pattern(1 << 20, 'b')).ok());
  EXPECT_EQ(disk_->valid_bytes(), 2u << 20);
  EXPECT_EQ(disk_->ValidFrontier(), base_ + (2 << 20));
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
  EXPECT_EQ(disk_->valid_bytes(), 0u);
  ASSERT_TRUE(disk_->Write(base_, Pattern(1 << 20, 'b')).ok());
  EXPECT_EQ(disk_->valid_bytes(), 1u << 20);
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
  EXPECT_DOUBLE_EQ(disk_->stats().awa(), 1.0);
  EXPECT_EQ(disk_->stats().rmw_ops, 0u);
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
    t_full += full.Access(offset, 4 << 20, false);
    t_scaled += scaled.Access(offset, 256 << 10, false);
  }
  // Same positioning:transfer ratio means scaled time = full time / 16.
  EXPECT_NEAR(t_full / t_scaled, 16.0, 1.6);
}

TEST(LatencyModel, CachedAccessSkipsPositioning) {
  LatencyModel m(LatencyParams::Hdd(), 1ull << 40);
  m.Access(1ull << 30, 4096, true);  // park the head somewhere
  const uint64_t head = m.head_position();
  const double t = m.AccessCached(4096, true);
  EXPECT_LT(t, 0.001);                      // no seek, no rotation
  EXPECT_EQ(m.head_position(), head);       // head untouched
}

TEST(LatencyModel, ScaleOfOneIsIdentity) {
  const LatencyParams p = LatencyParams::Smr();
  const LatencyParams q = p.TimeScaled(1);
  EXPECT_DOUBLE_EQ(p.max_seek_s, q.max_seek_s);
  EXPECT_DOUBLE_EQ(p.rotation_s, q.rotation_s);
}

// Device stats subtraction helper.
TEST(DeviceStats, Subtraction) {
  DeviceStats a, b;
  a.logical_bytes_written = 100;
  a.physical_bytes_written = 300;
  a.busy_seconds = 2.0;
  b.logical_bytes_written = 40;
  b.physical_bytes_written = 100;
  b.busy_seconds = 0.5;
  DeviceStats d = a - b;
  EXPECT_EQ(d.logical_bytes_written, 60u);
  EXPECT_EQ(d.physical_bytes_written, 200u);
  EXPECT_DOUBLE_EQ(d.busy_seconds, 1.5);
  EXPECT_NEAR(d.awa(), 200.0 / 60.0, 1e-9);
  EXPECT_FALSE(a.ToString().empty());
}

}  // namespace sealdb::smr
