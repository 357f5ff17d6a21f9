// Fault-injection tests: programmable read/write errors, torn writes, and
// power cuts at the drive layer, and the retry / quarantine / scrub /
// degraded-mode machinery the layers above build on top of them.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/presets.h"
#include "core/dynamic_band_allocator.h"
#include "fs/doctor.h"
#include "fs/file_store.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/sharded_db.h"
#include "smr/drive.h"
#include "smr/fault_injection_drive.h"
#include "util/random.h"

namespace sealdb {

namespace {

constexpr uint64_t kBlock = 4096;

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%010d", i);
  return buf;
}

std::string Value(int i) {
  Random rnd(i + 3);
  std::string v;
  for (int j = 0; j < 200; j++) v.push_back('a' + rnd.Uniform(26));
  return v;
}

std::string Blocks(int n, char fill) { return std::string(n * kBlock, fill); }

std::unique_ptr<smr::FaultInjectionDrive> MakeFaultHdd() {
  smr::Geometry geo;
  geo.capacity_bytes = 64ull << 20;
  geo.conventional_bytes = 8 << 20;
  return std::make_unique<smr::FaultInjectionDrive>(
      smr::NewHddDrive(geo, smr::LatencyParams::Hdd()));
}

}  // namespace

// ---------------------------------------------------------------------
// Drive layer
// ---------------------------------------------------------------------

TEST(FaultInjectionDriveTest, TransientReadErrorHealsAfterFailures) {
  auto drive = MakeFaultHdd();
  ASSERT_TRUE(drive->Write(0, Blocks(1, 'x')).ok());

  drive->InjectReadError(0, kBlock, /*remaining_failures=*/2);
  std::string buf(kBlock, 0);
  EXPECT_TRUE(drive->Read(0, kBlock, buf.data()).IsIOError());
  EXPECT_TRUE(drive->Read(0, kBlock, buf.data()).IsIOError());
  // Third attempt: the transient fault has burned out.
  ASSERT_TRUE(drive->Read(0, kBlock, buf.data()).ok());
  EXPECT_EQ(Blocks(1, 'x'), buf);
  EXPECT_EQ(2u, drive->metrics().read_errors->Value());
}

TEST(FaultInjectionDriveTest, PermanentReadErrorUntilClearedOrRewritten) {
  auto drive = MakeFaultHdd();
  ASSERT_TRUE(drive->Write(0, Blocks(2, 'y')).ok());

  drive->InjectReadError(kBlock, kBlock);  // second block, permanent
  std::string buf(2 * kBlock, 0);
  for (int i = 0; i < 5; i++) {
    EXPECT_TRUE(drive->Read(0, 2 * kBlock, buf.data()).IsIOError());
  }
  // The first block alone reads fine.
  ASSERT_TRUE(drive->Read(0, kBlock, buf.data()).ok());

  // Explicit clear lifts the fault.
  drive->ClearReadError(kBlock, kBlock);
  ASSERT_TRUE(drive->Read(0, 2 * kBlock, buf.data()).ok());
  EXPECT_EQ(Blocks(2, 'y'), buf);

  // A successful rewrite heals the fault too (sector remap).
  drive->InjectReadError(kBlock, kBlock);
  ASSERT_TRUE(drive->Write(kBlock, Blocks(1, 'z')).ok());
  ASSERT_TRUE(drive->Read(kBlock, kBlock, buf.data()).ok());
  EXPECT_EQ(Blocks(1, 'z'), std::string(buf.data(), kBlock));
}

TEST(FaultInjectionDriveTest, RangedWriteErrors) {
  auto drive = MakeFaultHdd();
  // Writes to [8 MB, inf) fail; the conventional region still works.
  drive->SetWriteError(true, 8 << 20, UINT64_MAX);
  EXPECT_TRUE(drive->Write(0, Blocks(1, 'a')).ok());
  EXPECT_TRUE(drive->Write(8 << 20, Blocks(1, 'b')).IsIOError());
  EXPECT_FALSE(drive->IsValid(8 << 20, kBlock));  // nothing persisted
  EXPECT_EQ(1u, drive->metrics().write_errors->Value());
  drive->SetWriteError(false);
  EXPECT_TRUE(drive->Write(8 << 20, Blocks(1, 'b')).ok());
}

TEST(FaultInjectionDriveTest, TornWritePersistsOnlyPrefix) {
  auto drive = MakeFaultHdd();
  drive->TearNextWrite(/*keep_blocks=*/2);
  Status s = drive->Write(0, Blocks(4, 'w'));
  EXPECT_TRUE(s.IsIOError());

  // First two blocks landed; the rest of the range was never written.
  EXPECT_TRUE(drive->IsValid(0, 2 * kBlock));
  EXPECT_FALSE(drive->IsValid(2 * kBlock, 2 * kBlock));
  std::string buf(2 * kBlock, 0);
  ASSERT_TRUE(drive->Read(0, 2 * kBlock, buf.data()).ok());
  EXPECT_EQ(Blocks(2, 'w'), buf);
  EXPECT_EQ(1u, drive->metrics().torn_writes->Value());

  // One-shot: the next write goes through whole.
  ASSERT_TRUE(drive->Write(0, Blocks(4, 'v')).ok());
  EXPECT_TRUE(drive->IsValid(0, 4 * kBlock));
}

TEST(FaultInjectionDriveTest, CrashPointTearsAndKillsTheDrive) {
  auto drive = MakeFaultHdd();
  drive->CrashAfterBlockWrites(3);
  ASSERT_TRUE(drive->Write(0, Blocks(2, 'a')).ok());  // budget: 1 left

  // This write crosses the budget: one block persists, then power dies.
  Status s = drive->Write(2 * kBlock, Blocks(3, 'b'));
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(drive->crashed());
  EXPECT_EQ(3u, drive->blocks_written());

  // Everything fails while powered off.
  std::string buf(kBlock, 0);
  EXPECT_TRUE(drive->Read(0, kBlock, buf.data()).IsIOError());
  EXPECT_TRUE(drive->Write(0, Blocks(1, 'c')).IsIOError());
  EXPECT_TRUE(drive->Trim(0, kBlock).IsIOError());

  // Power restored: pre-crash data is intact, the torn suffix is not.
  drive->ClearCrash();
  buf.resize(3 * kBlock);
  ASSERT_TRUE(drive->Read(0, 3 * kBlock, buf.data()).ok());
  EXPECT_TRUE(drive->IsValid(2 * kBlock, kBlock));
  EXPECT_FALSE(drive->IsValid(3 * kBlock, kBlock));
  EXPECT_EQ(1u, drive->metrics().crashes->Value());
}

TEST(FaultInjectionDriveTest, ProbabilisticReadErrorsAreTransient) {
  auto drive = MakeFaultHdd();
  ASSERT_TRUE(drive->Write(0, Blocks(1, 'p')).ok());
  drive->SetReadErrorProbability(0.5, /*seed=*/99);
  std::string buf(kBlock, 0);
  int failures = 0;
  for (int i = 0; i < 200; i++) {
    Status s = drive->Read(0, kBlock, buf.data());
    if (!s.ok()) failures++;
  }
  EXPECT_GT(failures, 50);
  EXPECT_LT(failures, 150);
  EXPECT_EQ(static_cast<uint64_t>(failures), drive->metrics().read_errors->Value());
  drive->SetReadErrorProbability(0.0);
  EXPECT_TRUE(drive->Read(0, kBlock, buf.data()).ok());
}

// ---------------------------------------------------------------------
// FileStore layer: retry, quarantine, scrub, journal fault tolerance
// ---------------------------------------------------------------------

class FileStoreFaultTest : public ::testing::Test {
 protected:
  FileStoreFaultTest() {
    fault_ = MakeFaultHdd().release();
    drive_.reset(fault_);
    Rebuild(/*format=*/true);
  }

  void Rebuild(bool format) {
    if (format) {
      NewStore();
      ASSERT_TRUE(store_->Format().ok());
    } else {
      ASSERT_TRUE(Reopen().ok());
    }
  }

  // A fresh store over the drive, recovered from it.
  Status Reopen() {
    NewStore();
    return store_->Recover();
  }

  void NewStore() {
    store_.reset();
    allocator_.reset();
    core::DynamicBandOptions opt;
    opt.base = 8 << 20;
    opt.limit = 64ull << 20;
    opt.track_bytes = 1 << 20;
    opt.guard_bytes = 4 << 20;
    opt.class_unit = 4 << 20;
    allocator_ = std::make_unique<core::DynamicBandAllocator>(opt);
    store_ = std::make_unique<fs::FileStore>(drive_.get(), allocator_.get());
  }

  void WriteFile(const std::string& name, const std::string& payload) {
    std::unique_ptr<fs::WritableFile> f;
    ASSERT_TRUE(store_->NewWritableFile(name, 64 << 10, &f).ok());
    ASSERT_TRUE(f->Append(payload).ok());
    ASSERT_TRUE(f->Close().ok());
  }

  Status ReadAll(const std::string& name, std::string* out) {
    uint64_t size = 0;
    Status s = store_->GetFileSize(name, &size);
    if (!s.ok()) return s;
    std::unique_ptr<fs::RandomAccessFile> f;
    s = store_->NewRandomAccessFile(name, &f);
    if (!s.ok()) return s;
    out->resize(size);
    Slice result;
    s = f->Read(0, size, &result, out->data());
    if (s.ok()) *out = result.ToString();
    return s;
  }

  // One whole ScrubStep pass in 16 KiB steps, the steps' findings summed
  // (a file damaged in two adjacent steps is listed once).
  struct ScrubPass {
    uint64_t bytes_scanned = 0;
    uint64_t bad_blocks = 0;
    uint64_t repaired_blocks = 0;
    std::vector<std::string> damaged_files;
  };
  ScrubPass FullScrubPass() {
    ScrubPass pass;
    fs::ScrubCursor cursor;
    fs::ScrubStepResult step;
    do {
      EXPECT_TRUE(store_->ScrubStep(&cursor, 16 << 10, &step).ok());
      pass.bytes_scanned += step.bytes_scanned;
      pass.bad_blocks += step.bad_blocks;
      pass.repaired_blocks += step.repaired_blocks;
      for (const std::string& name : step.damaged_files) {
        if (pass.damaged_files.empty() || pass.damaged_files.back() != name) {
          pass.damaged_files.push_back(name);
        }
      }
    } while (!step.wrapped);
    return pass;
  }

  uint64_t FirstDataBlock(const std::string& name) {
    std::vector<fs::Extent> extents;
    EXPECT_TRUE(store_->GetFileExtents(name, &extents).ok());
    EXPECT_FALSE(extents.empty());
    return extents[0].offset;
  }

  smr::FaultInjectionDrive* fault_;
  std::unique_ptr<smr::Drive> drive_;
  std::unique_ptr<core::DynamicBandAllocator> allocator_;
  std::unique_ptr<fs::FileStore> store_;
};

TEST_F(FileStoreFaultTest, TransientReadErrorsRetriedInvisibly) {
  const std::string payload(40000, 'q');
  WriteFile("/a", payload);
  // Two failures then heal: within the store's bounded retry budget.
  fault_->InjectReadError(FirstDataBlock("/a"), kBlock, 2);
  std::string got;
  ASSERT_TRUE(ReadAll("/a", &got).ok());
  EXPECT_EQ(payload, got);
  EXPECT_TRUE(store_->QuarantinedBlocks().empty());
}

TEST_F(FileStoreFaultTest, PermanentReadErrorQuarantinesPreciseBlocks) {
  const std::string payload(64 << 10, 'r');
  WriteFile("/a", payload);
  const uint64_t bad = FirstDataBlock("/a") + 2 * kBlock;
  fault_->InjectReadError(bad, kBlock);

  std::string got;
  Status s = ReadAll("/a", &got);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // Exactly the injected block is quarantined.
  EXPECT_EQ(std::vector<uint64_t>{bad}, store_->QuarantinedBlocks());

  // Further reads fail fast (single probe) while the fault persists.
  EXPECT_TRUE(ReadAll("/a", &got).IsIOError());

  // Once the media heals, the probe lifts the quarantine.
  fault_->ClearReadError(bad, kBlock);
  ASSERT_TRUE(ReadAll("/a", &got).ok());
  EXPECT_EQ(payload, got);
  EXPECT_TRUE(store_->QuarantinedBlocks().empty());
}

TEST_F(FileStoreFaultTest, ScrubReportsExactlyTheDamagedFiles) {
  WriteFile("/a", std::string(32 << 10, 'a'));
  WriteFile("/b", std::string(32 << 10, 'b'));
  WriteFile("/c", std::string(32 << 10, 'c'));
  fault_->InjectReadError(FirstDataBlock("/a") + kBlock, kBlock);
  fault_->InjectReadError(FirstDataBlock("/c") + 3 * kBlock, kBlock);

  // Every file is scanned: its logical bytes rounded up to blocks.
  const std::vector<fs::FileInfo> files = store_->ListFiles();
  EXPECT_EQ(3u, files.size());
  uint64_t live_bytes = 0;
  for (const fs::FileInfo& info : files) {
    live_bytes += (info.size + kBlock - 1) / kBlock * kBlock;
  }

  ScrubPass pass = FullScrubPass();
  EXPECT_EQ(live_bytes, pass.bytes_scanned);
  EXPECT_EQ(2u, pass.bad_blocks);
  EXPECT_EQ((std::vector<std::string>{"/a", "/c"}), pass.damaged_files);

  // A clean store scrubs clean (the earlier faults still stand, so clear
  // them first; the probe pass lifts the quarantines).
  fault_->ClearReadError(0, 64ull << 20);
  pass = FullScrubPass();
  EXPECT_TRUE(pass.damaged_files.empty());
  EXPECT_EQ(0u, pass.bad_blocks);
  EXPECT_EQ(2u, pass.repaired_blocks);
  EXPECT_TRUE(store_->QuarantinedBlocks().empty());
}

// Satellite: a checkpoint slot that fails to read must not lose the store —
// recovery falls back to the surviving slot and replays the journal log.
TEST_F(FileStoreFaultTest, CheckpointSlotReadErrorFallsBackToAlternate) {
  for (int i = 0; i < 8; i++) {
    WriteFile("/f" + std::to_string(i), std::string(8 << 10, 'a' + i));
  }
  // Make one slot unreadable.
  const int inactive = 1 - store_->active_checkpoint_slot();
  fault_->InjectReadError(store_->checkpoint_slot_offset(inactive), kBlock);

  Rebuild(/*format=*/false);
  for (int i = 0; i < 8; i++) {
    std::string got;
    ASSERT_TRUE(ReadAll("/f" + std::to_string(i), &got).ok());
    EXPECT_EQ(std::string(8 << 10, 'a' + i), got);
  }
}

// Each checkpoint slot has its own log, and a checkpoint restarts only its
// own: after rollovers, damaging either slot loses no committed change.
// With the newer slot damaged, recovery replays the older slot's log and
// then the damaged slot's, and it reseeds both slots.
TEST_F(FileStoreFaultTest, DamagedCheckpointSlotLosesNoChange) {
  for (const bool damage_newest : {true, false}) {
    SCOPED_TRACE(damage_newest ? "newest slot damaged" : "older slot damaged");
    Rebuild(/*format=*/true);
    std::map<std::string, std::string> want;
    int rollovers = 0;
    for (int i = 0; rollovers < 2 || i % 100 != 99; i++) {
      const int slot = store_->active_checkpoint_slot();
      const std::string name = "/f" + std::to_string(i % 8);
      want[name] = std::string(kBlock, static_cast<char>('a' + i % 26)) +
                   std::to_string(i);
      WriteFile(name, want[name]);
      if (store_->active_checkpoint_slot() != slot) rollovers++;
    }
    const int active = store_->active_checkpoint_slot();
    const int damaged = damage_newest ? active : 1 - active;
    ASSERT_TRUE(drive_->Write(store_->checkpoint_slot_offset(damaged),
                              std::string(kBlock, '\xa5'))
                    .ok());
    // The doctor replays the damaged drive as recovery will.
    fs::DoctorReport report;
    ASSERT_TRUE(fs::RunDoctor(drive_.get(), {}, &report).ok());
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(1, report.shards[0].damaged_checkpoint_slots);
    EXPECT_EQ(want.size(), report.shards[0].files);

    Rebuild(/*format=*/false);
    const auto check = [&] {
      EXPECT_EQ(want.size(), store_->ListFiles().size());
      for (const auto& [name, payload] : want) {
        std::string got;
        ASSERT_TRUE(ReadAll(name, &got).ok()) << name;
        EXPECT_EQ(payload, got) << name;
      }
    };
    check();
    ASSERT_TRUE(fs::RunDoctor(drive_.get(), {}, &report).ok());
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(0, report.shards[0].damaged_checkpoint_slots);

    // The recovered store keeps journaling where recovery left off.
    want["/after"] = "after";
    WriteFile("/after", want["/after"]);
    Rebuild(/*format=*/false);
    check();
  }
}

// A checkpoint rewrite after a damaged slot, by recovery's reseed or by
// the doctor's repair, writes the damaged slot first, so a power cut during
// the rewrite still leaves one valid checkpoint.
TEST_F(FileStoreFaultTest, RewriteAfterDamagedSlotWritesTheDamagedSlotFirst) {
  for (const bool doctor : {false, true}) {
    SCOPED_TRACE(doctor ? "doctor repair" : "recovery reseed");
    // A long name makes every checkpoint span several blocks, so a torn
    // checkpoint write fails its CRC; a new name each round, so the blocks
    // a tear leaves behind never complete the checkpoint being written.
    const std::string longname = "/" + std::string(6000, doctor ? 'd' : 'r');
    Rebuild(/*format=*/true);
    WriteFile(longname, "big-name");
    WriteFile("/after", "after");  // a record in the newest slot's log
    // The newest slot is slot 1: writing the slots in order reaches it
    // second.
    const int newest = store_->active_checkpoint_slot();
    ASSERT_EQ(1, newest);
    ASSERT_TRUE(drive_->Write(store_->checkpoint_slot_offset(newest),
                              std::string(kBlock, '\xa5'))
                    .ok());

    fault_->TearNextWrite(1);
    if (doctor) {
      fs::DoctorOptions dopt;
      dopt.repair = true;
      fs::DoctorReport report;
      EXPECT_FALSE(fs::RunDoctor(drive_.get(), dopt, &report).ok());
    } else {
      EXPECT_FALSE(Reopen().ok());
    }

    Rebuild(/*format=*/false);
    std::string got;
    ASSERT_TRUE(ReadAll(longname, &got).ok());
    EXPECT_EQ("big-name", got);
    ASSERT_TRUE(ReadAll("/after", &got).ok());
    EXPECT_EQ("after", got);
  }
}

// A torn journal append must drop the op on recovery, never corrupt the
// journal: the caller saw an error, so either outcome is legal — but the
// store must come back readable and self-consistent.
TEST_F(FileStoreFaultTest, TornJournalRecordIsDroppedOnRecovery) {
  WriteFile("/keep", "payload");
  // Tear the whole removal record (nothing persists).
  fault_->TearNextWrite(0);
  EXPECT_FALSE(store_->RemoveFile("/keep").ok());

  Rebuild(/*format=*/false);
  EXPECT_TRUE(store_->FileExists("/keep"));
  std::string got;
  ASSERT_TRUE(ReadAll("/keep", &got).ok());
  EXPECT_EQ("payload", got);

  // Multi-block record torn mid-record: the persisted prefix fails its CRC
  // and the op is dropped just the same.
  const std::string longname = "/" + std::string(6000, 'n');
  WriteFile(longname, "big-name");
  fault_->TearNextWrite(1);
  EXPECT_FALSE(store_->RemoveFile(longname).ok());
  Rebuild(/*format=*/false);
  EXPECT_TRUE(store_->FileExists(longname));
  EXPECT_TRUE(store_->FileExists("/keep"));
}

// ---------------------------------------------------------------------
// DB layer: error surfacing and degraded mode
// ---------------------------------------------------------------------

namespace {

baselines::StackConfig FaultConfig(baselines::SystemKind kind) {
  baselines::StackConfig config;
  config.kind = kind;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.fault_injection = true;
  return config;
}

// Loads a one-shard SEALDB stack so that compacting L1 merges it with an L2
// set: even keys, in random order, compacted into one set at L2; odd keys
// across the same range until one memtable flush lands in L0, compacted
// into L1.
void LoadL1OverL2Set(ShardedDb* db) {
  DB* engine = db->shard(0);
  Random rnd(301);
  for (int i = 0; i < 1500; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), Key(2 * rnd.Uniform(1500)), Value(i)).ok());
  }
  db->CompactRange(nullptr, nullptr);
  std::string prop;
  for (int i = 0; prop != "1"; i++) {
    ASSERT_LT(i, 1500) << "the memtable never flushed";
    ASSERT_TRUE(
        db->Put(WriteOptions(), Key(2 * rnd.Uniform(1500) + 1), Value(i)).ok());
    ASSERT_TRUE(engine->GetProperty("sealdb.num-files-at-level0", &prop));
  }
  db->CompactLevelRange(0, nullptr, nullptr);
  ASSERT_TRUE(engine->GetProperty("sealdb.num-files-at-level0", &prop));
  ASSERT_EQ(prop, "0");
}

// The L1 table with the smallest keys: a CompactLevelRange over its key
// range is exactly one compaction, the one that takes it as its victim.
LiveFileMeta FirstL1Table(DB* engine) {
  LiveFileMeta first;
  bool found = false;
  for (const LiveFileMeta& f : engine->GetLiveFilesMetadata()) {
    if (f.level == 1 &&
        (!found || f.smallest_user_key < first.smallest_user_key)) {
      first = f;
      found = true;
    }
  }
  EXPECT_TRUE(found);
  return first;
}

std::set<uint64_t> LiveTables(DB* engine) {
  std::set<uint64_t> live;
  for (const LiveFileMeta& f : engine->GetLiveFilesMetadata()) {
    live.insert(f.number);
  }
  return live;
}

}  // namespace

// An unreadable SSTable block must surface as a non-OK Status on Get —
// never as a silently wrong value.
TEST(DbFaultTest, SSTableReadErrorSurfacesAsStatus) {
  std::unique_ptr<baselines::Stack> stack;
  ASSERT_TRUE(
      baselines::BuildStack(FaultConfig(baselines::SystemKind::kLevelDBOnHdd),
                            "/db", &stack)
          .ok());
  DB* db = stack->db();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  db->WaitForIdle();

  std::string victim;
  for (const std::string& name : stack->store()->GetChildren()) {
    if (name.find(".ldb") != std::string::npos) {
      victim = name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::vector<fs::Extent> extents;
  ASSERT_TRUE(stack->store()->GetFileExtents(victim, &extents).ok());
  ASSERT_FALSE(extents.empty());
  stack->fault_drive()->InjectReadError(extents[0].offset + 2 * kBlock,
                                        4 * kBlock);

  int io_errors = 0, ok = 0;
  std::string value;
  for (int i = 0; i < 2000; i++) {
    Status s = db->Get(ReadOptions(), Key(i), &value);
    if (s.ok()) {
      EXPECT_EQ(Value(i), value) << "silently wrong data for " << Key(i);
      ok++;
    } else {
      EXPECT_FALSE(s.IsNotFound()) << "key vanished: " << Key(i);
      io_errors++;
    }
  }
  EXPECT_GT(io_errors, 0) << "damaged blocks never surfaced";
  EXPECT_GT(ok, 1000) << "undamaged keys should still read";
}

// A persistent write error in the shingled (data) region must leave the DB
// in read-only degraded mode: writes fail fast, reads keep working, nothing
// hangs — and a reopen after the fault clears restores write availability.
// A one-shard stack is the N=1 ShardedDb, so the engine's latch degrades
// shard 0 with the same typed status, property and gauge as any shard of an
// N-shard store.
TEST(DbFaultTest, WriteErrorDuringCompactionDegradesToReadOnly) {
  std::unique_ptr<baselines::Stack> stack;
  ASSERT_TRUE(
      baselines::BuildStack(FaultConfig(baselines::SystemKind::kLevelDBOnHdd),
                            "/db", &stack)
          .ok());
  ASSERT_EQ(stack->num_shards(), 1);
  DB* db = stack->db();
  const int kLoaded = 1500;
  for (int i = 0; i < kLoaded; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  db->WaitForIdle();
  const obs::MetricsRegistry& reg = *stack->metrics_registry();
  EXPECT_EQ(reg.gauge_value("sealdb_shard_degraded", {{"shard", "0"}}), 0.0);

  // All flush/compaction output goes to the shingled space; the WAL and
  // journal live in the conventional region and stay healthy.
  stack->fault_drive()->SetWriteError(true, 8 << 20, UINT64_MAX);

  // Keep writing until a flush is forced into the dead region.
  Status first_error;
  for (int i = 0; i < 5000 && first_error.ok(); i++) {
    first_error = db->Put(WriteOptions(), Key(kLoaded + i), Value(i));
  }
  ASSERT_FALSE(first_error.ok()) << "write error never surfaced";

  // The engine column latched its flush error...
  std::string bg;
  ASSERT_TRUE(stack->db()->shard(0)->GetProperty("sealdb.background-error",
                                                 &bg));
  EXPECT_EQ(bg, "IO error: fault injection: write error");
  EXPECT_EQ(reg.gauge_value("sealdb_engine_background_error"), 1.0);
  // ...so shard 0 is degraded: subsequent writes fail fast with the typed
  // status, which names the engine's error.
  const Status again = db->Put(WriteOptions(), "more", "data");
  EXPECT_TRUE(again.IsShardDegraded()) << again.ToString();
  EXPECT_EQ(again.ToString(), "Shard degraded: shard 0: " + bg);
  std::string health;
  ASSERT_TRUE(db->GetProperty("sealdb.shard-health", &health));
  EXPECT_EQ(health, "shard 0: degraded (" + bg + ")\n");
  EXPECT_EQ(reg.gauge_value("sealdb_shard_degraded", {{"shard", "0"}}), 1.0);

  // Still readable: every acknowledged pre-fault key is intact.
  std::string value;
  for (int i = 0; i < kLoaded; i++) {
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &value).ok()) << Key(i);
    ASSERT_EQ(Value(i), value);
  }

  // Fault repaired + reopen: fully writable again, data intact.
  stack->fault_drive()->SetWriteError(false);
  ASSERT_TRUE(stack->Reopen().ok());
  db = stack->db();
  WriteOptions sync;
  sync.sync = true;
  ASSERT_TRUE(db->Put(sync, "recovered", "yes").ok());
  ASSERT_TRUE(db->Get(ReadOptions(), Key(10), &value).ok());
  EXPECT_EQ(Value(10), value);
  // The reopened engine and its shard start healthy; the wrapper's fault
  // counters sit in the stack's one registry next to the drive's traffic
  // counters.
  ASSERT_TRUE(db->GetProperty("sealdb.shard-health", &health));
  EXPECT_EQ(health, "shard 0: ok\n");
  EXPECT_EQ(reg.gauge_value("sealdb_shard_degraded", {{"shard", "0"}}), 0.0);
  EXPECT_EQ(reg.gauge_value("sealdb_engine_background_error"), 0.0);
  EXPECT_GT(reg.counter_value("sealdb_device_faults_total",
                              {{"kind", "write_error"}}),
            0u);
}

// A compaction input the drive cannot read fails the compaction before it
// writes anything: the engine latches an IOError, no output is installed
// or left in the store, the shard degrades on its next write, and neither
// the allocator nor the on-media metadata holds a leaked extent or region.
TEST(DbFaultTest, CompactionInputReadErrorInstallsNothing) {
  std::unique_ptr<baselines::Stack> stack;
  ASSERT_TRUE(baselines::BuildStack(FaultConfig(baselines::SystemKind::kSEALDB),
                                    "/db", &stack)
                  .ok());
  ShardedDb* db = stack->db();
  DB* engine = db->shard(0);
  // Compacting L1 reads L1 and the L2 set.
  LoadL1OverL2Set(db);
  if (HasFatalFailure()) return;

  // A compacted store at rest holds regions and orphans none.
  fs::DoctorReport doctor_before;
  ASSERT_TRUE(
      fs::RunDoctor(stack->drive(), fs::DoctorOptions(), &doctor_before).ok());
  ASSERT_EQ(doctor_before.shards.size(), 1u);
  EXPECT_GT(doctor_before.shards[0].regions, 0u);
  EXPECT_EQ(doctor_before.shards[0].orphaned_regions, 0u);

  // Make the first L1 table (the compaction's victim) unreadable.
  const std::set<uint64_t> live_before = LiveTables(engine);
  const LiveFileMeta first = FirstL1Table(engine);
  if (HasFailure()) return;
  const std::string victim = TableFileName("/db", first.number);
  std::vector<fs::Extent> extents;
  ASSERT_TRUE(stack->store()->GetFileExtents(victim, &extents).ok());
  stack->fault_drive()->InjectReadError(extents[0].offset + kBlock, kBlock);
  const std::vector<std::string> children = stack->store()->GetChildren();
  const uint64_t allocated = stack->dynamic_allocator()->allocated_bytes();

  const Slice begin(first.smallest_user_key), end(first.largest_user_key);
  engine->SetRecordCompactionEvents(true);
  db->CompactLevelRange(1, &begin, &end);
  EXPECT_EQ(engine->TakeCompactionEvents().size(), 1u);

  std::string bg;
  ASSERT_TRUE(engine->GetProperty("sealdb.background-error", &bg));
  EXPECT_EQ(bg.rfind("IO error", 0), 0u) << bg;
  std::set<uint64_t> live_after;
  for (const LiveFileMeta& f : engine->GetLiveFilesMetadata()) {
    live_after.insert(f.number);
  }
  EXPECT_EQ(live_after, live_before);
  EXPECT_EQ(stack->store()->GetChildren(), children);
  EXPECT_EQ(stack->dynamic_allocator()->allocated_bytes(), allocated);

  // The next write meets the latched error and degrades shard 0.
  EXPECT_FALSE(db->Put(WriteOptions(), "after", "fault").ok());
  EXPECT_TRUE(db->IsShardDegraded(0));
  EXPECT_TRUE(db->Put(WriteOptions(), "again", "fault").IsShardDegraded());

  // The metadata on media holds the same regions and extents as before
  // the failed compaction: nothing allocated, nothing orphaned.
  fs::DoctorReport report;
  ASSERT_TRUE(fs::RunDoctor(stack->drive(), fs::DoctorOptions(), &report).ok());
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_EQ(report.shards.size(), 1u);
  const fs::ShardDoctorReport& was = doctor_before.shards[0];
  const fs::ShardDoctorReport& now = report.shards[0];
  EXPECT_EQ(now.files, was.files) << report.ToString();
  EXPECT_EQ(now.regions, was.regions) << report.ToString();
  EXPECT_EQ(now.orphaned_regions, 0u) << report.ToString();
  EXPECT_EQ(now.live_bytes, was.live_bytes) << report.ToString();
  EXPECT_EQ(now.free_bytes, was.free_bytes) << report.ToString();
}

// A write error after the compaction's first output is closed fails the
// compaction before its commit. Its failure path removes every output and
// releases the set region at once, with no reopen: the store, the
// allocator and the on-media metadata are back where they were.
TEST(DbFaultTest, CompactionWriteErrorRemovesItsOutputs) {
  std::unique_ptr<baselines::Stack> stack;
  ASSERT_TRUE(baselines::BuildStack(FaultConfig(baselines::SystemKind::kSEALDB),
                                    "/db", &stack)
                  .ok());
  ShardedDb* db = stack->db();
  DB* engine = db->shard(0);
  LoadL1OverL2Set(db);
  if (HasFatalFailure()) return;

  fs::DoctorReport doctor_before;
  ASSERT_TRUE(
      fs::RunDoctor(stack->drive(), fs::DoctorOptions(), &doctor_before).ok());
  ASSERT_EQ(doctor_before.shards.size(), 1u);
  const std::set<uint64_t> live_before = LiveTables(engine);
  const std::vector<std::string> children = stack->store()->GetChildren();
  const uint64_t allocated = stack->dynamic_allocator()->allocated_bytes();
  const LiveFileMeta first = FirstL1Table(engine);
  if (HasFailure()) return;
  const Slice begin(first.smallest_user_key), end(first.largest_user_key);

  // The compaction's set region is appended at the residual frontier. Its
  // first output (one 64 KiB table) fits below the faulted range; every
  // write past that fails.
  const uint64_t frontier = stack->dynamic_allocator()->frontier();
  stack->fault_drive()->SetWriteError(true, frontier + 96 * 1024);
  engine->SetRecordCompactionEvents(true);
  db->CompactLevelRange(1, &begin, &end);
  stack->fault_drive()->SetWriteError(false);

  // A second output was opened, so the first one was finished and closed.
  const std::vector<CompactionEvent> events = engine->TakeCompactionEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(events[0].num_outputs, 2);
  std::string bg;
  ASSERT_TRUE(engine->GetProperty("sealdb.background-error", &bg));
  EXPECT_EQ(bg, "IO error: fault injection: write error");

  EXPECT_EQ(LiveTables(engine), live_before);
  EXPECT_EQ(stack->store()->GetChildren(), children);
  EXPECT_EQ(stack->dynamic_allocator()->allocated_bytes(), allocated);

  fs::DoctorReport report;
  ASSERT_TRUE(fs::RunDoctor(stack->drive(), fs::DoctorOptions(), &report).ok());
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_EQ(report.shards.size(), 1u);
  const fs::ShardDoctorReport& was = doctor_before.shards[0];
  const fs::ShardDoctorReport& now = report.shards[0];
  EXPECT_EQ(now.files, was.files) << report.ToString();
  EXPECT_EQ(now.regions, was.regions) << report.ToString();
  EXPECT_EQ(now.orphaned_regions, 0u) << report.ToString();
  EXPECT_EQ(now.live_bytes, was.live_bytes) << report.ToString();
  EXPECT_EQ(now.free_bytes, was.free_bytes) << report.ToString();
}

}  // namespace sealdb
