// End-to-end DB tests, parameterized across the three systems of the paper
// (LevelDB baseline, SMRDB, SEALDB) plus the ablation preset: basic KV
// semantics, iterators, snapshots, compaction progression, and a randomized
// differential test against an in-memory reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/presets.h"
#include "buf/buffer_pool.h"
#include "core/dynamic_band_allocator.h"
#include "fs/file_store.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/write_batch.h"
#include "obs/metrics.h"
#include "smr/drive.h"
#include "util/filter_policy.h"
#include "util/random.h"

namespace sealdb {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

namespace {

// Tiny scale so compactions fire with little data: 64 KB SSTables,
// 640 KB bands, 16 KB tracks.
StackConfig TinyConfig(SystemKind kind) {
  StackConfig config;
  config.kind = kind;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  return config;
}

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%010d", i);
  return buf;
}

std::string Value(int i, int len = 128) {
  Random rnd(i * 2654435761u % 1000000 + 1);
  std::string v;
  v.reserve(len);
  for (int j = 0; j < len; j++) v.push_back('a' + rnd.Uniform(26));
  return v;
}

}  // namespace

class DBTest : public ::testing::TestWithParam<SystemKind> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildStack(TinyConfig(GetParam()), "/db", &stack_).ok());
    db_ = stack_->db();
  }

  Status Put(const std::string& k, const std::string& v) {
    return db_->Put(WriteOptions(), k, v);
  }

  std::string Get(const std::string& k) {
    std::string result;
    Status s = db_->Get(ReadOptions(), k, &result);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return s.ToString();
    return result;
  }

  std::unique_ptr<Stack> stack_;
  DB* db_ = nullptr;
};

TEST_P(DBTest, Empty) { EXPECT_EQ("NOT_FOUND", Get("foo")); }

TEST_P(DBTest, ReadWrite) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  EXPECT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("bar", "v2").ok());
  ASSERT_TRUE(Put("foo", "v3").ok());
  EXPECT_EQ("v3", Get("foo"));
  EXPECT_EQ("v2", Get("bar"));
}

TEST_P(DBTest, PutDeleteGet) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  EXPECT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("foo", "v2").ok());
  EXPECT_EQ("v2", Get("foo"));
  ASSERT_TRUE(db_->Delete(WriteOptions(), "foo").ok());
  EXPECT_EQ("NOT_FOUND", Get("foo"));
}

TEST_P(DBTest, EmptyKeyAndValue) {
  ASSERT_TRUE(Put("", "empty-key-value").ok());
  EXPECT_EQ("empty-key-value", Get(""));
  ASSERT_TRUE(Put("empty-value", "").ok());
  EXPECT_EQ("", Get("empty-value"));
}

TEST_P(DBTest, WriteBatchAtomicity) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ("NOT_FOUND", Get("a"));
  EXPECT_EQ("2", Get("b"));
  EXPECT_EQ("3", Get("c"));
}

TEST_P(DBTest, GetFromDiskAfterFlush) {
  // Write enough to force several memtable flushes and compactions.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(Put(Key(i), Value(i)).ok());
  }
  db_->WaitForIdle();
  std::string prop;
  ASSERT_TRUE(db_->GetProperty("sealdb.num-files-at-level0", &prop));
  for (int i = 0; i < 3000; i += 37) {
    EXPECT_EQ(Value(i), Get(Key(i))) << "key " << i;
  }
  // Flushes definitely happened.
  EXPECT_GT(stack_->metrics_registry()->counter_family_sum(
                "sealdb_engine_flushes_total"),
            0u);
}

TEST_P(DBTest, OverwritesAcrossCompactions) {
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(Put(Key(i), Value(i + round * 1000)).ok());
    }
  }
  db_->WaitForIdle();
  for (int i = 0; i < 500; i += 7) {
    EXPECT_EQ(Value(i + 4000), Get(Key(i)));
  }
}

TEST_P(DBTest, IteratorForward) {
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(Put(Key(i), Value(i, 32)).ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  int count = 0;
  std::string prev;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    EXPECT_LT(prev, iter->key().ToString());
    prev = iter->key().ToString();
    count++;
  }
  EXPECT_EQ(1000, count);
  EXPECT_TRUE(iter->status().ok());
}

TEST_P(DBTest, IteratorBackward) {
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(Put(Key(i), Value(i, 32)).ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  int count = 0;
  std::string prev;
  for (iter->SeekToLast(); iter->Valid(); iter->Prev()) {
    if (!prev.empty()) {
      EXPECT_GT(prev, iter->key().ToString());
    }
    prev = iter->key().ToString();
    count++;
  }
  EXPECT_EQ(300, count);
}

TEST_P(DBTest, IteratorSeek) {
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(Put(Key(i * 10), Value(i, 16)).ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->Seek(Key(55));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(Key(60), iter->key().ToString());
  iter->Seek(Key(990));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(Key(990), iter->key().ToString());
  iter->Seek(Key(991));
  EXPECT_FALSE(iter->Valid());
}

TEST_P(DBTest, IteratorHidesDeletions) {
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  ASSERT_TRUE(Put("c", "3").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "b").ok());
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  std::string keys;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    keys += iter->key().ToString();
  }
  EXPECT_EQ("ac", keys);
}

TEST_P(DBTest, Snapshot) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  const Snapshot* s1 = db_->GetSnapshot();
  ASSERT_TRUE(Put("foo", "v2").ok());
  const Snapshot* s2 = db_->GetSnapshot();
  ASSERT_TRUE(Put("foo", "v3").ok());

  ReadOptions ro;
  std::string value;
  ro.snapshot = s1;
  ASSERT_TRUE(db_->Get(ro, "foo", &value).ok());
  EXPECT_EQ("v1", value);
  ro.snapshot = s2;
  ASSERT_TRUE(db_->Get(ro, "foo", &value).ok());
  EXPECT_EQ("v2", value);
  ro.snapshot = nullptr;
  ASSERT_TRUE(db_->Get(ro, "foo", &value).ok());
  EXPECT_EQ("v3", value);

  db_->ReleaseSnapshot(s1);
  db_->ReleaseSnapshot(s2);
}

TEST_P(DBTest, SnapshotSurvivesCompaction) {
  ASSERT_TRUE(Put("k", "old").ok());
  const Snapshot* snap = db_->GetSnapshot();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(Put("k", "new").ok());
  db_->WaitForIdle();
  ReadOptions ro;
  ro.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(ro, "k", &value).ok());
  EXPECT_EQ("old", value);
  db_->ReleaseSnapshot(snap);
}

TEST_P(DBTest, CompactRange) {
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(Put(Key(i), Value(i)).ok());
  }
  db_->CompactRange(nullptr, nullptr);
  for (int i = 0; i < 2000; i += 97) {
    EXPECT_EQ(Value(i), Get(Key(i)));
  }
  // After a full compaction there is at most one populated deep level
  // (except in SMRDB's two-level mode where data sits in L1).
  std::string l0;
  ASSERT_TRUE(db_->GetProperty("sealdb.num-files-at-level0", &l0));
  EXPECT_EQ("0", l0);
}

// One CompactRange(nullptr, nullptr) compacts every level above the
// deepest populated one to its end: a multi-table L1 over a populated L2
// ends with all of its tables merged into L2.
TEST(CompactRangeTest, EmptiesEveryLevelAboveTheDeepest) {
  for (const SystemKind kind :
       {SystemKind::kLevelDB, SystemKind::kLevelDBWithSets,
        SystemKind::kSEALDB}) {
    SCOPED_TRACE(SystemName(kind));
    std::unique_ptr<Stack> stack;
    ASSERT_TRUE(BuildStack(TinyConfig(kind), "/range", &stack).ok());
    DB* db = stack->db();
    auto files_at = [db](int level) {
      std::string prop;
      EXPECT_TRUE(db->GetProperty(
          "sealdb.num-files-at-level" + std::to_string(level), &prop));
      return std::stoi(prop);
    };

    std::map<std::string, std::string> model;
    Random rnd(17);
    for (int i = 0; i < 12000; i++) {
      const std::string key = Key(rnd.Uniform(8000));
      model[key] = Value(i);
      ASSERT_TRUE(db->Put(WriteOptions(), key, Value(i)).ok());
    }
    db->WaitForIdle();
    ASSERT_GE(files_at(1), 2);
    ASSERT_GE(files_at(2), 1);
    int deepest = 0;
    for (int level = 0; level < stack->options().num_levels; level++) {
      if (files_at(level) > 0) deepest = level;
    }

    db->CompactRange(nullptr, nullptr);

    for (int level = 0; level < deepest; level++) {
      EXPECT_EQ(files_at(level), 0) << "L" << level;
    }
    EXPECT_GT(files_at(deepest), 0);
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    auto mit = model.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
      ASSERT_NE(mit, model.end());
      ASSERT_EQ(it->key().ToString(), mit->first);
      ASSERT_EQ(it->value().ToString(), mit->second);
    }
    EXPECT_EQ(mit, model.end());
    EXPECT_TRUE(it->status().ok());
  }
}

TEST_P(DBTest, GetProperty) {
  std::string value;
  EXPECT_TRUE(db_->GetProperty("sealdb.sstables", &value));
  EXPECT_TRUE(db_->GetProperty("sealdb.approximate-memory-usage", &value));
  EXPECT_FALSE(db_->GetProperty("sealdb.bogus", &value));
  // Counters are registry metrics, not a text property.
  EXPECT_FALSE(db_->GetProperty("sealdb.stats", &value));
  EXPECT_FALSE(db_->GetProperty("other.stats", &value));
}

TEST_P(DBTest, DeviceNeverCorrupted) {
  // The drive models reject unsafe writes with Corruption; a correct
  // storage stack never triggers one. Exercise heavy churn.
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(Put(Key(i % 700), Value(i)).ok()) << "op " << i;
  }
  db_->WaitForIdle();
  for (int i = 0; i < 700; i++) {
    ASSERT_NE("NOT_FOUND", Get(Key(i)));
  }
}

TEST_P(DBTest, RandomizedAgainstModel) {
  std::map<std::string, std::string> model;
  Random rnd(GetParam() == SystemKind::kSEALDB ? 1234 : 4321);
  for (int step = 0; step < 8000; step++) {
    const int op = rnd.Uniform(10);
    const std::string key = Key(rnd.Uniform(400));
    if (op < 7) {
      const std::string value = Value(step, 16 + rnd.Uniform(256));
      ASSERT_TRUE(Put(key, value).ok());
      model[key] = value;
    } else if (op < 9) {
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
      model.erase(key);
    } else {
      auto it = model.find(key);
      const std::string got = Get(key);
      if (it == model.end()) {
        EXPECT_EQ("NOT_FOUND", got) << "step " << step;
      } else {
        EXPECT_EQ(it->second, got) << "step " << step;
      }
    }
  }
  db_->WaitForIdle();
  // Final full comparison via iterator.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());
}

TEST_P(DBTest, StatsAccounting) {
  // Random key order (sequential loads never compact — paper Sec. IV-A2)
  // with enough volume that several levels fill and real compactions run.
  Random rnd(99);
  for (int i = 0; i < 12000; i++) {
    ASSERT_TRUE(Put(Key(rnd.Uniform(20000)), Value(i)).ok());
  }
  db_->WaitForIdle();
  const obs::MetricsRegistry& reg = *stack_->metrics_registry();
  EXPECT_GT(reg.counter_family_sum("sealdb_engine_user_bytes_total"), 0u);
  EXPECT_GT(reg.counter_family_sum("sealdb_engine_flush_bytes_total"), 0u);
  EXPECT_GT(reg.counter_family_sum("sealdb_engine_compactions_total"), 0u);
  EXPECT_GE(stack_->wa(), 1.0);
  // The derived gauge and Stack::wa() share one formula.
  EXPECT_DOUBLE_EQ(reg.gauge_value("sealdb_engine_write_amplification"),
                   stack_->wa());
  // Device accounting is consistent: physical >= logical only through RMW.
  const smr::DeviceMetrics& dev = stack_->drive()->metrics();
  EXPECT_GE(dev.physical_write->Value(), dev.logical_write->Value());
  EXPECT_GE(stack_->mwa(), stack_->wa());
}

TEST_P(DBTest, CompactionEventsRecorded) {
  db_->SetRecordCompactionEvents(true);
  Random rnd(77);
  for (int i = 0; i < 12000; i++) {
    ASSERT_TRUE(Put(Key(rnd.Uniform(20000)), Value(i)).ok());
  }
  db_->WaitForIdle();
  auto events = db_->TakeCompactionEvents();
  ASSERT_FALSE(events.empty());
  for (const CompactionEvent& ev : events) {
    if (ev.trivial_move) continue;
    EXPECT_GT(ev.num_outputs, 0);
    EXPECT_GT(ev.output_bytes, 0u);
    EXPECT_GE(ev.device_seconds, 0.0);
    EXPECT_FALSE(ev.output_placement.empty());
  }
  // Events were drained.
  EXPECT_TRUE(db_->TakeCompactionEvents().empty());
}

TEST_P(DBTest, DestroyRemovesFiles) {
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(Put(Key(i), Value(i)).ok());
  }
  // Destroying requires the DB to be closed; rebuild the stack after.
  fs::FileStore* store = stack_->store();
  Options options = stack_->options();
  // Close DB first via stack teardown is awkward here; instead verify
  // DestroyDB removes a *different* dead prefix safely.
  ASSERT_TRUE(DestroyDB("/nonexistent", options, store).ok());
  EXPECT_EQ("NOT_FOUND", Get("zzz-missing"));
}

// Every compaction times its stages exactly, per batch: read (the input
// images and the first seek), merge (the build stage's wait for, or own
// merging of, the next batch) and write (the build stage's busy time). Every stage must see
// time, the three must sum to the per-level compaction time to the
// nanosecond, and no stage may count more wall time than the writes took.
TEST(CompactionStageTest, StageSplitSumsToCompactionTime) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(
      BuildStack(TinyConfig(SystemKind::kSEALDB), "/stages", &stack).ok());
  ASSERT_EQ(stack->options().max_background_compactions, 0);
  DB* db = stack->db();
  const auto fill_start = std::chrono::steady_clock::now();
  Random rnd(301);
  for (int i = 0; i < 30000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), Key(rnd.Uniform(60000)), Value(i)).ok());
  }
  const uint64_t fill_nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - fill_start)
          .count());

  // Sum a time-counter family in whole nanoseconds, per series, so the
  // comparison below is exact rather than a sum of rounded doubles.
  const obs::MetricsRegistry& reg = *stack->metrics_registry();
  const std::vector<obs::MetricSample> samples = reg.Snapshot();
  auto family_nanos = [&samples](const std::string& name,
                                 const std::string& stage = "") {
    uint64_t total = 0;
    for (const obs::MetricSample& m : samples) {
      if (m.name != name) continue;
      bool match = stage.empty();
      for (const auto& [key, value] : m.labels) {
        if (key == "stage" && value == stage) match = true;
      }
      if (match) total += static_cast<uint64_t>(std::llround(m.value * 1e9));
    }
    return total;
  };
  const std::string kStage = "sealdb_engine_compaction_stage_seconds_total";
  ASSERT_GT(reg.counter_value("sealdb_engine_compactions_total",
                              {{"level", "2"}}),
            0u);
  const uint64_t read = family_nanos(kStage, "read");
  const uint64_t merge = family_nanos(kStage, "merge");
  const uint64_t write = family_nanos(kStage, "write");
  EXPECT_GT(read, 0u);
  EXPECT_GT(merge, 0u);
  EXPECT_GT(write, 0u);
  EXPECT_EQ(read + merge + write,
            family_nanos("sealdb_engine_compaction_seconds_total"));
  EXPECT_LE(family_nanos(kStage), fill_nanos);
}

namespace {

// FNV-1a over `n` bytes, continuing from `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// Logs every drive request, in the order it reaches the drive, and digests
// the bytes written, while `recording` is set.
class RecordingDrive final : public smr::Drive {
 public:
  struct Request {
    bool write;
    uint64_t offset;
    uint64_t n;
  };

  explicit RecordingDrive(std::unique_ptr<smr::Drive> target)
      : target_(std::move(target)) {}

  Status Read(uint64_t offset, uint64_t n, char* scratch) override {
    if (recording) log.push_back({false, offset, n});
    return target_->Read(offset, n, scratch);
  }
  Status Write(uint64_t offset, const Slice& data) override {
    if (recording) {
      log.push_back({true, offset, data.size()});
      written = Fnv1a(written, data.data(), data.size());
    }
    return target_->Write(offset, data);
  }
  Status Trim(uint64_t offset, uint64_t n) override {
    return target_->Trim(offset, n);
  }
  const smr::Geometry& geometry() const override {
    return target_->geometry();
  }
  const smr::DeviceMetrics& metrics() const override {
    return target_->metrics();
  }
  bool IsValid(uint64_t offset, uint64_t n) const override {
    return target_->IsValid(offset, n);
  }

  bool recording = false;
  std::vector<Request> log;
  uint64_t written = kFnvBasis;  // FNV-1a of every recorded write's bytes

 private:
  std::unique_ptr<smr::Drive> target_;
};

bool Overlaps(const RecordingDrive::Request& r, const fs::Extent& e) {
  return r.offset < e.offset + e.length && e.offset < r.offset + r.n;
}

// FileStore writes a file's buffered bytes in chunks of this size.
constexpr uint64_t kWriteChunkBytes = 256 << 10;

// A one-shard SEALDB store at TinyConfig scale over a RecordingDrive.
class CompactionIoTest : public testing::Test {
 protected:
  CompactionIoTest() : config_(TinyConfig(SystemKind::kSEALDB)) {
    geo_.capacity_bytes = config_.capacity_bytes;
    geo_.track_bytes = config_.track_bytes;
    geo_.shingle_overlap_tracks = config_.shingle_overlap_tracks;
    geo_.conventional_bytes = config_.conventional_bytes;
    drive_ = std::make_unique<RecordingDrive>(
        smr::NewShingledDisk(geo_, smr::LatencyParams::Smr()));
    core::DynamicBandOptions aopt;
    aopt.base = geo_.conventional_bytes;
    aopt.limit = geo_.capacity_bytes;
    aopt.track_bytes = geo_.track_bytes;
    aopt.guard_bytes = geo_.guard_bytes();
    aopt.class_unit = config_.sstable_bytes;
    allocator_ = std::make_unique<core::DynamicBandAllocator>(aopt);
    store_ = std::make_unique<fs::FileStore>(drive_.get(), allocator_.get());
    filter_.reset(NewBloomFilterPolicy(10));
    options_.write_buffer_size = config_.write_buffer_bytes;
    options_.max_file_size = config_.sstable_bytes;
    options_.max_bytes_for_level_base = 10 * config_.sstable_bytes;
    options_.filter_policy = filter_.get();
    options_.compaction_unit = CompactionUnit::kSet;
    options_.buffer_pool = &pool_;
  }

  void Open() {
    ASSERT_TRUE(store_->Format().ok());
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/io", store_.get(), &raw).ok());
    db_.reset(raw);
  }

  fs::Extent TableExtent(uint64_t number) {
    std::vector<fs::Extent> extents;
    EXPECT_TRUE(
        store_->GetFileExtents(TableFileName("/io", number), &extents).ok());
    EXPECT_EQ(extents.size(), 1u);
    return extents.empty() ? fs::Extent{} : extents[0];
  }

  // A new table of `file_size` bytes at `e` reached the drive in at most
  // one write per started 256 KiB chunk plus its padded tail, and the
  // drive never read it: the "table is usable" open decodes the tail its
  // builder kept.
  void ExpectChunkedAndNeverRead(const fs::Extent& e, uint64_t file_size) {
    uint64_t writes = 0, reads = 0;
    for (const RecordingDrive::Request& r : drive_->log) {
      if (Overlaps(r, e)) (r.write ? writes : reads)++;
    }
    EXPECT_GE(writes, 1u) << "table at " << e.offset;
    EXPECT_LE(writes, file_size / kWriteChunkBytes + 1)
        << "table at " << e.offset << " of " << file_size << " bytes";
    EXPECT_EQ(reads, 0u) << "table at " << e.offset;
  }

  const StackConfig config_;
  smr::Geometry geo_;
  std::unique_ptr<RecordingDrive> drive_;
  std::unique_ptr<core::DynamicBandAllocator> allocator_;
  std::unique_ptr<fs::FileStore> store_;
  std::unique_ptr<const FilterPolicy> filter_;
  buf::BufferPool pool_{buf::BufferPool::Config{}};  // 8 MiB
  Options options_;
  std::unique_ptr<DB> db_;
};

}  // namespace

// A memtable flush of a 1 MiB buffer: the new table reaches the drive in
// 256 KiB chunks plus its tail, and the flush never reads it back.
TEST_F(CompactionIoTest, FlushWritesInChunksAndNeverReadsTheTable) {
  options_.write_buffer_size = 1 << 20;
  options_.max_file_size = 2 << 20;
  Open();
  DB* db = db_.get();

  std::map<std::string, std::string> model;
  Random rnd(301);
  std::vector<LiveFileMeta> live;
  drive_->recording = true;
  for (int i = 0; live.empty(); i++) {
    ASSERT_LT(i, 20000) << "the memtable never flushed";
    const std::string key = Key(rnd.Uniform(100000));
    model[key] = Value(i);
    ASSERT_TRUE(db->Put(WriteOptions(), key, Value(i)).ok());
    live = db->GetLiveFilesMetadata();
  }
  drive_->recording = false;
  ASSERT_EQ(live.size(), 1u);
  ASSERT_GT(live[0].file_size, 2 * kWriteChunkBytes);
  ExpectChunkedAndNeverRead(TableExtent(live[0].number), live[0].file_size);

  std::string value;
  for (const auto& [key, expected] : model) {
    ASSERT_TRUE(db->Get(ReadOptions(), key, &value).ok()) << key;
    ASSERT_EQ(value, expected) << key;
  }
}

// Set-at-once compaction I/O on a one-shard inline SEALDB store: an L1 file
// over a one-set L2. The compaction reads each input table whole in one
// drive request -- the victim first, then the set in physical order --
// before its first output write; each output reaches the drive in whole
// chunks and is never read back. The recorded range is the first L1
// table's, so the call runs exactly one compaction.
TEST_F(CompactionIoTest, OneReadPerInputBeforeTheFirstOutputWrite) {
  Open();
  DB* db = db_.get();
  RecordingDrive& drive = *drive_;
  const smr::Geometry& geo = geo_;

  // Even keys, in random order, compacted into one set at L2; then odd
  // keys across the same range until the memtable has flushed once, and
  // that L0 file compacted into L1. The recorded compaction merges L1 (the
  // victim) with the L2 set.
  std::map<std::string, std::string> model;
  Random rnd(301);
  for (int i = 0; i < 2000; i++) {
    const std::string key = Key(2 * rnd.Uniform(2000));
    model[key] = Value(i);
    ASSERT_TRUE(db->Put(WriteOptions(), key, Value(i)).ok());
  }
  db->CompactRange(nullptr, nullptr);
  std::string prop;
  for (int i = 0; prop != "1"; i++) {
    ASSERT_LT(i, 2000) << "the memtable never flushed";
    const std::string key = Key(2 * rnd.Uniform(2000) + 1);
    model[key] = Value(i, 100);
    ASSERT_TRUE(db->Put(WriteOptions(), key, Value(i, 100)).ok());
    ASSERT_TRUE(db->GetProperty("sealdb.num-files-at-level0", &prop));
  }
  db->CompactLevelRange(0, nullptr, nullptr);
  ASSERT_TRUE(db->GetProperty("sealdb.num-files-at-level0", &prop));
  ASSERT_EQ(prop, "0");

  std::map<uint64_t, LiveFileMeta> before;
  std::map<uint64_t, fs::Extent> before_extent;
  const LiveFileMeta* victim = nullptr;
  for (const LiveFileMeta& f : db->GetLiveFilesMetadata()) {
    before[f.number] = f;
    before_extent[f.number] = TableExtent(f.number);
  }
  for (const auto& [number, f] : before) {
    if (f.level == 1 && (victim == nullptr ||
                         f.smallest_user_key < victim->smallest_user_key)) {
      victim = &f;
    }
  }
  ASSERT_NE(victim, nullptr);
  const Slice range_begin(victim->smallest_user_key);
  const Slice range_end(victim->largest_user_key);

  db->SetRecordCompactionEvents(true);
  drive.recording = true;
  db->CompactLevelRange(1, &range_begin, &range_end);
  drive.recording = false;
  ASSERT_EQ(db->TakeCompactionEvents().size(), 1u);

  // Inputs are the tables the compaction retired; outputs the new ones.
  std::map<uint64_t, LiveFileMeta> after;
  for (const LiveFileMeta& f : db->GetLiveFilesMetadata()) {
    after[f.number] = f;
  }
  std::vector<std::pair<uint64_t, int>> inputs;  // (number, level)
  for (const auto& [number, f] : before) {
    if (after.count(number) == 0) inputs.emplace_back(number, f.level);
  }
  std::vector<fs::Extent> outputs;
  std::vector<uint64_t> output_sizes;
  for (const auto& [number, f] : after) {
    if (before.count(number) > 0) continue;
    outputs.push_back(TableExtent(number));
    output_sizes.push_back(f.file_size);
  }
  ASSERT_GE(inputs.size(), 3u);
  ASSERT_GE(outputs.size(), 3u);

  const std::vector<RecordingDrive::Request>& log = drive.log;
  auto is_output_write = [&outputs](const RecordingDrive::Request& r) {
    if (!r.write) return false;
    for (const fs::Extent& e : outputs) {
      if (Overlaps(r, e)) return true;
    }
    return false;
  };
  const size_t first_output_write =
      std::find_if(log.begin(), log.end(), is_output_write) - log.begin();
  ASSERT_LT(first_output_write, log.size());

  // Exactly one read per input, covering the block-rounded table, all
  // before the first output write: the L1 victim, then the L2 set, each in
  // physical order.
  const uint64_t block = geo.block_bytes;
  std::vector<std::tuple<size_t, int, uint64_t>> reads;  // (log, level, at)
  for (const auto& [number, level] : inputs) {
    const fs::Extent& e = before_extent[number];
    const uint64_t rounded =
        (before[number].file_size + block - 1) / block * block;
    int count = 0;
    for (size_t i = 0; i < log.size(); i++) {
      if (log[i].write || !Overlaps(log[i], e)) continue;
      count++;
      EXPECT_EQ(log[i].offset, e.offset) << "table " << number;
      EXPECT_EQ(log[i].n, rounded) << "table " << number;
      EXPECT_LT(i, first_output_write) << "table " << number;
      reads.emplace_back(i, level, e.offset);
    }
    EXPECT_EQ(count, 1) << "table " << number << " at L" << level;
  }
  ASSERT_EQ(reads.size(), inputs.size());
  std::sort(reads.begin(), reads.end());
  EXPECT_EQ(std::get<1>(reads.front()), 1) << "the victim is read first";
  EXPECT_EQ(std::get<1>(reads.back()), 2);
  for (size_t i = 1; i < reads.size(); i++) {
    const auto& [prev_log, prev_level, prev_at] = reads[i - 1];
    const auto& [log_index, level, at] = reads[i];
    EXPECT_LT(std::make_pair(prev_level, prev_at), std::make_pair(level, at))
        << "input read out of order at request " << log_index;
  }

  for (size_t i = 0; i < outputs.size(); i++) {
    ExpectChunkedAndNeverRead(outputs[i], output_sizes[i]);
  }

  // Same keys and values as written.
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    ASSERT_EQ(it->key().ToString(), mit->first);
    ASSERT_EQ(it->value().ToString(), mit->second);
  }
  EXPECT_EQ(mit, model.end());
  EXPECT_TRUE(it->status().ok());
}

// Pins the drive request sequence of a fixed one-shard inline SEALDB load
// that runs several set compactions: the count and a digest of every
// request as (write, offset, n), in drive order, and a digest of the bytes
// written, which hold every flush and compaction output table as it reached
// the drive. How the merge loop executes may change; what reaches the
// drive, and when, may not.
TEST_F(CompactionIoTest, SetCompactionDriveSequenceIsPinned) {
  // Small levels, so L2 -> L3 runs and L1 -> L2 outputs cut at their
  // grandparents.
  options_.max_bytes_for_level_base = 2 * config_.sstable_bytes;
  Open();
  DB* db = db_.get();
  db->SetRecordCompactionEvents(true);
  drive_->recording = true;
  // Overwrites and deletions give the merge versions and markers to drop.
  Random rnd(2018);
  for (int i = 0; i < 40000; i++) {
    const std::string key = Key(rnd.Uniform(30000));
    ASSERT_TRUE((i % 8 == 7 ? db->Delete(WriteOptions(), key)
                            : db->Put(WriteOptions(), key, Value(i)))
                    .ok());
  }
  db->WaitForIdle();
  drive_->recording = false;

  int set_compactions = 0;
  for (const CompactionEvent& ev : db->TakeCompactionEvents()) {
    if (!ev.trivial_move && ev.set_id != 0) set_compactions++;
  }
  uint64_t requests = kFnvBasis;
  for (const RecordingDrive::Request& r : drive_->log) {
    const uint64_t fields[3] = {r.write ? 1u : 0u, r.offset, r.n};
    requests = Fnv1a(requests, fields, sizeof(fields));
  }

  EXPECT_EQ(set_compactions, 105);
  EXPECT_EQ(drive_->log.size(), 3451u);
  EXPECT_EQ(requests, 17079167403009610102ull);
  EXPECT_EQ(drive_->written, 16292873472427199908ull);
}

// Write stalls engage when a slowed device lets L0 files pile past the
// lowered triggers, are visible in the registry and through
// DB::WriteStallLevel
// (the hook the serving layer polls for door-level backpressure), and
// release once the device heals and compactions catch up.
TEST(WriteStallTest, SlowDeviceEngagesAndReleasesStall) {
  StackConfig config = TinyConfig(SystemKind::kSEALDB);
  config.fault_injection = true;
  config.inline_compactions = false;
  config.level0_slowdown_writes_trigger = 2;
  config.level0_stop_writes_trigger = 4;
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(config, "/stall", &stack).ok());
  DB* db = stack->db();
  ASSERT_EQ(db->WriteStallLevel(), 0);

  // Congest the device: every drive write sleeps, so flushes and L0
  // compactions fall behind the foreground write rate.
  stack->fault_drive()->SetWriteDelayMicros(500);
  int max_level = 0;
  Random rnd(42);
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), Key(rnd.Uniform(8000)), Value(i)).ok());
    const int level = db->WriteStallLevel();
    if (level > max_level) max_level = level;
  }
  EXPECT_GE(max_level, 1);
  EXPECT_GT(stack->metrics_registry()->counter_family_sum(
                "sealdb_engine_write_stall_events_total"),
            0u);

  // Device healed: the backlog drains and the stall releases.
  stack->fault_drive()->SetWriteDelayMicros(0);
  db->WaitForIdle();
  db->CompactRange(nullptr, nullptr);
  db->WaitForIdle();
  EXPECT_EQ(db->WriteStallLevel(), 0);
  // Writes admitted after the episode behave normally.
  ASSERT_TRUE(db->Put(WriteOptions(), "post-stall", "v").ok());
  std::string v;
  EXPECT_TRUE(db->Get(ReadOptions(), "post-stall", &v).ok());
  EXPECT_EQ(v, "v");
}

INSTANTIATE_TEST_SUITE_P(
    Systems, DBTest,
    ::testing::Values(SystemKind::kLevelDB, SystemKind::kLevelDBWithSets,
                      SystemKind::kSMRDB, SystemKind::kSEALDB),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      switch (info.param) {
        case SystemKind::kLevelDB:
          return "LevelDB";
        case SystemKind::kLevelDBWithSets:
          return "LevelDBWithSets";
        case SystemKind::kSMRDB:
          return "SMRDB";
        case SystemKind::kSEALDB:
          return "SEALDB";
        default:
          return "Other";
      }
    });

}  // namespace sealdb
