// SMRDB baseline tests: two-level structure, overlap allowed in the last
// level, band-aligned placement (no RMW on the fixed-band drive), and
// intra-level merges bounding overlap depth.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/presets.h"
#include "lsm/db.h"
#include "util/random.h"

namespace sealdb {

namespace {

baselines::StackConfig TinySmrdbConfig() {
  baselines::StackConfig config;
  config.kind = baselines::SystemKind::kSMRDB;
  config.capacity_bytes = 512ull << 20;
  config.band_bytes = 640 << 10;     // SSTable == band in SMRDB
  config.sstable_bytes = 64 << 10;   // overridden to band size by preset
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

std::string Value(int i) {
  Random rnd(i + 17);
  std::string v;
  for (int j = 0; j < 256; j++) v.push_back('a' + rnd.Uniform(26));
  return v;
}

}  // namespace

class SmrdbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        baselines::BuildStack(TinySmrdbConfig(), "/db", &stack_).ok());
    db_ = stack_->db();
  }

  std::string Get(const std::string& k) {
    std::string result;
    Status s = db_->Get(ReadOptions(), k, &result);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return s.ToString();
    return result;
  }

  std::unique_ptr<baselines::Stack> stack_;
  DB* db_ = nullptr;
};

TEST_F(SmrdbTest, TwoLevelConfiguration) {
  EXPECT_EQ(stack_->options().num_levels, 2);
  EXPECT_TRUE(stack_->options().allow_overlap_last_level);
  // SSTables enlarged to (just under) the band size so a finished table
  // fits one band exactly.
  EXPECT_GT(stack_->options().max_file_size,
            stack_->config().band_bytes * 7 / 8);
  EXPECT_LE(stack_->options().max_file_size, stack_->config().band_bytes);
}

TEST_F(SmrdbTest, CorrectnessWithOverlappingRuns) {
  // Overwrite the same keys repeatedly so L1 accumulates overlapping runs;
  // lookups must always return the newest version.
  Random rnd(3);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 20000; i++) {
    const std::string k = Key(rnd.Uniform(2500));
    const std::string v = "gen" + std::to_string(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), k, v).ok());
    model[k] = v;
  }
  db_->WaitForIdle();
  for (const auto& [k, v] : model) {
    ASSERT_EQ(v, Get(k)) << k;
  }
}

TEST_F(SmrdbTest, NoBandRmw) {
  // Band-aligned whole-band writes never trigger read-modify-write: SMRDB
  // eliminates AWA (paper Fig. 12a).
  Random rnd(5);
  for (int i = 0; i < 15000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), Key(rnd.Uniform(3000)), Value(i)).ok());
  }
  db_->WaitForIdle();
  EXPECT_EQ(stack_->drive()->metrics().rmw_ops->Value(), 0u);
  EXPECT_DOUBLE_EQ(stack_->awa(), 1.0);
}

TEST_F(SmrdbTest, CompactionsAreLargeAndRare) {
  // The paper's Fig. 10: SMRDB compacts rarely but each compaction moves a
  // lot of data (900 MB at full scale). At our scale, verify that the
  // average compaction size well exceeds the (enlarged) SSTable size once
  // intra-level merges kick in.
  db_->SetRecordCompactionEvents(true);
  Random rnd(7);
  for (int i = 0; i < 60000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), Key(rnd.Uniform(8000)), Value(i)).ok());
  }
  db_->WaitForIdle();
  auto events = db_->TakeCompactionEvents();
  ASSERT_FALSE(events.empty());
  uint64_t merged_bytes = 0;
  int merges = 0;
  for (const auto& ev : events) {
    if (ev.trivial_move) continue;
    merged_bytes += ev.input_bytes;
    merges++;
  }
  ASSERT_GT(merges, 0);
  const double avg = static_cast<double>(merged_bytes) / merges;
  EXPECT_GT(avg, stack_->config().band_bytes / 2.0);
}

TEST_F(SmrdbTest, OverlapDepthBounded) {
  // Intra-level merges keep the number of overlapping runs in check, so
  // reads never degrade unboundedly.
  Random rnd(9);
  for (int i = 0; i < 40000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), Key(rnd.Uniform(2000)), Value(i)).ok());
  }
  db_->WaitForIdle();
  std::string l1_files;
  ASSERT_TRUE(db_->GetProperty("sealdb.num-files-at-level1", &l1_files));
  // The level-1 file count stays proportional to data volume, and reads
  // remain correct (spot check).
  for (int i = 0; i < 2000; i += 131) {
    ASSERT_NE("", Get(Key(i)));
  }
}

TEST_F(SmrdbTest, CompactLevelRangeMergesTheLastLevelInPlace) {
  // A manual compaction of the overlapping last level is one intra-level
  // merge of every table in the range: the call ends, and its outputs
  // stay in L1 as disjoint tables.
  Random rnd(13);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 15000; i++) {
    const std::string k = Key(rnd.Uniform(3000));
    const std::string v = Value(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), k, v).ok());
    model[k] = v;
  }
  db_->WaitForIdle();
  auto l1_tables = [this] {
    std::vector<LiveFileMeta> l1;
    for (const LiveFileMeta& f : db_->GetLiveFilesMetadata()) {
      if (f.level == 1) l1.push_back(f);
    }
    return l1;
  };
  const size_t before = l1_tables().size();
  ASSERT_GE(before, 2u);

  db_->SetRecordCompactionEvents(true);
  db_->CompactLevelRange(1, nullptr, nullptr);
  const std::vector<CompactionEvent> events = db_->TakeCompactionEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].level, 1);
  EXPECT_EQ(events[0].output_level, 1);
  EXPECT_EQ(events[0].num_inputs_base, static_cast<int>(before));
  const std::vector<LiveFileMeta> after = l1_tables();
  ASSERT_EQ(after.size(), static_cast<size_t>(events[0].num_outputs));
  for (size_t i = 0; i < after.size(); i++) {
    for (size_t j = i + 1; j < after.size(); j++) {
      EXPECT_TRUE(after[i].largest_user_key < after[j].smallest_user_key ||
                  after[j].largest_user_key < after[i].smallest_user_key)
          << "tables " << after[i].number << " and " << after[j].number;
    }
  }
  for (const auto& [k, v] : model) {
    ASSERT_EQ(v, Get(k)) << k;
  }
}

TEST_F(SmrdbTest, IteratorOverOverlappingRuns) {
  Random rnd(11);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 15000; i++) {
    const std::string k = Key(rnd.Uniform(1500));
    const std::string v = Value(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), k, v).ok());
    model[k] = v;
  }
  db_->WaitForIdle();
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());
}

}  // namespace sealdb
