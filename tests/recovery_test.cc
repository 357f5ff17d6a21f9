// Crash/recovery tests: WAL replay, rebuilding the LSM from the store's
// table tags, synced-vs-unsynced durability across a simulated power cycle
// (Stack::Reopen rebuilds the whole software stack from drive contents
// only).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/presets.h"
#include "fs/file_store.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "smr/fault_injection_drive.h"
#include "util/random.h"

namespace sealdb {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

namespace {

StackConfig TinyConfig(SystemKind kind) {
  StackConfig config;
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

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%010d", i);
  return buf;
}

}  // namespace

class RecoveryTest : public ::testing::TestWithParam<SystemKind> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildStack(TinyConfig(GetParam()), "/db", &stack_).ok());
  }

  DB* db() { return stack_->db(); }

  std::string Get(const std::string& k) {
    std::string result;
    Status s = db()->Get(ReadOptions(), k, &result);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return s.ToString();
    return result;
  }

  void Crash() { ASSERT_TRUE(stack_->Reopen().ok()); }

  std::unique_ptr<Stack> stack_;
};

TEST_P(RecoveryTest, SyncedWritesSurvive) {
  WriteOptions sync;
  sync.sync = true;
  ASSERT_TRUE(db()->Put(sync, "alpha", "1").ok());
  ASSERT_TRUE(db()->Put(sync, "beta", "2").ok());
  Crash();
  EXPECT_EQ("1", Get("alpha"));
  EXPECT_EQ("2", Get("beta"));
}

TEST_P(RecoveryTest, FlushedTablesSurviveWithoutSync) {
  // Enough data to flush memtables: tables + manifest are durable even
  // though individual writes were not synced.
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db()->Put(WriteOptions(), Key(i), "v" + std::to_string(i))
                    .ok());
  }
  db()->WaitForIdle();
  Crash();
  // Everything that reached SSTables must be present; allow the unsynced
  // WAL tail (last partial memtable) to be missing.
  int found = 0;
  for (int i = 0; i < 2000; i++) {
    if (Get(Key(i)) == "v" + std::to_string(i)) found++;
  }
  EXPECT_GT(found, 1500);
}

TEST_P(RecoveryTest, DeletionsSurvive) {
  WriteOptions sync;
  sync.sync = true;
  ASSERT_TRUE(db()->Put(sync, "doomed", "x").ok());
  ASSERT_TRUE(db()->Delete(sync, "doomed").ok());
  Crash();
  EXPECT_EQ("NOT_FOUND", Get("doomed"));
}

TEST_P(RecoveryTest, RepeatedCrashes) {
  WriteOptions sync;
  sync.sync = true;
  std::map<std::string, std::string> model;
  Random rnd(7);
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < 300; i++) {
      const std::string k = Key(rnd.Uniform(500));
      const std::string v = "r" + std::to_string(round) + "i" +
                            std::to_string(i);
      ASSERT_TRUE(db()->Put(sync, k, v).ok());
      model[k] = v;
    }
    Crash();
    for (const auto& [k, v] : model) {
      ASSERT_EQ(v, Get(k)) << "round " << round << " key " << k;
    }
  }
}

TEST_P(RecoveryTest, RecoveryAfterCompactions) {
  WriteOptions sync;
  sync.sync = true;
  for (int i = 0; i < 3000; i++) {
    // Sync every 100th write so sequence state is mostly durable.
    WriteOptions wo;
    wo.sync = (i % 100 == 0);
    ASSERT_TRUE(
        db()->Put(wo, Key(i % 800), "gen" + std::to_string(i)).ok());
  }
  db()->WaitForIdle();
  ASSERT_TRUE(db()->Put(sync, "sentinel", "present").ok());
  Crash();
  EXPECT_EQ("present", Get("sentinel"));
  // DB remains writable and consistent after recovery.
  ASSERT_TRUE(db()->Put(sync, "post-crash", "yes").ok());
  EXPECT_EQ("yes", Get("post-crash"));
  db()->WaitForIdle();
}

TEST_P(RecoveryTest, SequenceNumbersMonotonicAcrossCrash) {
  WriteOptions sync;
  sync.sync = true;
  ASSERT_TRUE(db()->Put(sync, "k", "v1").ok());
  Crash();
  // A new write after recovery must supersede the old one.
  ASSERT_TRUE(db()->Put(sync, "k", "v2").ok());
  EXPECT_EQ("v2", Get("k"));
  Crash();
  EXPECT_EQ("v2", Get("k"));
}

// The store's table tags are the whole LSM: a reopen rebuilds every live
// table's level, number, size, set id and key range exactly.
TEST_P(RecoveryTest, LiveFilesSurviveReopen) {
  Random rnd(11);
  for (int i = 0; i < 12000; i++) {
    ASSERT_TRUE(db()->Put(WriteOptions(), Key(rnd.Uniform(6000)),
                          std::string(200, 'a' + i % 26))
                    .ok());
  }
  db()->WaitForIdle();
  // Compacting part of the key space flushes the memtable first, so the
  // WAL the reopen replays is empty and adds no table.
  const std::string begin = Key(0), end = Key(1000);
  const Slice begin_slice(begin), end_slice(end);
  db()->CompactRange(&begin_slice, &end_slice);
  db()->WaitForIdle();

  using Row = std::tuple<int, uint64_t, uint64_t, uint64_t, std::string,
                         std::string>;
  auto rows = [this] {
    std::vector<Row> out;
    for (const LiveFileMeta& f : db()->GetLiveFilesMetadata()) {
      out.emplace_back(f.level, f.number, f.file_size, f.set_id,
                       f.smallest_user_key, f.largest_user_key);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<Row> before = rows();
  ASSERT_GT(before.size(), 1u);
  std::set<int> levels;
  bool has_sets = false;
  for (const Row& r : before) {
    levels.insert(std::get<0>(r));
    has_sets = has_sets || std::get<3>(r) != 0;
  }
  if (GetParam() != SystemKind::kSMRDB) EXPECT_GT(levels.size(), 1u);
  EXPECT_EQ(has_sets, GetParam() == SystemKind::kSEALDB);

  Crash();
  EXPECT_EQ(rows(), before);
}

// A power cut right after a flush's commit. That one record installed the
// table and removed the WAL it covers, so recovery replays only the newer
// WAL: no write is applied twice, and later writes still win.
TEST_P(RecoveryTest, CrashAfterFlushCommitReplaysOnlyNewerWal) {
  WriteOptions sync;
  sync.sync = true;
  fs::FileStore* store = stack_->store();
  auto wals = [&store] {
    std::set<std::string> out;
    for (const std::string& name : store->GetChildren()) {
      uint64_t number;
      FileType type;
      if (ParseFileName(name, &number, &type) && type == kLogFile) {
        out.insert(name);
      }
    }
    return out;
  };
  // Sequential keys until a put triggers the first flush: that put lands
  // in the WAL the flush switched to.
  int last = 0;
  std::set<std::string> covered;
  for (;; last++) {
    ASSERT_LT(last, 5000) << "the memtable never flushed";
    covered = wals();
    ASSERT_TRUE(db()->Put(sync, Key(last), "v" + std::to_string(last)).ok());
    if (!db()->GetLiveFilesMetadata().empty()) break;
  }
  std::set<uint64_t> tables;
  for (const LiveFileMeta& f : db()->GetLiveFilesMetadata()) {
    tables.insert(f.number);
  }
  ASSERT_FALSE(covered.empty());
  for (const std::string& name : covered) {
    EXPECT_EQ(wals().count(name), 0u) << name << " outlived its flush";
  }

  stack_->fault_drive()->PowerOff();
  Crash();
  store = stack_->store();
  for (const std::string& name : covered) {
    EXPECT_FALSE(store->FileExists(name)) << name << " came back";
  }
  // The flushed table is still there; the only new table holds the one
  // put of the newer WAL.
  for (const LiveFileMeta& f : db()->GetLiveFilesMetadata()) {
    if (tables.count(f.number) > 0) continue;
    EXPECT_EQ(f.smallest_user_key, Key(last)) << "replayed twice";
    EXPECT_EQ(f.largest_user_key, Key(last)) << "replayed twice";
  }
  for (int i = 0; i <= last; i++) {
    ASSERT_EQ("v" + std::to_string(i), Get(Key(i)));
  }

  ASSERT_TRUE(db()->Put(sync, Key(0), "newer").ok());
  EXPECT_EQ("newer", Get(Key(0)));
  Crash();
  EXPECT_EQ("newer", Get(Key(0)));
}

// Unsynced-data loss semantics under a real power cut (not a polite
// teardown): synced keys must survive with their exact values; unsynced
// keys may vanish, but a read must never return corrupt bytes or an error.
TEST_P(RecoveryTest, UnsyncedLossSemantics) {
  WriteOptions sync;
  sync.sync = true;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db()->Put(sync, Key(i), "durable" + std::to_string(i)).ok());
  }
  for (int i = 50; i < 100; i++) {
    ASSERT_TRUE(
        db()->Put(WriteOptions(), Key(i), "volatile" + std::to_string(i))
            .ok());
  }
  // Cut the power: the DB teardown inside Reopen() flushes into a dead
  // drive, so nothing unsynced can sneak to the media.
  stack_->fault_drive()->PowerOff();
  Crash();
  for (int i = 0; i < 50; i++) {
    EXPECT_EQ("durable" + std::to_string(i), Get(Key(i))) << "key " << i;
  }
  for (int i = 50; i < 100; i++) {
    const std::string got = Get(Key(i));
    EXPECT_TRUE(got == "volatile" + std::to_string(i) || got == "NOT_FOUND")
        << "key " << i << " got " << got;
  }
  // The store is fully functional after power restore.
  ASSERT_TRUE(db()->Put(sync, "after", "restore").ok());
  EXPECT_EQ("restore", Get("after"));
}

// Model-based crash fuzz through the whole stack: random puts/deletes with
// occasional syncs and power cuts. Invariant: after recovery, every key
// reflects some prefix of the applied operations that includes everything
// up to the last synced write (no reordering, no resurrection, no
// corruption).
TEST_P(RecoveryTest, CrashFuzzAgainstModel) {
  Random rnd(static_cast<uint32_t>(
      2026 + static_cast<int>(GetParam())));
  // Recovery may cut the WAL at any point at or after the last synced
  // write, so after a crash each key may expose ANY state it held since
  // that durable floor (including deletion). Keys first touched after the
  // floor may also legitimately be absent entirely.
  const std::string kAbsent = "NOT_FOUND";
  struct KeyModel {
    std::vector<std::string> states;  // states since the durable floor
    bool floored = false;             // states[0] is guaranteed durable
  };
  std::map<std::string, KeyModel> model;
  auto latest = [&](const std::string& k) -> std::string {
    auto it = model.find(k);
    return it == model.end() || it->second.states.empty()
               ? kAbsent
               : it->second.states.back();
  };
  // A synced write makes every earlier operation durable too.
  auto collapse_to_latest = [&] {
    for (auto& [k, km] : model) {
      if (!km.states.empty()) km.states = {km.states.back()};
      km.floored = true;
    }
  };

  for (int step = 0; step < 2500; step++) {
    const int op = rnd.Uniform(100);
    if (op < 70) {
      const std::string k = Key(rnd.Uniform(300));
      const std::string v = "s" + std::to_string(step);
      WriteOptions wo;
      wo.sync = rnd.OneIn(10);
      ASSERT_TRUE(db()->Put(wo, k, v).ok());
      model[k].states.push_back(v);
      if (wo.sync) collapse_to_latest();
    } else if (op < 85) {
      const std::string k = Key(rnd.Uniform(300));
      WriteOptions wo;
      wo.sync = rnd.OneIn(10);
      ASSERT_TRUE(db()->Delete(wo, k).ok());
      model[k].states.push_back(kAbsent);
      if (wo.sync) collapse_to_latest();
    } else if (op < 97) {
      // Read against the live state.
      const std::string k = Key(rnd.Uniform(300));
      ASSERT_EQ(latest(k), Get(k)) << "step " << step;
    } else {
      Crash();
      for (const auto& [k, km] : model) {
        const std::string got = Get(k);
        bool acceptable = !km.floored && got == kAbsent;
        for (const std::string& v : km.states) {
          if (got == v) acceptable = true;
        }
        ASSERT_TRUE(acceptable) << "step " << step << " key " << k
                                << " got " << got;
      }
      // The recovered state becomes the new baseline; recovered values are
      // durable (their WAL records or tables survive future crashes).
      model.clear();
      std::unique_ptr<Iterator> iter(db()->NewIterator(ReadOptions()));
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        KeyModel km;
        km.states = {iter->value().ToString()};
        km.floored = true;
        model[iter->key().ToString()] = std::move(km);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, RecoveryTest,
                         ::testing::Values(SystemKind::kLevelDB,
                                           SystemKind::kSMRDB,
                                           SystemKind::kSEALDB),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                           switch (info.param) {
                             case SystemKind::kLevelDB:
                               return "LevelDB";
                             case SystemKind::kSMRDB:
                               return "SMRDB";
                             case SystemKind::kSEALDB:
                               return "SEALDB";
                             default:
                               return "Other";
                           }
                         });

}  // namespace sealdb
