// Set-parallel compaction executor: conflict-detector unit tests plus a
// multi-threaded read/write stress that drives >= 2 concurrent compactions
// and checks Get/iterator consistency throughout. Registered under the
// ctest label "stress" and intended to run under TSan as well
// (-DSEALDB_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "lsm/db.h"
#include "lsm/version_set.h"
#include "util/comparator.h"
#include "util/random.h"

namespace sealdb {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

// ---------------------------------------------------------------------------
// Conflict detector.

class ReservationsTest : public ::testing::Test {
 protected:
  ReservationsTest() : res_(BytewiseComparator()) {}
  CompactionReservations res_;
};

TEST_F(ReservationsTest, DisjointRangesSameLevelsCoexist) {
  uint64_t a = res_.TryReserveRange(1, 2, "a", "f", {10, 11});
  ASSERT_NE(a, 0u);
  uint64_t b = res_.TryReserveRange(1, 2, "g", "m", {12, 13});
  ASSERT_NE(b, 0u);
  EXPECT_EQ(res_.active(), 2u);
  res_.Release(a);
  res_.Release(b);
  EXPECT_EQ(res_.active(), 0u);
}

TEST_F(ReservationsTest, OverlappingRangesSameLevelsConflict) {
  uint64_t a = res_.TryReserveRange(1, 2, "a", "k", {10});
  ASSERT_NE(a, 0u);
  // Any overlap of the key hulls on a shared level span must be refused.
  EXPECT_EQ(res_.TryReserveRange(1, 2, "c", "d", {11}), 0u);
  EXPECT_EQ(res_.TryReserveRange(2, 3, "k", "z", {12}), 0u);
  res_.Release(a);
  EXPECT_NE(res_.TryReserveRange(1, 2, "c", "d", {11}), 0u);
}

TEST_F(ReservationsTest, OverlappingRangesDisjointLevelsCoexist) {
  // Same keys but disjoint level spans: nothing can interleave, so both may
  // run (e.g. an L0->L1 merge and an L3->L4 merge of the same key space).
  uint64_t a = res_.TryReserveRange(0, 1, "a", "z", {10});
  ASSERT_NE(a, 0u);
  uint64_t b = res_.TryReserveRange(3, 4, "a", "z", {20});
  EXPECT_NE(b, 0u);
  res_.Release(a);
  res_.Release(b);
}

TEST_F(ReservationsTest, SharedInputFileAlwaysConflicts) {
  // Even with disjoint levels and ranges, a shared file number means two
  // compactions would both consume (and delete) the same table.
  uint64_t a = res_.TryReserveRange(0, 1, "a", "f", {42});
  ASSERT_NE(a, 0u);
  EXPECT_EQ(res_.TryReserveRange(3, 4, "p", "z", {42}), 0u);
  res_.Release(a);
}

TEST_F(ReservationsTest, RangeAndFileQueries) {
  uint64_t a = res_.TryReserveRange(1, 2, "g", "m", {7, 8});
  ASSERT_NE(a, 0u);
  EXPECT_TRUE(res_.RangeReserved(1, "a", "h"));
  EXPECT_TRUE(res_.RangeReserved(2, "m", "z"));
  EXPECT_FALSE(res_.RangeReserved(1, "a", "f"));
  EXPECT_FALSE(res_.RangeReserved(3, "g", "m"));
  EXPECT_TRUE(res_.FileReserved(7));
  EXPECT_FALSE(res_.FileReserved(9));
  res_.Release(a);
  EXPECT_FALSE(res_.RangeReserved(1, "a", "h"));
  EXPECT_FALSE(res_.FileReserved(7));
}

TEST_F(ReservationsTest, ManyDisjointSetsNeverConflict) {
  // The SEALDB property the executor exploits: distinct sets have disjoint
  // key hulls, so any number of set compactions co-schedule freely.
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 16; i++) {
    std::string lo(1, static_cast<char>('a' + i));
    std::string hi = lo + "zzz";
    uint64_t t = res_.TryReserveRange(1, 2, lo, hi,
                                      {static_cast<uint64_t>(100 + i)});
    ASSERT_NE(t, 0u) << "set " << i;
    tickets.push_back(t);
  }
  EXPECT_EQ(res_.active(), 16u);
  for (uint64_t t : tickets) res_.Release(t);
  EXPECT_EQ(res_.active(), 0u);
}

// ---------------------------------------------------------------------------
// Multi-threaded stress.

namespace {

StackConfig StressConfig(SystemKind kind) {
  StackConfig config;
  config.kind = kind;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.inline_compactions = false;
  config.max_background_compactions = 4;
  return config;
}

std::string Key(int shard, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "s%02d-key%08d", shard, i);
  return buf;
}

std::string Value(int shard, int i, int gen) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "v-%02d-%08d-%06d-", shard, i, gen);
  std::string v = buf;
  Random rnd(shard * 1000003 + i * 131 + gen);
  while (v.size() < 180) v.push_back('a' + rnd.Uniform(26));
  return v;
}

}  // namespace

class ParallelCompactionTest : public ::testing::TestWithParam<SystemKind> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildStack(StressConfig(GetParam()), "/db", &stack_).ok());
    db_ = stack_->db();
  }

  std::unique_ptr<Stack> stack_;
  DB* db_ = nullptr;
};

TEST_P(ParallelCompactionTest, ConcurrentWritersAndReaders) {
  // Four writer shards with disjoint key prefixes (so SEALDB forms disjoint
  // sets) plus two readers validating self-consistency of whatever they see.
  // Enough unique data (~8000 keys, a few MB) to populate two disk levels,
  // so disjoint deeper merges exist for the executor to overlap.
  constexpr int kShards = 4;
  constexpr int kKeysPerShard = 2000;
  constexpr int kOpsPerShard = 8000;

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;

  for (int shard = 0; shard < kShards; shard++) {
    threads.emplace_back([&, shard]() {
      Random rnd(1000 + shard);
      for (int op = 0; op < kOpsPerShard && !failed.load(); op++) {
        const int i = static_cast<int>(rnd.Uniform(kKeysPerShard));
        Status s = db_->Put(WriteOptions(), Key(shard, i),
                            Value(shard, i, op));
        if (!s.ok()) {
          ADD_FAILURE() << "Put failed: " << s.ToString();
          failed.store(true);
          return;
        }
      }
    });
  }

  // Readers: every observed value must be well-formed and match its key
  // (writers only ever store Value(shard, i, gen) under Key(shard, i)).
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&, r]() {
      Random rnd(77 + r);
      while (!done.load() && !failed.load()) {
        const int shard = static_cast<int>(rnd.Uniform(kShards));
        const int i = static_cast<int>(rnd.Uniform(kKeysPerShard));
        std::string value;
        Status s = db_->Get(ReadOptions(), Key(shard, i), &value);
        if (s.IsNotFound()) continue;  // not written yet
        if (!s.ok()) {
          ADD_FAILURE() << "Get failed: " << s.ToString();
          failed.store(true);
          return;
        }
        char want[64];
        std::snprintf(want, sizeof(want), "v-%02d-%08d-", shard, i);
        if (value.compare(0, std::strlen(want), want) != 0) {
          ADD_FAILURE() << "key " << Key(shard, i)
                        << " holds foreign value prefix "
                        << value.substr(0, 16);
          failed.store(true);
          return;
        }
      }
    });
  }

  // Iterator thread: scans must stay sorted and see each key at most once.
  threads.emplace_back([&]() {
    while (!done.load() && !failed.load()) {
      std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
      std::string prev;
      for (iter->SeekToFirst(); iter->Valid() && !failed.load();
           iter->Next()) {
        std::string k = iter->key().ToString();
        if (!prev.empty() && k <= prev) {
          ADD_FAILURE() << "iterator out of order: " << prev << " then " << k;
          failed.store(true);
          break;
        }
        prev = std::move(k);
      }
      if (!iter->status().ok()) {
        ADD_FAILURE() << "iterator error: " << iter->status().ToString();
        failed.store(true);
      }
    }
  });

  for (int shard = 0; shard < kShards; shard++) threads[shard].join();
  done.store(true);
  for (size_t t = kShards; t < threads.size(); t++) threads[t].join();
  ASSERT_FALSE(failed.load());

  db_->WaitForIdle();

  // Final ground-truth check: last writer generation must win per key.
  for (int shard = 0; shard < kShards; shard++) {
    Random rnd(1000 + shard);
    std::map<int, int> last_gen;
    for (int op = 0; op < kOpsPerShard; op++) {
      last_gen[static_cast<int>(rnd.Uniform(kKeysPerShard))] = op;
    }
    for (const auto& [i, gen] : last_gen) {
      std::string value;
      ASSERT_TRUE(db_->Get(ReadOptions(), Key(shard, i), &value).ok())
          << Key(shard, i);
      ASSERT_EQ(Value(shard, i, gen), value) << Key(shard, i);
    }
  }

  const obs::MetricsRegistry& reg = *stack_->metrics_registry();
  EXPECT_GT(reg.counter_family_sum("sealdb_engine_compactions_total"), 0u);
  EXPECT_GE(reg.gauge_family_max("sealdb_engine_max_parallel_compactions"),
            2.0)
      << "executor never overlapped two compactions";
}

TEST_P(ParallelCompactionTest, StatsExposeParallelismAndStages) {
  Random rnd(9);
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i % 4, rnd.Uniform(2000)),
                         Value(i % 4, i, i))
                    .ok());
  }
  db_->WaitForIdle();
  const obs::MetricsRegistry& reg = *stack_->metrics_registry();
  // The sampled split leaves every merge-loop stage some time.
  for (const char* stage : {"read", "merge", "write"}) {
    EXPECT_GT(
        reg.time_family_sum("sealdb_engine_compaction_stage_seconds_total",
                            {{"stage", stage}}),
        0.0)
        << stage;
  }
  EXPECT_GE(reg.gauge_family_max("sealdb_engine_max_parallel_compactions"),
            2.0);
}

INSTANTIATE_TEST_SUITE_P(Systems, ParallelCompactionTest,
                         ::testing::Values(SystemKind::kLevelDB,
                                           SystemKind::kSEALDB),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                           return info.param == SystemKind::kLevelDB
                                      ? "LevelDB"
                                      : "SEALDB";
                         });

}  // namespace sealdb
