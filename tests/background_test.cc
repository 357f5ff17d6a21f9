// Background-compaction mode: the engine's concurrent path (flushes and
// compactions on a background thread, writers stalling on L0 triggers).
// All presets default to deterministic inline compactions; these tests
// exercise the threaded mode end to end, and inline mode under concurrent
// callers.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "lsm/db.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace sealdb {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

namespace {

StackConfig BackgroundConfig(SystemKind kind) {
  StackConfig config;
  config.kind = kind;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.inline_compactions = false;
  return config;
}

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%010d", i);
  return buf;
}

std::string Value(int i) {
  Random rnd(i + 31);
  std::string v;
  for (int j = 0; j < 200; j++) v.push_back('a' + rnd.Uniform(26));
  return v;
}

}  // namespace

class BackgroundTest : public ::testing::TestWithParam<SystemKind> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildStack(BackgroundConfig(GetParam()), "/db", &stack_).ok());
    db_ = stack_->db();
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

TEST_P(BackgroundTest, LoadAndReadBack) {
  Random rnd(5);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 10000; i++) {
    const std::string k = Key(rnd.Uniform(2000));
    const std::string v = Value(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), k, v).ok()) << "op " << i;
    model[k] = v;
  }
  db_->WaitForIdle();
  EXPECT_GT(stack_->metrics_registry()->counter_family_sum(
                "sealdb_engine_compactions_total"),
            0u);
  for (const auto& [k, v] : model) {
    ASSERT_EQ(v, Get(k));
  }
}

TEST_P(BackgroundTest, ReadsDuringBackgroundWork) {
  Random rnd(6);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 8000; i++) {
    const std::string k = Key(rnd.Uniform(1500));
    const std::string v = Value(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), k, v).ok());
    model[k] = v;
    // Interleave reads while compactions run behind our back.
    if (i % 37 == 0 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rnd.Uniform(model.size()));
      ASSERT_EQ(it->second, Get(it->first)) << "op " << i;
    }
  }
  db_->WaitForIdle();
}

TEST_P(BackgroundTest, IteratorConsistencyUnderChurn) {
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  // Open an iterator, keep writing, and verify the iterator still sees a
  // consistent snapshot of its creation time.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), Key(i), "overwritten" + std::to_string(i))
            .ok());
  }
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    EXPECT_NE(iter->value().ToString().substr(0, 11), "overwritten");
    count++;
  }
  EXPECT_EQ(count, 3000);
  iter.reset();
  db_->WaitForIdle();
}

TEST_P(BackgroundTest, CleanShutdownMidLoad) {
  // Destroying the DB while background work is likely in flight must not
  // hang, crash, or corrupt the store.
  Random rnd(7);
  for (int i = 0; i < 6000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(rnd.Uniform(1200)), Value(i))
                    .ok());
  }
  // Reopen (tears down the DB immediately, then recovers).
  ASSERT_TRUE(stack_->Reopen().ok());
  db_ = stack_->db();
  ASSERT_TRUE(db_->Put(WriteOptions(), "after", "reopen").ok());
  EXPECT_EQ("reopen", Get("after"));
}

TEST_P(BackgroundTest, DeviceSafetyHolds) {
  // The shingled-safety invariant must hold in threaded mode too (regions
  // and appendable files reserve guards).
  Random rnd(8);
  for (int i = 0; i < 12000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(rnd.Uniform(2500)), Value(i))
                    .ok())
        << "op " << i;
  }
  db_->WaitForIdle();
  if (GetParam() == SystemKind::kSEALDB) {
    EXPECT_EQ(stack_->drive()->metrics().rmw_ops->Value(), 0u);
    EXPECT_DOUBLE_EQ(stack_->awa(), 1.0);
  }
}

// Inline mode with several calling threads: writers, a reader and a
// WaitForIdle caller all run the compaction step, which takes one unit at
// a time, so the unguarded set regions stay shingle-safe and every write
// is read back.
TEST(InlineConcurrencyTest, ConcurrentCallersShareOneStep) {
  StackConfig config = BackgroundConfig(SystemKind::kSEALDB);
  config.inline_compactions = true;
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(config, "/db", &stack).ok());
  ASSERT_EQ(stack->options().max_background_compactions, 0);
  DB* db = stack->db();

  constexpr int kWriters = 3;
  constexpr int kKeysPerWriter = 2500;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([db, w, &failures] {
      for (int i = 0; i < kKeysPerWriter; i++) {
        const int id = w * kKeysPerWriter + i;
        if (!db->Put(WriteOptions(), Key(id), Value(id)).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  std::thread reader([db, &stop, &failures] {
    Random rnd(21);
    std::string value;
    while (!stop.load(std::memory_order_acquire)) {
      const int id = static_cast<int>(rnd.Uniform(kWriters * kKeysPerWriter));
      const Status s = db->Get(ReadOptions(), Key(id), &value);
      if ((s.ok() && value != Value(id)) || (!s.ok() && !s.IsNotFound())) {
        failures.fetch_add(1);
        return;
      }
      if (rnd.OneIn(256)) db->WaitForIdle();
    }
  });
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  ASSERT_EQ(failures.load(), 0);

  db->WaitForIdle();
  const obs::MetricsRegistry& reg = *stack->metrics_registry();
  EXPECT_GT(reg.counter_family_sum("sealdb_engine_compactions_total"), 0u);
  EXPECT_EQ(reg.gauge_family_max("sealdb_engine_max_parallel_compactions"),
            1.0);
  EXPECT_EQ(stack->drive()->metrics().guard_violations->Value(), 0u);
  EXPECT_EQ(stack->drive()->metrics().rmw_ops->Value(), 0u);
  EXPECT_DOUBLE_EQ(stack->awa(), 1.0);
  std::string value;
  for (int id = 0; id < kWriters * kKeysPerWriter; id++) {
    ASSERT_TRUE(db->Get(ReadOptions(), Key(id), &value).ok()) << id;
    ASSERT_EQ(value, Value(id)) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, BackgroundTest,
                         ::testing::Values(SystemKind::kLevelDB,
                                           SystemKind::kSEALDB),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                           return info.param == SystemKind::kLevelDB
                                      ? "LevelDB"
                                      : "SEALDB";
                         });

}  // namespace sealdb
