// Online scrub (DESIGN.md §15): the incremental ScrubStep walk must cover
// exactly the live files' bytes, find and quarantine unreadable
// blocks, count healed blocks as repaired, and — through the
// ScrubScheduler — escalate per-extent damage to table-file quarantine and
// finally a shard degrade, all while foreground I/O keeps running.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "fs/file_store.h"
#include "fs/scrub_scheduler.h"
#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "smr/fault_injection_drive.h"

namespace sealdb {

namespace {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

StackConfig SmallConfig(int shards) {
  StackConfig config;
  config.kind = SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.fault_injection = true;
  config.num_shards = shards;
  return config;
}

void Load(DB* db, int keys) {
  WriteOptions wo;
  for (int i = 0; i < keys; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "scrub-key-%08d", i);
    ASSERT_TRUE(db->Put(wo, key, std::string(512, 'a' + i % 26)).ok());
  }
  db->WaitForIdle();
}

// First live table file with data, plus its first physical extent.
std::string FindTableFile(fs::FileStore* store, fs::Extent* extent) {
  for (const auto& name : store->GetChildren()) {
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".ldb") != 0) {
      continue;
    }
    uint64_t size = 0;
    if (!store->GetFileSize(name, &size).ok() || size == 0) continue;
    std::vector<fs::Extent> extents;
    if (!store->GetFileExtents(name, &extents).ok() || extents.empty()) {
      continue;
    }
    *extent = extents[0];
    return name;
  }
  return std::string();
}

}  // namespace

TEST(ScrubTest, StepWalkCoversExactlyTheLiveFiles) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(SmallConfig(1), "/scrub-walk", &stack).ok());
  Load(stack->db(), 600);

  // A pass covers each live file's logical bytes, rounded up to blocks.
  fs::FileStore* store = stack->shard_store(0);
  const uint64_t block = stack->drive()->geometry().block_bytes;
  uint64_t live_bytes = 0;
  for (const fs::FileInfo& info : store->ListFiles()) {
    live_bytes += (info.size + block - 1) / block * block;
  }
  ASSERT_GT(live_bytes, 0u);

  // Many small steps must add up to exactly that, then wrap.
  fs::ScrubCursor cursor;
  fs::ScrubStepResult step;
  uint64_t total = 0;
  int steps = 0;
  do {
    ASSERT_TRUE(store->ScrubStep(&cursor, 48 << 10, &step).ok());
    total += step.bytes_scanned;
    EXPECT_EQ(step.bad_blocks, 0u);
    ASSERT_LT(++steps, 100000);
  } while (!step.wrapped);
  EXPECT_EQ(total, live_bytes);
  // The cursor reset at the wrap: a second pass re-scans everything.
  EXPECT_TRUE(cursor.file.empty());
  EXPECT_EQ(cursor.offset, 0u);
}

TEST(ScrubTest, StepFindsAndQuarantinesUnreadableBlocks) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(SmallConfig(1), "/scrub-bad", &stack).ok());
  Load(stack->db(), 600);

  fs::Extent extent;
  const std::string victim = FindTableFile(stack->shard_store(0), &extent);
  ASSERT_FALSE(victim.empty());
  const uint64_t block = stack->drive()->geometry().block_bytes;
  stack->fault_drive()->InjectReadError(extent.offset, 2 * block);

  fs::ScrubCursor cursor;
  fs::ScrubStepResult step;
  uint64_t bad = 0;
  std::vector<std::string> damaged;
  do {
    ASSERT_TRUE(
        stack->shard_store(0)->ScrubStep(&cursor, 48 << 10, &step).ok());
    bad += step.bad_blocks;
    damaged.insert(damaged.end(), step.damaged_files.begin(),
                   step.damaged_files.end());
  } while (!step.wrapped);

  EXPECT_EQ(bad, 2u);
  ASSERT_EQ(damaged.size(), 1u);
  EXPECT_EQ(damaged[0], victim);
  EXPECT_EQ(stack->shard_store(0)->QuarantinedBlocks().size(), 2u);

  // A second pass over still-bad media reports the damage again (fail-fast
  // probe) but quarantines nothing new.
  do {
    ASSERT_TRUE(
        stack->shard_store(0)->ScrubStep(&cursor, 48 << 10, &step).ok());
    EXPECT_EQ(step.bad_blocks, 0u);
  } while (!step.wrapped);
  EXPECT_EQ(stack->shard_store(0)->QuarantinedBlocks().size(), 2u);
}

TEST(ScrubTest, HealedBlocksCountAsRepaired) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(SmallConfig(1), "/scrub-heal", &stack).ok());
  Load(stack->db(), 600);

  fs::Extent extent;
  const std::string victim = FindTableFile(stack->shard_store(0), &extent);
  ASSERT_FALSE(victim.empty());
  const uint64_t block = stack->drive()->geometry().block_bytes;
  stack->fault_drive()->InjectReadError(extent.offset, block);

  fs::ScrubCursor cursor;
  fs::ScrubStepResult step;
  do {
    ASSERT_TRUE(
        stack->shard_store(0)->ScrubStep(&cursor, 48 << 10, &step).ok());
  } while (!step.wrapped);
  ASSERT_EQ(stack->shard_store(0)->QuarantinedBlocks().size(), 1u);

  // The media heals (vendor remap / successful rewrite): the next pass's
  // probe succeeds, lifts the quarantine, and counts the block repaired.
  stack->fault_drive()->ClearReadError(extent.offset, block);
  uint64_t repaired = 0;
  do {
    ASSERT_TRUE(
        stack->shard_store(0)->ScrubStep(&cursor, 48 << 10, &step).ok());
    repaired += step.repaired_blocks;
    EXPECT_EQ(step.bad_blocks, 0u);
  } while (!step.wrapped);
  EXPECT_EQ(repaired, 1u);
  EXPECT_TRUE(stack->shard_store(0)->QuarantinedBlocks().empty());
}

// Escalation is the same at every shard count: a one-shard stack is the
// N=1 ShardedDb, so its scrub escalation degrades shard 0 exactly as an
// N-shard store's does. One-shard series are unlabeled, so the counters are
// read as family sums over shard 0's series.
class ScrubEscalationTest : public ::testing::TestWithParam<int> {};

TEST_P(ScrubEscalationTest, SchedulerEscalatesQuarantineToShardDegrade) {
  const int shards = GetParam();
  StackConfig config = SmallConfig(shards);
  config.scrub_enabled = true;
  config.scrub_rate_bytes_per_sec = 64ull << 20;  // don't throttle the test
  config.scrub_degrade_bad_blocks = 1;
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(config, "/scrub-esc", &stack).ok());
  ShardedDb* sdb = stack->db();
  ASSERT_EQ(sdb->num_shards(), shards);
  fs::ScrubScheduler* scrub = stack->scrub();
  ASSERT_NE(scrub, nullptr);
  Load(sdb, 1200);

  fs::Extent extent;
  const std::string victim = FindTableFile(stack->shard_store(0), &extent);
  ASSERT_FALSE(victim.empty());
  const uint64_t block = stack->drive()->geometry().block_bytes;
  stack->fault_drive()->InjectReadError(extent.offset, block);

  // One forced full pass: the damage is found, the table is quarantined in
  // the engine, and — past the threshold — shard 0 is degraded while any
  // other shards stay healthy.
  scrub->RunFullPass();
  EXPECT_GE(scrub->errors_found(), 1u);
  EXPECT_GE(scrub->passes_completed(), 1u);
  EXPECT_TRUE(sdb->IsShardDegraded(0));
  for (int s = 1; s < shards; s++) EXPECT_FALSE(sdb->IsShardDegraded(s));
  const obs::MetricsRegistry& reg = *stack->metrics_registry();
  EXPECT_EQ(reg.gauge_family_sum("sealdb_shard_degraded"), 1.0);
  const obs::Labels shard0 =
      shards == 1 ? obs::Labels{} : obs::Labels{{"shard", "0"}};
  EXPECT_GE(reg.counter_family_sum("sealdb_scrub_errors_total", shard0), 1u);
  EXPECT_GE(reg.gauge_family_sum("sealdb_scrub_quarantined_blocks", shard0),
            1.0);
}

INSTANTIATE_TEST_SUITE_P(OneAndFourShards, ScrubEscalationTest,
                         ::testing::Values(1, 4));

TEST(ScrubTest, BackgroundThreadMakesProgressUnderRateLimit) {
  StackConfig config = SmallConfig(1);
  config.scrub_enabled = true;
  config.scrub_rate_bytes_per_sec = 4ull << 20;
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(config, "/scrub-bg", &stack).ok());
  ASSERT_NE(stack->scrub(), nullptr);
  Load(stack->db(), 600);

  // The paced background thread scans on its own; foreground ops keep
  // working while it does.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (stack->scrub()->bytes_scrubbed() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::string value;
    ASSERT_TRUE(stack->db()->Get(ReadOptions(), "scrub-key-00000000", &value)
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(stack->scrub()->bytes_scrubbed(), 0u);
  EXPECT_EQ(stack->scrub()->errors_found(), 0u);
}

}  // namespace sealdb
