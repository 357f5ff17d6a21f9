// Sharded engine tests (DESIGN.md §13): routing-hash balance, the shard
// superblock's reopen contract (same count recovers, a mismatch is a typed
// error), cross-shard reads (merged iterators, composite snapshots,
// split batches), per-shard metric labels, and a multi-threaded stress
// over a sharded stack. The stress honours SEALDB_STRESS_SHARDS so
// scripts/check.sh can widen it to 4 shards under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "core/shard_layout.h"
#include "fs/doctor.h"
#include "lsm/db.h"
#include "lsm/iterator.h"
#include "lsm/sharded_db.h"
#include "lsm/write_batch.h"
#include "smr/geometry.h"
#include "util/coding.h"
#include "util/random.h"

namespace sealdb {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

namespace {

StackConfig ShardedConfig(int num_shards) {
  StackConfig config;
  config.kind = SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.inline_compactions = false;
  config.max_background_compactions = 4;
  config.num_shards = num_shards;
  return config;
}

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

std::string Value(int i, int gen) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "v-%08d-%06d-", i, gen);
  std::string v = buf;
  Random rnd(i * 131 + gen);
  while (v.size() < 120) v.push_back('a' + rnd.Uniform(26));
  return v;
}

int StressShards() {
  const char* env = std::getenv("SEALDB_STRESS_SHARDS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return 4;
}

}  // namespace

// ---------------------------------------------------------------------------
// Routing hash.

TEST(ShardRoutingTest, HashDistributionIsBalanced) {
  // 16 shards, 100k sequential keys (the worst case for a weak hash): no
  // shard may exceed twice the mean bucket load.
  constexpr int kShards = 16;
  constexpr int kKeys = 100000;
  int counts[kShards] = {};
  for (int i = 0; i < kKeys; i++) {
    const std::string k = Key(i);
    const int shard = core::ShardLayout::ShardOfKey(Slice(k), kShards);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, kShards);
    counts[shard]++;
  }
  const int mean = kKeys / kShards;
  for (int s = 0; s < kShards; s++) {
    EXPECT_GT(counts[s], 0) << "shard " << s << " received no keys";
    EXPECT_LT(counts[s], 2 * mean)
        << "shard " << s << " got " << counts[s] << " of " << kKeys;
  }
}

TEST(ShardRoutingTest, RoutingIsStableAndDegenerate) {
  // The hash seed is part of the on-disk contract: a key must route to the
  // same shard forever, and a single-shard layout takes everything.
  const std::string k = "stable-routing-probe";
  const int first = core::ShardLayout::ShardOfKey(Slice(k), 8);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(core::ShardLayout::ShardOfKey(Slice(k), 8), first);
  }
  EXPECT_EQ(core::ShardLayout::ShardOfKey(Slice(k), 1), 0);
  EXPECT_EQ(core::ShardLayout::ShardOfKey(Slice(k), 0), 0);
}

// ---------------------------------------------------------------------------
// Layout carve-out.

TEST(ShardLayoutTest, RegionsAreDisjointWithGuardGaps) {
  smr::Geometry geo;
  geo.capacity_bytes = 256ull << 20;
  geo.block_bytes = 4096;
  geo.track_bytes = 16 << 10;
  geo.shingle_overlap_tracks = 4;
  geo.conventional_bytes = 8 << 20;
  const core::ShardLayout layout(geo, 4, geo.track_bytes);
  for (int i = 0; i < 4; i++) {
    const core::ShardRegion& r = layout.region(i);
    EXPECT_LT(r.conv_base, geo.conventional_bytes);
    EXPECT_LE(r.conv_base + r.conv_len, geo.conventional_bytes);
    EXPECT_GE(r.data_base, geo.conventional_bytes);
    EXPECT_LE(r.data_limit, geo.capacity_bytes);
    EXPECT_LT(r.data_base, r.data_limit);
    if (i > 0) {
      const core::ShardRegion& prev = layout.region(i - 1);
      EXPECT_LE(prev.conv_base + prev.conv_len, r.conv_base);
      // The inter-shard gap absorbs shingling from the previous shard's
      // tail, so it must be at least the drive's guard distance.
      EXPECT_GE(r.data_base - prev.data_limit, geo.guard_bytes());
    }
  }
}

TEST(ShardLayoutTest, SingleShardUsesWholeDrive) {
  smr::Geometry geo;
  geo.capacity_bytes = 256ull << 20;
  geo.block_bytes = 4096;
  geo.track_bytes = 16 << 10;
  geo.shingle_overlap_tracks = 4;
  geo.conventional_bytes = 8 << 20;
  const core::ShardLayout layout(geo, 1, geo.track_bytes);
  const core::ShardRegion& r = layout.region(0);
  EXPECT_EQ(r.conv_base, 0u);
  EXPECT_EQ(r.conv_len, geo.conventional_bytes);
  EXPECT_EQ(r.data_base, geo.conventional_bytes);
  EXPECT_EQ(r.data_limit, geo.capacity_bytes);
  EXPECT_EQ(layout.label(0), "");

  // A one-shard stack is the N=1 ShardedDb over exactly that seed layout:
  // no superblock (block 0 stays the FileStore's checkpoint slot), a store
  // the doctor finds clean, and a drive a 4-shard reopen rejects with a
  // typed error instead of misreading it.
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(1), "/db", &stack).ok());
  ASSERT_EQ(stack->num_shards(), 1);
  WriteOptions sync;
  sync.sync = true;
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(stack->db()->Put(sync, Key(i), Value(i, 0)).ok());
  }
  stack->db()->WaitForIdle();
  std::string block0(geo.block_bytes, '\0');
  ASSERT_TRUE(stack->drive()->Read(0, geo.block_bytes, block0.data()).ok());
  EXPECT_NE(DecodeFixed32(block0.data()), 0x53485244u)  // "SHRD"
      << "one-shard stack wrote a shard superblock";

  fs::DoctorOptions dopt;
  dopt.num_shards = 1;
  fs::DoctorReport report;
  ASSERT_TRUE(fs::RunDoctor(stack->drive(), dopt, &report).ok());
  EXPECT_TRUE(report.ok()) << report.ToString();

  const Status s = stack->Reopen(/*num_shards=*/4);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption() || s.IsInvalidArgument()) << s.ToString();
}

// ---------------------------------------------------------------------------
// Stack-level behaviour.

TEST(ShardedDbTest, ShardingRequiresSealdbStack) {
  StackConfig config = ShardedConfig(4);
  config.kind = SystemKind::kSMRDB;
  config.band_bytes = 640 << 10;
  std::unique_ptr<Stack> stack;
  const Status s = BuildStack(config, "/db", &stack);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(ShardedDbTest, EveryKeyReadableAfterReopenWithSameShardCount) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(4), "/db", &stack).ok());
  ASSERT_EQ(stack->num_shards(), 4);

  constexpr int kKeys = 2000;
  WriteOptions sync;
  sync.sync = true;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(stack->db()->Put(sync, Key(i), Value(i, 0)).ok());
  }
  stack->db()->WaitForIdle();

  ASSERT_TRUE(stack->Reopen().ok());
  ASSERT_EQ(stack->num_shards(), 4);
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(stack->db()->Get(ReadOptions(), Key(i), &value).ok())
        << "key " << i << " lost across reopen";
    EXPECT_EQ(value, Value(i, 0));
  }
}

TEST(ShardedDbTest, ReopenWithMismatchedShardCountFails) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(4), "/db", &stack).ok());
  WriteOptions sync;
  sync.sync = true;
  ASSERT_TRUE(stack->db()->Put(sync, "probe", "x").ok());
  stack->db()->WaitForIdle();

  // The superblock pins the shard count: recovering with a different one
  // would route keys to engines that never owned them.
  const Status s = stack->Reopen(/*num_shards=*/2);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // The matching count still recovers.
  ASSERT_TRUE(stack->Reopen(/*num_shards=*/4).ok());
  std::string value;
  ASSERT_TRUE(stack->db()->Get(ReadOptions(), "probe", &value).ok());
  EXPECT_EQ(value, "x");
}

TEST(ShardedDbTest, IteratorMergesShardsInKeyOrder) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(4), "/db", &stack).ok());
  constexpr int kKeys = 500;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(stack->db()->Put(WriteOptions(), Key(i), Value(i, 0)).ok());
  }
  std::unique_ptr<Iterator> it(stack->db()->NewIterator(ReadOptions()));
  int n = 0;
  std::string prev;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const std::string k = it->key().ToString();
    if (n > 0) {
      EXPECT_LT(prev, k) << "merged iterator out of order";
    }
    prev = k;
    n++;
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(n, kKeys);
}

TEST(ShardedDbTest, WriteBatchSpansShards) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(4), "/db", &stack).ok());
  WriteBatch batch;
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; i++) batch.Put(Key(i), Value(i, 7));
  batch.Delete(Key(3));
  ASSERT_TRUE(stack->db()->Write(WriteOptions(), &batch).ok());
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    const Status s = stack->db()->Get(ReadOptions(), Key(i), &value);
    if (i == 3) {
      EXPECT_TRUE(s.IsNotFound());
    } else {
      ASSERT_TRUE(s.ok()) << "key " << i;
      EXPECT_EQ(value, Value(i, 7));
    }
  }
}

TEST(ShardedDbTest, CompositeSnapshotIsStablePerShard) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(4), "/db", &stack).ok());
  constexpr int kKeys = 100;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(stack->db()->Put(WriteOptions(), Key(i), Value(i, 0)).ok());
  }
  const Snapshot* snap = stack->db()->GetSnapshot();
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(stack->db()->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
  }
  ReadOptions at_snap;
  at_snap.snapshot = snap;
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(stack->db()->Get(at_snap, Key(i), &value).ok());
    EXPECT_EQ(value, Value(i, 0)) << "snapshot saw a later write";
    ASSERT_TRUE(stack->db()->Get(ReadOptions(), Key(i), &value).ok());
    EXPECT_EQ(value, Value(i, 1));
  }
  stack->db()->ReleaseSnapshot(snap);
}

TEST(ShardedDbTest, StatsAndMetricsCarryShardBreakdown) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(4), "/db", &stack).ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(stack->db()->Put(WriteOptions(), Key(i), Value(i, 0)).ok());
  }
  stack->db()->WaitForIdle();

  // Engine and allocator series are stamped with {shard=...}, and the
  // family helpers aggregate them back to the stack-wide totals.
  const auto& reg = *stack->metrics_registry();
  const std::string rendered = reg.Render();
  for (int i = 0; i < 4; i++) {
    EXPECT_NE(rendered.find("shard=\"" + std::to_string(i) + "\""),
              std::string::npos)
        << "no shard-" << i << " labelled series in the exposition";
  }
  uint64_t flushes_via_labels = 0;
  for (int i = 0; i < 4; i++) {
    flushes_via_labels += reg.counter_family_sum(
        "sealdb_engine_flushes_total", {{"shard", std::to_string(i)}});
  }
  EXPECT_EQ(flushes_via_labels,
            reg.counter_family_sum("sealdb_engine_flushes_total"));
  EXPECT_GT(flushes_via_labels, 0u);
}

// ---------------------------------------------------------------------------
// Multi-threaded stress (labelled "stress"; scripts/check.sh re-runs this
// under TSan with SEALDB_STRESS_SHARDS=4).

TEST(ShardedDbStressTest, ConcurrentWritersAndReadersAcrossShards) {
  const int shards = StressShards();
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(shards), "/db", &stack).ok());
  DB* db = stack->db();

  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 1500;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([db, w, &failures] {
      WriteOptions wo;
      for (int i = 0; i < kKeysPerWriter; i++) {
        const int id = w * kKeysPerWriter + i;
        if (!db->Put(wo, Key(id), Value(id, 0)).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // Readers scan and point-read concurrently; whatever they observe must
  // be self-consistent (a key either absent or carrying its exact value).
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([db, r, &stop, &failures] {
      Random rnd(1234 + r);
      std::string value;
      while (!stop.load(std::memory_order_acquire)) {
        const int id = static_cast<int>(
            rnd.Uniform(kWriters * kKeysPerWriter));
        const Status s = db->Get(ReadOptions(), Key(id), &value);
        if (s.ok() && value != Value(id, 0)) {
          failures.fetch_add(1);
          return;
        }
        if (!s.ok() && !s.IsNotFound()) {
          failures.fetch_add(1);
          return;
        }
        if (rnd.Uniform(64) == 0) {
          std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
          std::string prev;
          bool first = true;
          for (it->SeekToFirst(); it->Valid(); it->Next()) {
            const std::string k = it->key().ToString();
            if (!first && prev >= k) {
              failures.fetch_add(1);
              return;
            }
            prev = k;
            first = false;
          }
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  ASSERT_EQ(failures.load(), 0);

  db->WaitForIdle();
  std::string value;
  for (int id = 0; id < kWriters * kKeysPerWriter; id++) {
    ASSERT_TRUE(db->Get(ReadOptions(), Key(id), &value).ok())
        << "key " << id << " missing after stress";
    EXPECT_EQ(value, Value(id, 0));
  }
}

}  // namespace sealdb
