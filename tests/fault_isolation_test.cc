// Per-shard fault isolation (DESIGN.md §15): a media fault confined to one
// shard column's regions degrades exactly that column — its keys answer
// with the typed ShardDegraded status end-to-end (engine, wire protocol,
// client), while the other columns keep serving reads AND writes. The
// whole-DB read-only latch the unsharded engine falls into must no longer
// be the blast radius of a single-shard failure.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/presets.h"
#include "core/shard_layout.h"
#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "lsm/write_batch.h"
#include "net/seal_client.h"
#include "server/seal_server.h"
#include "smr/fault_injection_drive.h"

namespace sealdb {

namespace {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

constexpr int kShards = 4;

StackConfig ShardedConfig() {
  StackConfig config;
  config.kind = SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.fault_injection = true;
  config.num_shards = kShards;
  return config;
}

int ShardOf(const std::string& key) {
  return core::ShardLayout::ShardOfKey(key, kShards);
}

bool KeysPending(const std::vector<std::vector<std::string>>& keys,
                 int per_shard) {
  for (const auto& bucket : keys) {
    if (static_cast<int>(bucket.size()) < per_shard) return true;
  }
  return false;
}

// Deterministic keys grouped by the shard they route to.
std::vector<std::vector<std::string>> KeysPerShard(int per_shard) {
  std::vector<std::vector<std::string>> keys(kShards);
  for (int i = 0; KeysPending(keys, per_shard); i++) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "fi-key-%08d", i);
    auto& bucket = keys[ShardOf(buf)];
    if (static_cast<int>(bucket.size()) < per_shard) bucket.push_back(buf);
  }
  return keys;
}

}  // namespace

TEST(FaultIsolationTest, MediaFaultOnOneShardDegradesOnlyThatShard) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(), "/fi", &stack).ok());
  ShardedDb* sdb = stack->db();

  const auto keys = KeysPerShard(/*per_shard=*/8);
  WriteOptions sync;
  sync.sync = true;

  // Baseline: every shard serves.
  for (int s = 0; s < kShards; s++) {
    for (const auto& k : keys[s]) {
      ASSERT_TRUE(stack->db()->Put(sync, k, "v0-" + k).ok()) << k;
    }
  }

  // Fail every write touching shard 2's conventional slice — its WAL and
  // FileStore metadata live there — the way a dying head takes out one
  // zone group, not the whole device. Other shards' regions are untouched.
  const int victim = 2;
  const core::ShardLayout layout(stack->drive()->geometry(), kShards,
                                 stack->drive()->geometry().track_bytes);
  const core::ShardRegion& rg = layout.region(victim);
  stack->fault_drive()->SetWriteError(true, rg.conv_base,
                                      rg.conv_base + rg.conv_len);

  // The first synced write routed to the victim fails (the engine's WAL
  // sync hits the dead region) and latches the shard degraded.
  Status first = stack->db()->Put(sync, keys[victim][0], "v1");
  ASSERT_FALSE(first.ok());
  ASSERT_TRUE(sdb->IsShardDegraded(victim));
  EXPECT_EQ(sdb->DegradedShardCount(), 1);

  // From now on the victim's keys answer with the typed status...
  Status degraded = stack->db()->Put(sync, keys[victim][1], "v1");
  EXPECT_TRUE(degraded.IsShardDegraded()) << degraded.ToString();

  // ...while every healthy shard keeps committing and reading.
  std::string value;
  for (int s = 0; s < kShards; s++) {
    if (s == victim) continue;
    ASSERT_FALSE(sdb->IsShardDegraded(s));
    for (const auto& k : keys[s]) {
      ASSERT_TRUE(stack->db()->Put(sync, k, "v1-" + k).ok()) << k;
      ASSERT_TRUE(stack->db()->Get(ReadOptions(), k, &value).ok()) << k;
      EXPECT_EQ(value, "v1-" + k);
    }
  }

  // A batch spanning shards commits on the healthy ones and reports the
  // degraded one — partial progress with a typed error, not a stall.
  WriteBatch batch;
  for (int s = 0; s < kShards; s++) batch.Put(keys[s][2], "batch");
  Status bs = stack->db()->Write(sync, &batch);
  EXPECT_TRUE(bs.IsShardDegraded()) << bs.ToString();
  for (int s = 0; s < kShards; s++) {
    if (s == victim) continue;
    ASSERT_TRUE(stack->db()->Get(ReadOptions(), keys[s][2], &value).ok());
    EXPECT_EQ(value, "batch");
  }

  // Health is observable: the per-shard gauge and the health property.
  EXPECT_EQ(stack->metrics_registry()->gauge_value(
                "sealdb_shard_degraded", {{"shard", std::to_string(victim)}}),
            1.0);
  EXPECT_EQ(stack->metrics_registry()->gauge_value("sealdb_shard_degraded",
                                                   {{"shard", "0"}}),
            0.0);
  std::string health;
  ASSERT_TRUE(stack->db()->GetProperty("sealdb.shard-health", &health));
  EXPECT_NE(health.find("shard 2: degraded"), std::string::npos) << health;
  EXPECT_NE(health.find("shard 0: ok"), std::string::npos) << health;
}

TEST(FaultIsolationTest, ShardDegradedSurfacesThroughServerAndClient) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(), "/fi-srv", &stack).ok());
  ASSERT_EQ(stack->num_shards(), kShards);

  server::ServerOptions sopts;
  sopts.sync_writes = true;
  server::SealServer server(stack->db(), stack.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  const auto keys = KeysPerShard(/*per_shard=*/2);
  const int victim = 1;

  net::SealClient client;
  net::RetryPolicy policy;  // retries on: the typed status must NOT retry
  policy.enabled = true;
  policy.max_attempts = 8;
  policy.deadline_millis = 10000;
  client.set_retry_policy(policy);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  for (int s = 0; s < kShards; s++) {
    ASSERT_TRUE(client.Put(keys[s][0], "before").ok());
  }

  stack->db()->DegradeShard(victim, "forced by test");

  // The victim's keys answer ShardDegraded through the wire — immediately,
  // not after burning the retry budget (ShardDegraded is not retryable).
  Status s = client.Put(keys[victim][0], "after");
  EXPECT_TRUE(s.IsShardDegraded()) << s.ToString();
  EXPECT_EQ(client.metrics_registry()->counter_value(
                "sealdb_client_retries_total"),
            0u);

  // Reads on a degraded shard are still attempted (best-effort): data that
  // is readable keeps answering. Healthy shards are untouched.
  std::string value;
  Status rs = client.Get(keys[victim][0], &value);
  EXPECT_TRUE(rs.ok()) << rs.ToString();
  EXPECT_EQ(value, "before");
  for (int shard = 0; shard < kShards; shard++) {
    if (shard == victim) continue;
    ASSERT_TRUE(client.Put(keys[shard][0], "after").ok());
    ASSERT_TRUE(client.Get(keys[shard][0], &value).ok());
    EXPECT_EQ(value, "after");
  }

  // Shard health reaches remote operators through METRICS, and the reason
  // through the sealdb.shard-health property.
  std::string text;
  ASSERT_TRUE(client.Metrics(&text).ok());
  EXPECT_NE(text.find("\nsealdb_shard_degraded{shard=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nsealdb_shard_degraded{shard=\"0\"} 0\n"),
            std::string::npos)
      << text;
  std::string health;
  ASSERT_TRUE(stack->db()->GetProperty("sealdb.shard-health", &health));
  EXPECT_NE(health.find("shard 1: degraded (forced by test)"),
            std::string::npos)
      << health;

  server.Stop();
}

// Pipelined writes run as separate engine writes, so each is answered with
// its own outcome: a cross-shard WRITE_BATCH that touches a degraded shard
// answers ShardDegraded, and the PUTs pipelined around it to a healthy
// shard answer OK and are readable. (The batch's healthy sub-batch is
// applied too; DESIGN.md §15 states that contract.)
TEST(FaultIsolationTest, PipelinedWritesAnswerTheirOwnOutcome) {
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(ShardedConfig(), "/fi-own", &stack).ok());
  server::SealServer server(stack->db(), stack.get(), server::ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kPuts = 8;
  const auto keys = KeysPerShard(/*per_shard=*/kPuts + 1);
  const int victim = 1;
  stack->db()->DegradeShard(victim, "forced by test");

  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  WriteBatch cross;
  cross.Put(keys[0][kPuts], "batch");
  cross.Put(keys[victim][0], "batch");
  for (int i = 0; i < kPuts / 2; i++) {
    client.QueuePut(keys[0][i], "put-" + keys[0][i]);
  }
  const uint64_t batch_id = client.QueueWrite(cross);
  for (int i = kPuts / 2; i < kPuts; i++) {
    client.QueuePut(keys[0][i], "put-" + keys[0][i]);
  }
  std::vector<net::SealClient::Result> results;
  ASSERT_TRUE(client.Flush(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kPuts + 1));

  for (const auto& r : results) {
    if (r.request_id == batch_id) {
      EXPECT_TRUE(r.status.IsShardDegraded()) << r.status.ToString();
    } else {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    }
  }
  for (int i = 0; i < kPuts; i++) {
    std::string value;
    ASSERT_TRUE(client.Get(keys[0][i], &value).ok()) << keys[0][i];
    EXPECT_EQ(value, "put-" + keys[0][i]);
  }

  server.Stop();
}

}  // namespace sealdb
