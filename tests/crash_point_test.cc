// Crash-point sweep: run a write workload and cut the power at every k-th
// block write, then recover from drive contents only (in the style of
// LevelDB's fault_injection_test). Invariants at every crash point, for
// every system preset:
//   - every key acknowledged under sync is present with its exact value
//   - every other written key is exact or absent — never garbage
//   - keys never written stay absent
//   - every store file is a WAL or a table of the recovered version: no
//     output of an uncommitted flush or compaction survives recovery
//   - the recovered DB accepts new writes
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/presets.h"
#include "core/shard_layout.h"
#include "fs/doctor.h"
#include "fs/file_store.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/write_batch.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace sealdb {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

namespace {

constexpr int kOps = 1000;
constexpr int kSyncEvery = 7;

StackConfig SweepConfig(SystemKind kind) {
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

std::string Value(int i, int generation) {
  Random rnd(i * 131 + generation);
  std::string v = "g" + std::to_string(generation) + ":";
  while (v.size() < 512) v.push_back('a' + rnd.Uniform(26));
  return v;
}

// Per-key ground truth. Values embed their generation, so a read can be
// checked for being byte-exact against SOME write we actually issued.
// Recovery restores a prefix of the write history that includes at least
// everything up to the last acknowledged sync — so the recovered generation
// must be >= the synced floor and <= the last (possibly in-flight) write.
struct KeyState {
  int synced_gen = -1;  // newest generation covered by an acked sync
  int last_gen = -1;    // newest generation ever issued (even unacked)
};

// Run the workload until the drive dies (or it completes). Values large
// enough to force flushes and compactions along the way.
void RunWorkload(DB* db, std::map<std::string, KeyState>* state) {
  std::map<std::string, int> pending;
  for (int i = 0; i < kOps; i++) {
    const std::string k = Key(i % 100);
    WriteOptions wo;
    wo.sync = (i % kSyncEvery == kSyncEvery - 1);
    Status s = db->Put(wo, k, Value(i % 100, i));
    (*state)[k].last_gen = i;  // issued: may have landed even if unacked
    if (!s.ok()) return;       // power died mid-workload
    pending[k] = i;
    if (wo.sync) {
      // A successful synced write makes everything before it durable.
      for (auto& [pk, pg] : pending) (*state)[pk].synced_gen = pg;
      pending.clear();
    }
  }
}

// Every file of `store` is a WAL or a table of `engine`'s current version.
void ExpectOnlyLiveTablesAndWals(fs::FileStore* store, DB* engine) {
  std::set<std::string> live;
  for (const LiveFileMeta& f : engine->GetLiveFilesMetadata()) {
    live.insert(TableFileName("/db", f.number));
  }
  for (const std::string& name : store->GetChildren()) {
    uint64_t number;
    FileType type;
    ASSERT_TRUE(ParseFileName(name, &number, &type)) << "stray file " << name;
    if (type == kLogFile) continue;
    EXPECT_TRUE(live.count(name) > 0) << "leaked table " << name;
  }
}

}  // namespace

class CrashPointTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(CrashPointTest, EveryCrashPointRecovers) {
  // Yardstick run: how many blocks does the full workload write?
  uint64_t total_blocks = 0;
  {
    std::unique_ptr<Stack> stack;
    ASSERT_TRUE(BuildStack(SweepConfig(GetParam()), "/db", &stack).ok());
    std::map<std::string, KeyState> state;
    RunWorkload(stack->db(), &state);
    stack->db()->WaitForIdle();
    total_blocks = stack->fault_drive()->blocks_written();
  }
  ASSERT_GT(total_blocks, 0u);

  const uint64_t step = std::max<uint64_t>(1, total_blocks / 16);
  for (uint64_t crash_at = 1; crash_at <= total_blocks; crash_at += step) {
    SCOPED_TRACE("crash after " + std::to_string(crash_at) + " of " +
                 std::to_string(total_blocks) + " blocks");
    std::unique_ptr<Stack> stack;
    ASSERT_TRUE(BuildStack(SweepConfig(GetParam()), "/db", &stack).ok());
    stack->fault_drive()->CrashAfterBlockWrites(crash_at);

    std::map<std::string, KeyState> state;
    RunWorkload(stack->db(), &state);

    // Power comes back inside Reopen(), after the dead stack is torn down.
    const Status reopen = stack->Reopen();
    ASSERT_TRUE(reopen.ok()) << reopen.ToString();
    DB* db = stack->db();
    ExpectOnlyLiveTablesAndWals(stack->store(), stack->db()->shard(0));

    std::string value;
    for (const auto& [k, st] : state) {
      Status s = db->Get(ReadOptions(), k, &value);
      const int id = std::stoi(k.substr(3));
      if (s.ok()) {
        // The bytes must be exactly a value we issued for this key, no
        // older than the synced floor and no newer than the last write.
        const size_t colon = value.find(':');
        ASSERT_TRUE(value.rfind("g", 0) == 0 && colon != std::string::npos)
            << "garbage under " << k;
        const int gen = std::stoi(value.substr(1, colon - 1));
        ASSERT_EQ(Value(id, gen), value) << "garbage under " << k;
        ASSERT_EQ(id, gen % 100) << "foreign value under " << k;
        ASSERT_LE(gen, st.last_gen) << "future value under " << k;
        ASSERT_GE(gen, st.synced_gen) << "synced write rolled back: " << k;
      } else {
        ASSERT_TRUE(s.IsNotFound()) << k << ": " << s.ToString();
        ASSERT_LT(st.synced_gen, 0) << "synced key lost: " << k;
      }
    }
    ASSERT_TRUE(db->Get(ReadOptions(), "never-written", &value).IsNotFound());

    // The recovered DB accepts and persists new writes.
    WriteOptions sync;
    sync.sync = true;
    ASSERT_TRUE(db->Put(sync, "post-crash", "alive").ok());
    ASSERT_TRUE(db->Get(ReadOptions(), "post-crash", &value).ok());
    ASSERT_EQ("alive", value);
  }
}

// ---------------------------------------------------------------------
// Sharded stacks: the same sweep over a 4-shard SEALDB stack, with
// split-batch commits spanning shards. Durability is a PER-SHARD WAL
// prefix property — a synced commit flushes the WALs of exactly the
// shards it touched, so earlier unsynced writes become durable on those
// shards only. After every recovery the offline doctor must find the
// store metadata consistent.
// ---------------------------------------------------------------------

namespace {

constexpr int kSweepShards = 4;

int SweepShardOf(const std::string& key) {
  return core::ShardLayout::ShardOfKey(key, kSweepShards);
}

// Like RunWorkload, but every third op is a WriteBatch of 4 keys (almost
// always spanning several shards) and the synced-durability bookkeeping
// is per shard.
void RunShardedWorkload(DB* db, std::map<std::string, KeyState>* state) {
  std::vector<std::map<std::string, int>> pending(kSweepShards);
  int gen = 0;
  for (int op = 0; gen < kOps; op++) {
    WriteOptions wo;
    wo.sync = (op % kSyncEvery == kSyncEvery - 1);
    std::vector<int> touched;
    if (op % 3 == 0) {
      WriteBatch batch;
      std::vector<std::pair<std::string, int>> writes;
      for (int j = 0; j < 4 && gen < kOps; j++, gen++) {
        const std::string k = Key(gen % 100);
        batch.Put(k, Value(gen % 100, gen));
        writes.emplace_back(k, gen);
      }
      for (const auto& [k, g] : writes) (*state)[k].last_gen = g;
      if (!db->Write(wo, &batch).ok()) return;  // power died mid-commit
      for (const auto& [k, g] : writes) {
        const int shard = SweepShardOf(k);
        pending[shard][k] = g;
        touched.push_back(shard);
      }
    } else {
      const std::string k = Key(gen % 100);
      const int g = gen++;
      (*state)[k].last_gen = g;
      if (!db->Put(wo, k, Value(g % 100, g)).ok()) return;
      const int shard = SweepShardOf(k);
      pending[shard][k] = g;
      touched.push_back(shard);
    }
    if (wo.sync) {
      // The commit synced the WALs of exactly the shards it touched:
      // their earlier unsynced writes rode along; other shards' pending
      // writes did not.
      for (int shard : touched) {
        for (auto& [pk, pg] : pending[shard]) {
          KeyState& st = (*state)[pk];
          st.synced_gen = std::max(st.synced_gen, pg);
        }
        pending[shard].clear();
      }
    }
  }
}

}  // namespace

TEST(ShardedCrashPointTest, EveryCrashPointRecoversPerShard) {
  StackConfig config = SweepConfig(SystemKind::kSEALDB);
  config.num_shards = kSweepShards;

  uint64_t total_blocks = 0;
  {
    std::unique_ptr<Stack> stack;
    ASSERT_TRUE(BuildStack(config, "/db", &stack).ok());
    std::map<std::string, KeyState> state;
    RunShardedWorkload(stack->db(), &state);
    stack->db()->WaitForIdle();
    total_blocks = stack->fault_drive()->blocks_written();
  }
  ASSERT_GT(total_blocks, 0u);

  const uint64_t step = std::max<uint64_t>(1, total_blocks / 12);
  for (uint64_t crash_at = 1; crash_at <= total_blocks; crash_at += step) {
    SCOPED_TRACE("crash after " + std::to_string(crash_at) + " of " +
                 std::to_string(total_blocks) + " blocks");
    std::unique_ptr<Stack> stack;
    ASSERT_TRUE(BuildStack(config, "/db", &stack).ok());
    stack->fault_drive()->CrashAfterBlockWrites(crash_at);

    std::map<std::string, KeyState> state;
    RunShardedWorkload(stack->db(), &state);

    const Status reopen = stack->Reopen();
    ASSERT_TRUE(reopen.ok()) << reopen.ToString();
    DB* db = stack->db();
    db->WaitForIdle();

    // The offline doctor agrees the recovered metadata is consistent —
    // a torn journal tail is normal after a power cut, corruption is not.
    fs::DoctorOptions dopt;
    dopt.num_shards = kSweepShards;
    fs::DoctorReport report;
    ASSERT_TRUE(fs::RunDoctor(stack->drive(), dopt, &report).ok());
    ASSERT_TRUE(report.ok()) << report.ToString();
    for (int shard = 0; shard < kSweepShards; shard++) {
      SCOPED_TRACE("shard " + std::to_string(shard));
      ExpectOnlyLiveTablesAndWals(stack->shard_store(shard),
                                  stack->db()->shard(shard));
    }

    std::string value;
    for (const auto& [k, st] : state) {
      Status s = db->Get(ReadOptions(), k, &value);
      const int id = std::stoi(k.substr(3));
      if (s.ok()) {
        const size_t colon = value.find(':');
        ASSERT_TRUE(value.rfind("g", 0) == 0 && colon != std::string::npos)
            << "garbage under " << k;
        const int gen = std::stoi(value.substr(1, colon - 1));
        ASSERT_EQ(Value(id, gen), value) << "garbage under " << k;
        ASSERT_EQ(id, gen % 100) << "foreign value under " << k;
        ASSERT_LE(gen, st.last_gen) << "future value under " << k;
        ASSERT_GE(gen, st.synced_gen) << "synced write rolled back: " << k;
      } else {
        ASSERT_TRUE(s.IsNotFound()) << k << ": " << s.ToString();
        ASSERT_LT(st.synced_gen, 0) << "synced key lost: " << k;
      }
    }
    ASSERT_TRUE(db->Get(ReadOptions(), "never-written", &value).IsNotFound());

    WriteOptions sync;
    sync.sync = true;
    ASSERT_TRUE(db->Put(sync, "post-crash", "alive").ok());
    ASSERT_TRUE(db->Get(ReadOptions(), "post-crash", &value).ok());
    ASSERT_EQ("alive", value);
  }
}

// A power cut in the middle of a compaction, in the middle of an output's
// writes, after other outputs were written and closed but before the
// commit record: the outputs are untagged tables in a set region nothing
// else uses. Open removes them, which releases the region, and the doctor
// agrees.
TEST(UncommittedOutputTest, OpenRemovesOutputsAndTheirRegion) {
  const StackConfig config = SweepConfig(SystemKind::kSEALDB);
  auto load = [](DB* db) {
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), Key(i % 1000), Value(i, 0)).ok());
    }
    db->WaitForIdle();
  };

  // Yardstick: blocks the final full compaction writes on an identical,
  // deterministic (inline) stack.
  uint64_t compaction_blocks = 0;
  {
    std::unique_ptr<Stack> stack;
    ASSERT_TRUE(BuildStack(config, "/db", &stack).ok());
    load(stack->db());
    const uint64_t before = stack->fault_drive()->blocks_written();
    stack->db()->CompactRange(nullptr, nullptr);
    compaction_blocks = stack->fault_drive()->blocks_written() - before;
  }
  ASSERT_GT(compaction_blocks, 8u);

  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(config, "/db", &stack).ok());
  load(stack->db());
  stack->fault_drive()->CrashAfterBlockWrites(compaction_blocks / 2);
  stack->db()->CompactRange(nullptr, nullptr);
  ASSERT_TRUE(stack->fault_drive()->crashed());

  // The dead stack still shows what the crash left: written, closed and
  // never tagged outputs, in set regions.
  fs::FileStore* store = stack->store();
  std::vector<std::string> uncommitted;
  std::set<uint64_t> regions;
  for (const fs::FileInfo& info : store->ListFiles()) {
    uint64_t number;
    FileType type;
    if (ParseFileName(info.name, &number, &type) && type == kTableFile &&
        info.tag.empty()) {
      uncommitted.push_back(info.name);
      if (info.region_id != 0) regions.insert(info.region_id);
    }
  }
  ASSERT_FALSE(uncommitted.empty());
  ASSERT_FALSE(regions.empty());
  // The cut fell inside an output's data write: the region space carved
  // for that write outgrows the output's size, which never covered it.
  const uint64_t block = store->drive()->geometry().block_bytes;
  int cut_outputs = 0;
  for (const std::string& name : uncommitted) {
    std::vector<fs::Extent> extents;
    uint64_t size = 0;
    ASSERT_TRUE(store->GetFileExtents(name, &extents).ok());
    ASSERT_TRUE(store->GetFileSize(name, &size).ok());
    uint64_t carved = 0;
    for (const fs::Extent& e : extents) carved += e.length;
    if (carved > (size + block - 1) / block * block) cut_outputs++;
  }
  EXPECT_EQ(cut_outputs, 1);

  ASSERT_TRUE(stack->Reopen().ok());
  store = stack->store();
  for (const std::string& name : uncommitted) {
    EXPECT_FALSE(store->FileExists(name)) << name;
  }
  for (uint64_t id : regions) {
    fs::Extent extent;
    EXPECT_TRUE(store->GetRegionExtent(id, &extent).IsNotFound()) << id;
  }
  ExpectOnlyLiveTablesAndWals(store, stack->db()->shard(0));

  std::set<uint64_t> live_sets;
  for (const LiveFileMeta& f : stack->db()->shard(0)->GetLiveFilesMetadata()) {
    if (f.set_id != 0) live_sets.insert(f.set_id);
  }
  fs::DoctorReport report;
  ASSERT_TRUE(fs::RunDoctor(stack->drive(), fs::DoctorOptions(), &report).ok());
  ASSERT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.shards[0].regions, live_sets.size()) << report.ToString();
  EXPECT_EQ(report.shards[0].orphaned_regions, 0u) << report.ToString();

  std::string value;
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(stack->db()->Get(ReadOptions(), Key(i), &value).ok()) << i;
  }
}

// The superblock is written once at Format and never rewritten, so losing
// it means losing the shard map: reopening must fail with a typed error
// (not a crash, not silent data loss) and the doctor must name it.
TEST(ShardedCrashPointTest, DamagedSuperblockFailsTypedAndDoctorFlagsIt) {
  StackConfig config = SweepConfig(SystemKind::kSEALDB);
  config.num_shards = kSweepShards;
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(config, "/db", &stack).ok());

  WriteOptions sync;
  sync.sync = true;
  for (int i = 0; i < 32; i++) {
    ASSERT_TRUE(stack->db()->Put(sync, Key(i), Value(i, i)).ok());
  }
  stack->db()->WaitForIdle();

  std::string garbage(stack->drive()->geometry().block_bytes, '\xcc');
  ASSERT_TRUE(stack->drive()->Write(0, garbage).ok());

  fs::DoctorOptions dopt;
  dopt.num_shards = kSweepShards;
  fs::DoctorReport report;
  ASSERT_TRUE(fs::RunDoctor(stack->drive(), dopt, &report).ok());
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty()) << report.ToString();

  const Status reopen = stack->Reopen();
  ASSERT_FALSE(reopen.ok());
  EXPECT_TRUE(reopen.IsCorruption() || reopen.IsInvalidArgument())
      << reopen.ToString();
}

// The doctor checks that live data is really on the media: a live table
// with one trimmed block is an error naming the table, in check and in
// repair mode alike (no metadata rewrite brings the block back).
TEST(DoctorLiveDataTest, TrimmedBlockOfLiveTableIsAnError) {
  StackConfig config = SweepConfig(SystemKind::kSEALDB);
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(config, "/db", &stack).ok());
  WriteOptions sync;
  sync.sync = true;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(stack->db()->Put(sync, Key(i), Value(i, i)).ok());
  }
  stack->db()->WaitForIdle();

  fs::DoctorOptions dopt;
  fs::DoctorReport report;
  ASSERT_TRUE(fs::RunDoctor(stack->drive(), dopt, &report).ok());
  ASSERT_TRUE(report.ok()) << report.ToString();

  const uint64_t block = stack->drive()->geometry().block_bytes;
  std::string victim;
  for (const fs::FileInfo& file : stack->store()->ListFiles()) {
    if (!file.tag.empty() && file.size > block) {
      victim = file.name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::vector<fs::Extent> extents;
  ASSERT_TRUE(stack->store()->GetFileExtents(victim, &extents).ok());
  ASSERT_GE(extents[0].length, 2 * block);
  ASSERT_TRUE(stack->drive()->Trim(extents[0].offset + block, block).ok());

  for (const bool repair : {false, true}) {
    dopt.repair = repair;
    ASSERT_TRUE(fs::RunDoctor(stack->drive(), dopt, &report).ok());
    ASSERT_FALSE(report.ok()) << "repair=" << repair;
    bool flagged = false;
    for (const std::string& e : report.shards[0].errors) {
      flagged = flagged || (e.find(victim) != std::string::npos &&
                            e.find("not valid on the drive") !=
                                std::string::npos);
    }
    EXPECT_TRUE(flagged) << report.ToString();
  }
}

// The recovered free map is derived "data slice minus live extents"
// (SMORE-style), so it is only sound while live extents are disjoint. A
// double-allocated range — the damage a buggy allocator or a replayed
// stale metadata record leaves behind — corrupts that derivation. Forge a
// well-framed journal record claiming a block inside a live table's
// extent and prove the doctor flags the overlap, repair drops the bogus
// claimant (the lower-offset owner allocated first and keeps the range)
// and rewrites both checkpoint slots, the re-check is clean, and the
// store reopens with its data intact on the repaired, sound free map.
TEST(DoctorRepairTest, RepairFixesDeliberatelyCorruptedFreeMap) {
  StackConfig config = SweepConfig(SystemKind::kSEALDB);
  std::unique_ptr<Stack> stack;
  ASSERT_TRUE(BuildStack(config, "/db", &stack).ok());

  WriteOptions sync;
  sync.sync = true;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(stack->db()->Put(sync, Key(i), Value(i, i)).ok());
  }
  stack->db()->WaitForIdle();

  // A live table extent to double-allocate into (>= 2 blocks, so a claim
  // starting one block in stays strictly inside it).
  fs::FileStore* store = stack->shard_store(0);
  const auto& geo = stack->drive()->geometry();
  const uint64_t block = geo.block_bytes;
  fs::Extent victim;
  bool found = false;
  for (const std::string& name : store->GetChildren()) {
    if (name.size() < 4 || name.substr(name.size() - 4) != ".ldb") continue;
    std::vector<fs::Extent> extents;
    if (!store->GetFileExtents(name, &extents).ok() || extents.empty()) {
      continue;
    }
    if (extents[0].length >= 2 * block) {
      victim = extents[0];
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  // Mirror of the store's conventional-slice geometry (see fs/doctor.cc):
  // two checkpoint slots, then each slot's append log.
  const core::ShardLayout layout(geo, 1, geo.track_bytes);
  const core::ShardRegion& rg = layout.region(0);
  const uint64_t slot_bytes = rg.conv_len / 16 / block * block;
  const uint64_t log_bytes = rg.conv_len / 4 / block * block;

  // Freshest checkpoint sequence and slot, from the slot headers.
  uint64_t ckpt_seq = 0;
  int ckpt_slot = -1;
  std::string scratch(block, '\0');
  for (int slot = 0; slot < 2; slot++) {
    ASSERT_TRUE(stack->drive()
                    ->Read(rg.conv_base + slot * slot_bytes, block,
                           scratch.data())
                    .ok());
    Slice h(scratch);
    uint32_t magic, len, crc;
    uint64_t seq;
    if (GetFixed32(&h, &magic) && magic == fs::kCkptMagic &&
        GetFixed64(&h, &seq) && GetFixed32(&h, &len) &&
        GetFixed32(&h, &crc) && seq > ckpt_seq) {
      ckpt_seq = seq;
      ckpt_slot = slot;
    }
  }
  ASSERT_GT(ckpt_seq, 0u);
  const uint64_t log_begin =
      rg.conv_base + 2 * slot_bytes + ckpt_slot * log_bytes;
  const uint64_t log_end = log_begin + log_bytes;

  // Walk the journal frames (headers only) to the tail.
  uint64_t pos = log_begin;
  uint64_t expect = ckpt_seq + 1;
  while (pos + block <= log_end) {
    ASSERT_TRUE(stack->drive()->Read(pos, block, scratch.data()).ok());
    Slice h(scratch);
    uint32_t magic, len, crc;
    uint64_t seq;
    if (!GetFixed32(&h, &magic) || magic != fs::kJournalMagic) break;
    if (!GetFixed64(&h, &seq) || !GetFixed32(&h, &len) ||
        !GetFixed32(&h, &crc)) {
      break;
    }
    if (seq != expect) break;
    const uint64_t total =
        (fs::kRecordHeader + len + block - 1) / block * block;
    if (pos + total > log_end) break;
    pos += total;
    expect = seq + 1;
  }

  // Forge a well-framed kCreateFile record claiming one block strictly
  // inside the victim's extent. Strictly inside, so the overlap sweep's
  // lower-offset-wins rule dooms the forgery, never the real table.
  std::string payload;
  payload.push_back(static_cast<char>(fs::kCreateFile));
  PutLengthPrefixedSlice(&payload, "/forged/evil.ldb");
  PutVarint64(&payload, 0);      // standalone: no region
  PutVarint64(&payload, block);  // size
  PutVarint32(&payload, 1);      // one extent
  PutVarint64(&payload, victim.offset + block);
  PutVarint64(&payload, block);
  PutVarint64(&payload, 0);  // guard
  std::string rec;
  PutFixed32(&rec, fs::kJournalMagic);
  PutFixed64(&rec, expect);
  PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
  PutFixed32(&rec,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  rec.append(payload);
  rec.resize((rec.size() + block - 1) / block * block, '\0');
  ASSERT_LE(pos + rec.size(), log_end);
  ASSERT_TRUE(stack->drive()->Write(pos, rec).ok());

  // Check: the doctor names the double-allocated range.
  fs::DoctorOptions dopt;
  fs::DoctorReport report;
  ASSERT_TRUE(fs::RunDoctor(stack->drive(), dopt, &report).ok());
  ASSERT_EQ(report.shards.size(), 1u);
  ASSERT_FALSE(report.ok());
  bool overlap_flagged = false;
  for (const auto& e : report.shards[0].errors) {
    overlap_flagged =
        overlap_flagged || e.find("double-allocated") != std::string::npos;
  }
  EXPECT_TRUE(overlap_flagged) << report.ToString();

  // Repair drops exactly the forged claimant and rewrites both slots.
  dopt.repair = true;
  ASSERT_TRUE(fs::RunDoctor(stack->drive(), dopt, &report).ok());
  ASSERT_EQ(report.shards[0].dropped_files, 1u) << report.ToString();
  EXPECT_TRUE(report.shards[0].rewrote_checkpoints);

  // The re-check is clean: live extents are disjoint again, so the
  // re-derived free map is sound.
  dopt.repair = false;
  ASSERT_TRUE(fs::RunDoctor(stack->drive(), dopt, &report).ok());
  ASSERT_TRUE(report.ok()) << report.ToString();

  // And the store agrees: it reopens on the repaired metadata with every
  // key intact and keeps allocating.
  ASSERT_TRUE(stack->Reopen().ok());
  std::string value;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(stack->db()->Get(ReadOptions(), Key(i), &value).ok()) << i;
    ASSERT_EQ(Value(i, i), value);
  }
  ASSERT_TRUE(stack->db()->Put(sync, "post-repair", "alive").ok());
}

INSTANTIATE_TEST_SUITE_P(Systems, CrashPointTest,
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
