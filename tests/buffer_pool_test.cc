// BufferPool tests: partitioned page-table routing, pin/unpin refcounts,
// batched second-chance CLOCK eviction order, kind-biased admission,
// whole-file eviction (dead SSTables), owner namespacing across clients,
// the lock-free optimistic hit path, metric plumbing through a full stack,
// the engine's table readers (opened once, closed with the last Version
// that lists the table, a quarantine ban lifted when the table dies), and
// multi-threaded stress legs (readers racing eviction and EvictFile, first
// reads racing a table open) that are meaningful under TSan via the
// "stress" ctest label.
#include "buf/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "fs/file_store.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "obs/metrics.h"

namespace sealdb::buf {

namespace {

// Counting payloads: every test value is a heap uint64_t tracked by these
// so leaks and double-frees show up as counter mismatches.
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};

void* MakeValue(uint64_t tag) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return new uint64_t(tag);
}

void DeleteValue(void* v) {
  g_frees.fetch_add(1, std::memory_order_relaxed);
  delete static_cast<uint64_t*>(v);
}

uint64_t TagOf(void* v) { return *static_cast<uint64_t*>(v); }

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_allocs.store(0);
    g_frees.store(0);
  }

  std::unique_ptr<BufferPool> MakePool(size_t capacity,
                                       size_t partitions = 16) {
    BufferPool::Config config;
    config.capacity_bytes = capacity;
    config.partitions = partitions;
    return std::make_unique<BufferPool>(config);
  }
};

}  // namespace

TEST_F(BufferPoolTest, ManyDistinctPagesRouteAndHit) {
  auto pool = MakePool(64 << 20, 8);
  BufferClient client = pool->RegisterClient("0");
  constexpr int kPages = 512;
  size_t expected_usage = 0;
  for (int i = 0; i < kPages; i++) {
    BufferPool::PageRef ref;
    const uint64_t file = static_cast<uint64_t>(i % 7);
    const uint64_t off = static_cast<uint64_t>(i) * 4096;
    pool->Insert(client, file, off, BlockKind::kData,
                 MakeValue(static_cast<uint64_t>(i)), 1000 + i, &DeleteValue,
                 &ref);
    expected_usage += 1000 + i;
    ASSERT_TRUE(ref);
    EXPECT_EQ(TagOf(ref.value()), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(pool->usage_bytes(), expected_usage);
  for (int i = 0; i < kPages; i++) {
    BufferPool::PageRef ref;
    ASSERT_TRUE(pool->Lookup(client, static_cast<uint64_t>(i % 7),
                             static_cast<uint64_t>(i) * 4096,
                             BlockKind::kData, &ref))
        << "page " << i;
    EXPECT_EQ(TagOf(ref.value()), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(pool->hits(), static_cast<uint64_t>(kPages));
  BufferPool::PageRef miss;
  EXPECT_FALSE(pool->Lookup(client, 99, 0, BlockKind::kData, &miss));
  EXPECT_EQ(pool->misses(), 1u);
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

TEST_F(BufferPoolTest, PinHoldsValueAcrossEvictFile) {
  auto pool = MakePool(1 << 20);
  BufferClient client = pool->RegisterClient("0");
  BufferPool::PageRef pin;
  pool->Insert(client, 1, 0, BlockKind::kData, MakeValue(7), 4096,
               &DeleteValue, &pin);

  // A second lookup pins the same frame; both refs see the same value.
  BufferPool::PageRef pin2;
  ASSERT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kData, &pin2));
  EXPECT_EQ(pin.value(), pin2.value());
  pin2.Reset();

  // Dropping the file dooms the pinned page: invisible to lookups, but
  // the payload stays alive until the last pin releases it.
  pool->EvictFile(client, 1);
  BufferPool::PageRef miss;
  EXPECT_FALSE(pool->Lookup(client, 1, 0, BlockKind::kData, &miss));
  EXPECT_EQ(g_frees.load(), 0u);
  EXPECT_EQ(TagOf(pin.value()), 7u);
  pin.Reset();
  EXPECT_EQ(g_frees.load(), 1u);
  pool->UnregisterClient(client);
}

TEST_F(BufferPoolTest, ClockSecondChancePrefersTouchedPage) {
  auto pool = MakePool(8192);
  BufferClient client = pool->RegisterClient("0");
  {
    BufferPool::PageRef a, b;
    pool->Insert(client, 1, 0, BlockKind::kData, MakeValue(1), 4096,
                 &DeleteValue, &a);
    pool->Insert(client, 1, 4096, BlockKind::kData, MakeValue(2), 4096,
                 &DeleteValue, &b);
  }
  {
    // Touch A: the hit refreshes its chance counter, so the sweep spends
    // a chance on A but reclaims untouched B immediately.
    BufferPool::PageRef a;
    ASSERT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kData, &a));
  }
  {
    BufferPool::PageRef c;
    pool->Insert(client, 2, 0, BlockKind::kData, MakeValue(3), 4096,
                 &DeleteValue, &c);
  }
  BufferPool::PageRef ref;
  EXPECT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kData, &ref));
  ref.Reset();
  EXPECT_FALSE(pool->Lookup(client, 1, 4096, BlockKind::kData, &ref));
  EXPECT_EQ(pool->evictions(), 1u);
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

TEST_F(BufferPoolTest, AdmissionBiasEvictsDataBeforeIndex) {
  auto pool = MakePool(8192);
  BufferClient client = pool->RegisterClient("0");
  {
    BufferPool::PageRef i, d;
    // Untouched index enters with more chances than untouched data.
    pool->Insert(client, 1, 0, BlockKind::kIndex, MakeValue(1), 4096,
                 &DeleteValue, &i);
    pool->Insert(client, 1, 4096, BlockKind::kData, MakeValue(2), 4096,
                 &DeleteValue, &d);
  }
  {
    BufferPool::PageRef c;
    pool->Insert(client, 2, 0, BlockKind::kData, MakeValue(3), 4096,
                 &DeleteValue, &c);
  }
  BufferPool::PageRef ref;
  EXPECT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kIndex, &ref));
  ref.Reset();
  EXPECT_FALSE(pool->Lookup(client, 1, 4096, BlockKind::kData, &ref));
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

TEST_F(BufferPoolTest, EvictFileDropsOnlyThatFile) {
  auto pool = MakePool(1 << 20);
  BufferClient client = pool->RegisterClient("0");
  for (uint64_t off = 0; off < 3 * 4096; off += 4096) {
    BufferPool::PageRef ref;
    pool->Insert(client, 1, off, BlockKind::kData, MakeValue(off), 4096,
                 &DeleteValue, &ref);
  }
  {
    BufferPool::PageRef ref;
    pool->Insert(client, 2, 0, BlockKind::kData, MakeValue(99), 4096,
                 &DeleteValue, &ref);
  }
  const size_t usage_before = pool->usage_bytes();
  pool->EvictFile(client, 1);
  EXPECT_EQ(pool->usage_bytes(), usage_before - 3 * 4096);
  EXPECT_EQ(g_frees.load(), 3u);
  BufferPool::PageRef ref;
  for (uint64_t off = 0; off < 3 * 4096; off += 4096) {
    EXPECT_FALSE(pool->Lookup(client, 1, off, BlockKind::kData, &ref));
  }
  EXPECT_TRUE(pool->Lookup(client, 2, 0, BlockKind::kData, &ref));
  ref.Reset();
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

TEST_F(BufferPoolTest, OwnersNamespaceFileNumbers) {
  auto pool = MakePool(1 << 20);
  BufferClient c1 = pool->RegisterClient("0");
  BufferClient c2 = pool->RegisterClient("1");
  {
    BufferPool::PageRef r1, r2;
    pool->Insert(c1, 5, 0, BlockKind::kData, MakeValue(100), 4096,
                 &DeleteValue, &r1);
    pool->Insert(c2, 5, 0, BlockKind::kData, MakeValue(200), 4096,
                 &DeleteValue, &r2);
  }
  BufferPool::PageRef ref;
  ASSERT_TRUE(pool->Lookup(c1, 5, 0, BlockKind::kData, &ref));
  EXPECT_EQ(TagOf(ref.value()), 100u);
  ref.Reset();
  ASSERT_TRUE(pool->Lookup(c2, 5, 0, BlockKind::kData, &ref));
  EXPECT_EQ(TagOf(ref.value()), 200u);
  ref.Reset();
  // Tearing down client 1 purges only its pages.
  pool->UnregisterClient(c1);
  EXPECT_EQ(g_frees.load(), 1u);
  ASSERT_TRUE(pool->Lookup(c2, 5, 0, BlockKind::kData, &ref));
  EXPECT_EQ(TagOf(ref.value()), 200u);
  ref.Reset();
  pool->UnregisterClient(c2);
  EXPECT_EQ(g_frees.load(), 2u);
}

TEST_F(BufferPoolTest, DuplicateInsertKeepsResidentCopy) {
  auto pool = MakePool(1 << 20);
  BufferClient client = pool->RegisterClient("0");
  BufferPool::PageRef first, second;
  pool->Insert(client, 1, 0, BlockKind::kData, MakeValue(1), 4096,
               &DeleteValue, &first);
  pool->Insert(client, 1, 0, BlockKind::kData, MakeValue(2), 4096,
               &DeleteValue, &second);
  // The resident copy won; the duplicate payload was deleted and the
  // caller handed a pin on the original.
  EXPECT_EQ(g_frees.load(), 1u);
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(TagOf(second.value()), 1u);
  first.Reset();
  second.Reset();
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

TEST_F(BufferPoolTest, SingleThreadedHitsAreOptimistic) {
  auto pool = MakePool(1 << 20);
  BufferClient client = pool->RegisterClient("0");
  {
    BufferPool::PageRef ref;
    pool->Insert(client, 1, 0, BlockKind::kData, MakeValue(1), 4096,
                 &DeleteValue, &ref);
  }
  for (int i = 0; i < 10; i++) {
    BufferPool::PageRef ref;
    ASSERT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kData, &ref));
  }
  // With no contention every hit should take the no-lock fast path.
  EXPECT_EQ(pool->optimistic_hits(), 10u);
  EXPECT_EQ(pool->hits(), 10u);
  pool->UnregisterClient(client);
}

TEST_F(BufferPoolTest, MetricsFamiliesAreLabelled) {
  BufferPool::Config config;
  config.capacity_bytes = 1 << 20;
  auto registry = std::make_shared<obs::MetricsRegistry>();
  config.metrics_registry = registry;
  auto pool = std::make_unique<BufferPool>(config);
  BufferClient client = pool->RegisterClient("3");
  {
    BufferPool::PageRef ref;
    pool->Insert(client, 1, 0, BlockKind::kFilter, MakeValue(1), 4096,
                 &DeleteValue, &ref);
  }
  BufferPool::PageRef ref;
  ASSERT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kFilter, &ref));
  ref.Reset();
  EXPECT_FALSE(pool->Lookup(client, 1, 999, BlockKind::kData, &ref));
  pool->EvictFile(client, 1);
  EXPECT_EQ(registry->counter_family_sum("sealdb_buf_hits_total",
                                         {{"shard", "3"}, {"kind", "filter"}}),
            1u);
  EXPECT_EQ(registry->counter_family_sum("sealdb_buf_misses_total",
                                         {{"shard", "3"}}),
            1u);
  EXPECT_EQ(registry->counter_family_sum("sealdb_buf_evictions_total",
                                         {{"cause", "drop"}}),
            1u);
  EXPECT_GE(registry->counter_family_sum("sealdb_buf_pins_total", {}), 2u);
  // The collect hook refreshes the pool gauges on render.
  const std::string text = registry->Render();
  EXPECT_NE(text.find("sealdb_buf_capacity_bytes"), std::string::npos);
  EXPECT_NE(text.find("sealdb_buf_hit_ratio"), std::string::npos);
  pool->UnregisterClient(client);
}

// End-to-end plumb-through: a full stack routes every SSTable block read
// through the shared pool, and the pool's metrics land in the stack
// registry.
TEST_F(BufferPoolTest, StackReadsGoThroughPool) {
  baselines::StackConfig config;
  config.kind = baselines::SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  std::unique_ptr<baselines::Stack> stack;
  ASSERT_TRUE(baselines::BuildStack(config, "bufpool_stack", &stack).ok());
  ASSERT_NE(stack->buffer_pool(), nullptr);

  WriteOptions wo;
  std::string value(1024, 'v');
  for (int i = 0; i < 500; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(stack->db()->Put(wo, key, value).ok());
  }
  stack->db()->WaitForIdle();
  ReadOptions ro;
  for (int pass = 0; pass < 2; pass++) {
    for (int i = 0; i < 500; i++) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%06d", i);
      std::string got;
      ASSERT_TRUE(stack->db()->Get(ro, key, &got).ok()) << key;
    }
  }
  BufferPool* pool = stack->buffer_pool();
  EXPECT_GT(pool->hits(), 0u);
  EXPECT_GT(pool->optimistic_hits(), 0u);
  EXPECT_GT(pool->usage_bytes(), 0u);
  EXPECT_LE(pool->usage_bytes(), pool->capacity_bytes());
  EXPECT_GT(stack->metrics_registry()->counter_family_sum(
                "sealdb_buf_hits_total", {}),
            0u);
}

// Stress: reader threads race CLOCK eviction (tiny capacity) and a writer
// cycling EvictFile, the exact interleaving the optimistic hit path and
// the doom-on-drop protocol must survive. Run under TSan via the "stress"
// label; the alloc/free ledger catches leaks and double-frees.
TEST_F(BufferPoolTest, ConcurrentReadersEvictionAndFileDrop) {
  auto pool = MakePool(64 << 10, 4);
  BufferClient client = pool->RegisterClient("0");
  constexpr int kFiles = 4;
  constexpr int kOffsets = 64;
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; t++) {
    threads.emplace_back([&, t] {
      uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t file = (x >> 8) % kFiles;
        const uint64_t off = ((x >> 16) % kOffsets) * 4096;
        const BlockKind kind =
            (x % 8 == 0) ? BlockKind::kIndex : BlockKind::kData;
        BufferPool::PageRef ref;
        if (pool->Lookup(client, file, off, kind, &ref)) {
          EXPECT_EQ(TagOf(ref.value()), file * 1000 + off);
        } else {
          pool->Insert(client, file, off, kind,
                       MakeValue(file * 1000 + off), 2048, &DeleteValue,
                       &ref);
          EXPECT_EQ(TagOf(ref.value()), file * 1000 + off);
        }
      }
    });
  }
  std::thread dropper([&] {
    uint64_t file = 0;
    for (int i = 0; i < 200; i++) {
      pool->EvictFile(client, file % kFiles);
      file++;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true, std::memory_order_relaxed);
  });
  dropper.join();
  for (auto& th : threads) th.join();
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

// Quarantine ordering: once EvictFile(ban) returns, no later Insert for
// that file may link a page other readers could find — the loser of a
// concurrent duplicate-insert race gets its page back born doomed (usable
// by the caller, invisible to Lookup). Dropping the file as dead lifts the
// ban.
TEST_F(BufferPoolTest, BanKeepsQuarantinedFileOutOfThePool) {
  auto pool = MakePool(64 << 20, 8);
  BufferClient client = pool->RegisterClient("0");
  constexpr uint64_t kFile = 7;

  BufferPool::PageRef before;
  pool->Insert(client, kFile, 0, BlockKind::kData, MakeValue(1), 2048,
               &DeleteValue, &before);
  before.Reset();
  pool->EvictFile(client, kFile, /*ban=*/true);

  // The in-flight loser of the eviction race: its Insert still yields a
  // usable page (the read that raced the quarantine completes) ...
  BufferPool::PageRef loser;
  pool->Insert(client, kFile, 0, BlockKind::kData, MakeValue(2), 2048,
               &DeleteValue, &loser);
  ASSERT_TRUE(loser);
  EXPECT_EQ(TagOf(loser.value()), 2u);

  // ... but the page was never linked: no other reader can be served
  // stale bytes from the quarantined file, pinned or not.
  BufferPool::PageRef peek;
  EXPECT_FALSE(pool->Lookup(client, kFile, 0, BlockKind::kData, &peek));
  loser.Reset();
  EXPECT_FALSE(pool->Lookup(client, kFile, 0, BlockKind::kData, &peek));

  // Other files are untouched by the ban.
  BufferPool::PageRef other;
  pool->Insert(client, kFile + 1, 0, BlockKind::kData, MakeValue(3), 2048,
               &DeleteValue, &other);
  other.Reset();
  EXPECT_TRUE(pool->Lookup(client, kFile + 1, 0, BlockKind::kData, &other));
  other.Reset();

  // The dead-file drop lifts the ban and restores normal admission.
  EXPECT_EQ(pool->banned_files(), 1u);
  pool->EvictFile(client, kFile);
  EXPECT_EQ(pool->banned_files(), 0u);
  BufferPool::PageRef fresh;
  pool->Insert(client, kFile, 0, BlockKind::kData, MakeValue(4), 2048,
               &DeleteValue, &fresh);
  fresh.Reset();
  ASSERT_TRUE(pool->Lookup(client, kFile, 0, BlockKind::kData, &fresh));
  EXPECT_EQ(TagOf(fresh.value()), 4u);
  fresh.Reset();

  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

// The same ordering under contention: one thread bans and lifts the ban (a
// dead-file drop) in a loop while readers insert-or-lookup pages of the
// file. At no
// point may a Lookup observe a page inserted after the ban; the ledger
// catches any page leaked by the doomed-insert path. TSan-meaningful via
// the "stress" label.
TEST_F(BufferPoolTest, ConcurrentBanVsInsertNeverReAdmits) {
  auto pool = MakePool(256 << 10, 4);
  BufferClient client = pool->RegisterClient("0");
  constexpr uint64_t kFile = 3;
  constexpr int kOffsets = 16;
  std::atomic<bool> stop{false};
  // Odd = the ban is in place (stored after EvictFile(ban) returns); even =
  // about to be lifted (stored before the lifting drop starts). A reader
  // that sees the same odd value before its insert and after its verify
  // lookup knows the ban held the whole time, so the assertion cannot race
  // the lift.
  std::atomic<uint64_t> ban_state{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&, t] {
      uint64_t x = 0xdeadbeef * static_cast<uint64_t>(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t off = ((x >> 16) % kOffsets) * 4096;
        const uint64_t s1 = ban_state.load(std::memory_order_acquire);
        BufferPool::PageRef ref;
        if (!pool->Lookup(client, kFile, off, BlockKind::kData, &ref)) {
          pool->Insert(client, kFile, off, BlockKind::kData,
                       MakeValue(off), 2048, &DeleteValue, &ref);
          BufferPool::PageRef again;
          const bool found =
              pool->Lookup(client, kFile, off, BlockKind::kData, &again);
          if (s1 % 2 == 1 &&
              ban_state.load(std::memory_order_acquire) == s1) {
            EXPECT_FALSE(found)
                << "banned file re-admitted at offset " << off;
          }
        }
        EXPECT_EQ(TagOf(ref.value()), off);
      }
    });
  }
  for (uint64_t i = 0; i < 100; i++) {
    pool->EvictFile(client, kFile, /*ban=*/true);
    ban_state.store(2 * i + 1, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ban_state.store(2 * i + 2, std::memory_order_release);
    pool->EvictFile(client, kFile);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

namespace {

// A small one-shard SEALDB stack with inline compactions.
std::unique_ptr<baselines::Stack> SmallStack(const std::string& name) {
  baselines::StackConfig config;
  config.kind = baselines::SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  std::unique_ptr<baselines::Stack> stack;
  EXPECT_TRUE(baselines::BuildStack(config, name, &stack).ok());
  return stack;
}

std::string EvenKey(int i) {
  char key[32];
  std::snprintf(key, sizeof(key), "key%06d", 2 * i);
  return key;
}

// Put keys 0, 2, ..., 2 * (n - 1) with values tagged by `round`, then
// compact the whole range so every table sits in one sorted level.
void LoadAndCompact(baselines::Stack* stack, int n, char round) {
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(stack->db()
                    ->Put(WriteOptions(), EvenKey(i), std::string(1024, round))
                    .ok());
  }
  stack->db()->CompactRange(nullptr, nullptr);
}

std::vector<uint64_t> LiveTables(baselines::Stack* stack) {
  std::vector<uint64_t> numbers;
  for (const LiveFileMeta& f : stack->db()->shard(0)->GetLiveFilesMetadata()) {
    numbers.push_back(f.number);
  }
  return numbers;
}

bool StoreHasTable(baselines::Stack* stack, uint64_t number) {
  for (const fs::FileInfo& info : stack->store()->ListFiles()) {
    uint64_t n;
    FileType type;
    if (ParseFileName(info.name, &n, &type) && type == kTableFile &&
        n == number) {
      return true;
    }
  }
  return false;
}

}  // namespace

// A quarantined table that is later compacted away takes its pool ban with
// it: the ban only guards a live file's pages, and while any ban is held
// every pool Insert from the shard takes the ban mutex.
TEST_F(BufferPoolTest, QuarantineBanLiftsWhenTheTableDies) {
  auto stack = SmallStack("ban_lift");
  LoadAndCompact(stack.get(), 500, 'a');
  const std::vector<uint64_t> before = LiveTables(stack.get());
  ASSERT_FALSE(before.empty());
  BufferPool* pool = stack->buffer_pool();

  stack->db()->shard(0)->QuarantineFile(before[0]);
  EXPECT_EQ(pool->banned_files(), 1u);

  LoadAndCompact(stack.get(), 500, 'b');
  for (uint64_t number : LiveTables(stack.get())) {
    ASSERT_NE(number, before[0]);
  }
  EXPECT_FALSE(StoreHasTable(stack.get(), before[0]));
  EXPECT_EQ(pool->banned_files(), 0u);
}

// After a reopen, threads that read one not-yet-opened table at the same
// time open it once: one drive request (the table's tail), whoever wins.
// The key is absent and rejected by the table's filter, so the open is the
// only drive read.
TEST_F(BufferPoolTest, ConcurrentFirstReadsOpenATableOnce) {
  auto stack = SmallStack("open_once");
  LoadAndCompact(stack.get(), 2000, 'a');
  const std::string absent = "key001001";  // odd: never written
  auto reads = [&stack] { return stack->drive()->metrics().read_ops->Value(); };

  // One reader: the table's open is one request.
  ASSERT_TRUE(stack->Reopen().ok());
  uint64_t start = reads();
  std::string value;
  ASSERT_TRUE(stack->db()->Get(ReadOptions(), absent, &value).IsNotFound());
  ASSERT_EQ(reads() - start, 1u);

  constexpr int kThreads = 8;
  for (int round = 0; round < 5; round++) {
    ASSERT_TRUE(stack->Reopen().ok());
    start = reads();
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        std::string got;
        EXPECT_TRUE(stack->db()->Get(ReadOptions(), absent, &got).IsNotFound());
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(reads() - start, 1u) << "round " << round;
  }
}

// A table compacted away while an iterator still reads it stays whole for
// that iterator: its file, reader and pages live until the iterator is
// released. Releasing it closes the reader and removes the file, and the
// pool holds none of its pages.
TEST_F(BufferPoolTest, DeadTableLivesUntilItsLastIterator) {
  auto stack = SmallStack("dead_table");
  constexpr int kKeys = 500;
  LoadAndCompact(stack.get(), kKeys, 'a');
  const std::vector<uint64_t> old_tables = LiveTables(stack.get());
  ASSERT_FALSE(old_tables.empty());
  BufferPool* pool = stack->buffer_pool();

  std::unique_ptr<Iterator> iter(stack->db()->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());

  LoadAndCompact(stack.get(), kKeys, 'b');
  for (uint64_t number : LiveTables(stack.get())) {
    for (uint64_t old : old_tables) ASSERT_NE(number, old);
  }
  size_t old_pages = 0;
  for (uint64_t number : old_tables) {
    EXPECT_TRUE(StoreHasTable(stack.get(), number)) << number;
    old_pages += pool->FilePages(number);
  }
  EXPECT_GT(old_pages, 0u);  // at least the pinned index pages

  int i = 0;
  for (; iter->Valid(); iter->Next(), i++) {
    ASSERT_EQ(iter->key().ToString(), EvenKey(i));
    ASSERT_EQ(iter->value().ToString(), std::string(1024, 'a'));
  }
  EXPECT_TRUE(iter->status().ok());
  EXPECT_EQ(i, kKeys);
  iter.reset();

  // Releasing the last iterator removes what it held, with no flush or
  // compaction in between.
  for (uint64_t number : old_tables) {
    EXPECT_FALSE(StoreHasTable(stack.get(), number)) << number;
    EXPECT_EQ(pool->FilePages(number), 0u) << number;
  }
}

}  // namespace sealdb::buf
