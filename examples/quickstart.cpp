// Quickstart: open a SEALDB instance (emulated HM-SMR drive + dynamic
// bands + set-aware LSM engine), do some KV work, inspect the device-level
// effects.
//
//   ./quickstart
#include <cstdio>
#include <memory>
#include <string>

#include "baselines/presets.h"
#include "core/band_inspector.h"
#include "lsm/write_batch.h"

int main() {
  // 1. Open a SEALDB stack on a 2 GB emulated shingled drive.
  sealdb::baselines::StackConfig config;  // kind defaults to kSEALDB
  config.capacity_bytes = 2ull << 30;
  config.sstable_bytes = 1 << 20;         // 1 MB SSTables for the demo
  config.write_buffer_bytes = 1 << 20;
  config.track_bytes = 256 << 10;         // 256 KB tracks, 1 MB guard
  std::unique_ptr<sealdb::baselines::Stack> stack;
  sealdb::Status s = sealdb::baselines::BuildStack(config, "/sealdb", &stack);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("opened SEALDB on a %.1f GB emulated HM-SMR drive\n",
              config.capacity_bytes / (1024.0 * 1024.0 * 1024.0));
  sealdb::DB* db = stack->db();
  const sealdb::WriteOptions wo;
  const sealdb::ReadOptions ro;

  // 2. Basic put/get/delete.
  db->Put(wo, "greeting", "hello, shingled world");
  std::string value;
  s = db->Get(ro, "greeting", &value);
  std::printf("get(greeting) -> %s\n", value.c_str());
  db->Delete(wo, "greeting");
  s = db->Get(ro, "greeting", &value);
  std::printf("after delete: %s\n", s.IsNotFound() ? "NotFound" : "??");

  // 3. Write enough data to trigger flushes and set-forming compactions.
  std::printf("loading 40k random keys...\n");
  char key[32], val[256];
  for (int i = 0; i < 40000; i++) {
    const int k = (i * 2654435761u) % 100000;
    std::snprintf(key, sizeof(key), "user%08d", k);
    std::snprintf(val, sizeof(val), "value-%d-%0240d", i, 0);
    s = db->Put(wo, key, val);
    if (!s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // 4. Ordered scan.
  std::printf("scan from user00005:\n");
  std::unique_ptr<sealdb::Iterator> it(db->NewIterator(ro));
  int rows = 0;
  for (it->Seek("user00005"); it->Valid() && rows < 3; it->Next(), rows++) {
    std::printf("  %s -> %.20s...\n", it->key().ToString().c_str(),
                it->value().ToString().c_str());
  }
  it.reset();

  // 5. Inspect the LSM and the drive. On dynamic bands the auxiliary write
  // amplification is exactly 1.0: every byte the store wrote was written
  // to the media exactly once.
  const sealdb::obs::MetricsRegistry& metrics =
      *stack->metrics_registry();
  std::printf("\n--- stats ---\n");
  std::printf(
      "flushes: %llu, compactions: %llu\n",
      (unsigned long long)metrics.counter_family_sum(
          "sealdb_engine_flushes_total"),
      (unsigned long long)metrics.counter_family_sum(
          "sealdb_engine_compactions_total"));
  std::printf("LSM write amplification (WA):  %.2f\n", stack->wa());
  std::printf("device amplification (AWA):    %.2f  <- dynamic bands\n",
              stack->awa());
  std::printf("multiplicative (MWA):          %.2f\n", stack->mwa());

  // 6. Dynamic band layout.
  sealdb::core::BandInspector bands(stack->dynamic_allocator());
  std::printf("\n--- dynamic bands ---\n%s", bands.Describe(2 << 20).c_str());

  // 7. Crash and recover from drive contents alone.
  sealdb::WriteOptions sync;
  sync.sync = true;
  sealdb::WriteBatch batch;
  batch.Put("durable", "yes");
  db->Write(sync, &batch);
  s = stack->Reopen();
  if (!s.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n", s.ToString().c_str());
    return 1;
  }
  stack->db()->Get(ro, "durable", &value);
  std::printf("\nafter crash+reopen: durable=%s\n", value.c_str());
  return 0;
}
