// SealDB: the package's one-call public facade. Assembles the full SEALDB
// stack (emulated raw HM-SMR drive -> dynamic band allocator -> FileStore
// -> set-aware LSM engine) behind the familiar get/put/delete/scan API the
// paper keeps unchanged (Sec. III-C).
//
//   sealdb::core::SealDBOptions opt;           // tune capacity etc.
//   std::unique_ptr<sealdb::core::SealDB> db;
//   auto s = sealdb::core::SealDB::Open(opt, &db);
//   db->Put("key", "value");
//   std::string v;
//   s = db->Get("key", &v);
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/presets.h"
#include "core/band_inspector.h"
#include "core/fragment_gc.h"
#include "lsm/db.h"

namespace sealdb::core {

struct SealDBOptions {
  // Emulated drive capacity.
  uint64_t capacity_bytes = 8ull << 30;
  // SSTable target size; also the free-space-list class unit.
  uint64_t sstable_bytes = 4ull << 20;
  // Memtable budget.
  uint64_t write_buffer_bytes = 4ull << 20;
  // Track size and shingle overlap (guard = overlap * track bytes).
  uint32_t track_bytes = 1u << 20;
  uint32_t shingle_overlap_tracks = 4;
  // Bloom filter bits per key (0 disables).
  int bloom_bits_per_key = 10;
  // Run compactions inline (deterministic) or on a background thread.
  bool inline_compactions = true;
};

class SealDB {
 public:
  static Status Open(const SealDBOptions& options,
                     std::unique_ptr<SealDB>* out);

  ~SealDB() = default;
  SealDB(const SealDB&) = delete;
  SealDB& operator=(const SealDB&) = delete;

  // ---- KV interface (unchanged, per the paper) ----
  Status Put(const Slice& key, const Slice& value);
  Status Get(const Slice& key, std::string* value);
  Status Delete(const Slice& key);
  Status Write(const WriteOptions& opts, WriteBatch* batch);

  // Ordered scan from `start`, up to `limit` entries.
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out);

  // Raw engine access for advanced use.
  DB* raw() { return stack_->db(); }

  // ---- introspection ----
  double wa() const { return stack_->wa(); }
  double awa() const { return stack_->awa(); }
  double mwa() const { return stack_->mwa(); }
  BandInspector band_inspector() const {
    return BandInspector(stack_->dynamic_allocator());
  }
  baselines::Stack* stack() { return stack_.get(); }

  // Simulate a crash and reopen from drive contents.
  Status CrashAndReopen() { return stack_->Reopen(); }

  // Fragment garbage collection (the paper's future-work supplement):
  // compacts the sets pinning small fragments when fragmentation exceeds
  // the trigger. See core/fragment_gc.h.
  FragmentGcResult RunFragmentGc(const FragmentGcOptions& options) {
    FragmentGc gc(stack_->db(), stack_->store(),
                  stack_->dynamic_allocator(), options);
    return gc.Run();
  }

 private:
  SealDB() = default;
  std::unique_ptr<baselines::Stack> stack_;
};

}  // namespace sealdb::core
