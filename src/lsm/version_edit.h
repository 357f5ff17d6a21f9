// VersionEdit: a delta applied to a Version — the tables a flush or
// compaction adds and deletes, and the WALs a flush retires.
// VersionSet::LogAndApply writes each edit as ONE FileStore commit record
// (fs/file_store.h): added tables get their tag, deleted tables lose it,
// retired WALs are removed. The tag is the only table metadata the store
// does not already hold (size is the file's logical size, the SEALDB set
// id its region id).
#pragma once

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/table.h"
#include "util/status.h"

namespace sealdb {

class VersionSet;

struct FileMetaData {
  FileMetaData() = default;
  FileMetaData(const FileMetaData&) = delete;
  FileMetaData& operator=(const FileMetaData&) = delete;
  ~FileMetaData() { delete table.load(std::memory_order_relaxed); }

  int refs = 0;
  int allowed_seeks = 1 << 30;  // Seeks allowed until compaction
  uint64_t number = 0;
  uint64_t file_size = 0;  // File size in bytes
  InternalKey smallest;    // Smallest internal key served by table
  InternalKey largest;     // Largest internal key served by table
  uint64_t set_id = 0;     // SEALDB set (FileStore region) id, 0 if none
  // The table's reader, with its store handle; null until the first read
  // opens it (TableCache::Open) unless it came from the builder's tail.
  // Set once, never replaced. It closes, unpinning its index and filter
  // pages, when this FileMetaData is deleted: by the engine's cleanup of
  // dead tables (DBImpl::RemoveObsoleteFiles) once no Version lists the
  // table, or with an edit that never installs.
  std::atomic<Table*> table{nullptr};
};

// Table tag codec: a live table's level and smallest and largest internal
// keys. DecodeTableTag rejects truncated input, trailing bytes and levels
// past 63.
void EncodeTableTag(std::string* dst, int level, const FileMetaData& f);
bool DecodeTableTag(Slice tag, int* level, FileMetaData* f);

class VersionEdit {
 public:
  // Add the specified file at the specified number. `table` is the new
  // table's reader when one is open (TableCache::OpenTable); it moves
  // into the installed FileMetaData, or closes with this edit if the edit
  // never installs.
  // REQUIRES: "smallest" and "largest" are smallest and largest keys in file
  void AddFile(int level, uint64_t file, uint64_t file_size,
               const InternalKey& smallest, const InternalKey& largest,
               uint64_t set_id = 0, std::unique_ptr<Table> table = nullptr) {
    auto f = std::make_unique<FileMetaData>();
    f->number = file;
    f->file_size = file_size;
    f->smallest = smallest;
    f->largest = largest;
    f->set_id = set_id;
    f->table.store(table.release(), std::memory_order_relaxed);
    new_files_.emplace_back(level, std::move(f));
  }

  // Delete the specified "file" from the specified "level".
  void RemoveFile(int level, uint64_t file) {
    deleted_files_.insert(std::make_pair(level, file));
  }

  // The memtable this edit flushes was the last user of WAL `number`.
  void RemoveLog(uint64_t number) { removed_logs_.push_back(number); }

 private:
  friend class VersionSet;

  std::set<std::pair<int, uint64_t>> deleted_files_;
  std::vector<std::pair<int, std::unique_ptr<FileMetaData>>> new_files_;
  std::vector<uint64_t> removed_logs_;
};

}  // namespace sealdb
