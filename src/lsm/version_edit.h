// VersionEdit: a delta applied to a Version — the tables a flush or
// compaction adds and deletes, and the WALs a flush retires.
// VersionSet::LogAndApply writes each edit as ONE FileStore commit record
// (fs/file_store.h): added tables get their tag, deleted tables lose it,
// retired WALs are removed. The tag is the only table metadata the store
// does not already hold (size is the file's logical size, the SEALDB set
// id its region id).
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lsm/dbformat.h"
#include "util/status.h"

namespace sealdb {

class VersionSet;

struct FileMetaData {
  FileMetaData() : refs(0), allowed_seeks(1 << 30), file_size(0), set_id(0) {}

  int refs;
  int allowed_seeks;  // Seeks allowed until compaction
  uint64_t number;
  uint64_t file_size;    // File size in bytes
  InternalKey smallest;  // Smallest internal key served by table
  InternalKey largest;   // Largest internal key served by table
  uint64_t set_id;       // SEALDB set (FileStore region) id, 0 if none
};

// Table tag codec: a live table's level and smallest and largest internal
// keys. DecodeTableTag rejects truncated input, trailing bytes and levels
// past 63.
void EncodeTableTag(std::string* dst, int level, const FileMetaData& f);
bool DecodeTableTag(Slice tag, int* level, FileMetaData* f);

class VersionEdit {
 public:
  // Add the specified file at the specified number.
  // REQUIRES: "smallest" and "largest" are smallest and largest keys in file
  void AddFile(int level, uint64_t file, uint64_t file_size,
               const InternalKey& smallest, const InternalKey& largest,
               uint64_t set_id = 0) {
    FileMetaData f;
    f.number = file;
    f.file_size = file_size;
    f.smallest = smallest;
    f.largest = largest;
    f.set_id = set_id;
    new_files_.push_back(std::make_pair(level, f));
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
  std::vector<std::pair<int, FileMetaData>> new_files_;
  std::vector<uint64_t> removed_logs_;
};

}  // namespace sealdb
