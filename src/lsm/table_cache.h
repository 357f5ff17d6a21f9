// TableCache: opens the engine's table readers and compaction input images,
// and holds the engine's buffer-pool client. A live table's reader lives in
// its FileMetaData (lsm/version_edit.h) and closes with it; this class keeps
// no table of its own.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "buf/buffer_pool.h"
#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "util/options.h"

namespace sealdb {

namespace fs {
class FileStore;
}

struct FileMetaData;
class Table;

// A compaction input opened for one pass: read whole, in one drive
// request, and opened over that buffer, so the table's iterators decode
// blocks in place; or, past the compaction's image budget, opened over a
// private store handle that streams it through the handle's readahead. It
// has no buffer-pool client, so a one-pass compaction scan never flushes
// the pool's hot pages. Must outlive the table's iterators.
struct TableImage {
  TableImage();
  TableImage(TableImage&&) noexcept;
  ~TableImage();

  std::unique_ptr<char[]> data;  // null when the table streams
  // Reads from `data` or from the streaming store handle; closes first.
  std::unique_ptr<Table> table;
};

// Table images keyed by file number.
using TableImages = std::map<uint64_t, TableImage>;

class TableCache {
 public:
  TableCache(const std::string& dbname, const Options& options,
             fs::FileStore* store);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  // Purges every buffer-pool page owned by this engine incarnation, so a
  // reopened engine reusing file numbers can never alias stale frames in a
  // shared pool. REQUIRES: every table reader opened here is closed.
  ~TableCache();

  // Set *table to f's reader, opening it through a store handle on the
  // first call (one drive request for the tail, see Table::Open). A table
  // is opened once however many threads ask first; a failed open is not
  // kept, so the next call retries. The reader stays owned by *f.
  Status Open(FileMetaData* f, Table** table);

  // An iterator over table *f, valid while *f lives.
  Iterator* NewIterator(const ReadOptions& options, FileMetaData* f);

  // If a seek to internal key "k" in table *f finds an entry,
  // call (*handle_result)(arg, found_key, found_value).
  Status Get(const ReadOptions& options, FileMetaData* f, const Slice& k,
             void* arg,
             void (*handle_result)(void*, const Slice&, const Slice&));

  // Open table `file_number` into *table through a new store handle. With
  // `tail`, the bytes its TableBuilder appended after the last data block
  // (TableBuilder::tail()), the open decodes the footer, index and filter
  // and pools and pins the index as any open does, but reads nothing from
  // the drive: flushes and compactions open each table they write this way
  // and VersionEdit::AddFile carries the reader into its FileMetaData.
  Status OpenTable(uint64_t file_number, uint64_t file_size, const Slice& tail,
                   std::unique_ptr<Table>* table);

  // A compaction holds at most this many bytes of input images.
  static constexpr uint64_t kMaxImageBytes = 64ull << 20;

  // Open a compaction's inputs into *images: the victim level's tables,
  // then the set, each group in physical order so the head sweeps forward.
  // Each table is read whole, one FileStore::ReadFileRange over the
  // block-rounded file, while the images stay within kMaxImageBytes; the
  // rest stream (see TableImage). Needs no DB mutex.
  Status ReadImages(const std::vector<FileMetaData*>& victims,
                    const std::vector<FileMetaData*>& set,
                    TableImages* images);

  // Purge the file's pages from the buffer pool. Without `ban` the file is
  // dead (compacted away, or an output that never installed) and its
  // reader already closed: the purge also lifts a quarantine ban on it.
  // `ban` is for quarantined (not merely dead) files: the pool refuses to
  // re-admit the file's pages until it dies, so a reader racing the
  // quarantine cannot resurrect them (see BufferPool::EvictFile).
  void Evict(uint64_t file_number, bool ban = false);

 private:
  const std::string dbname_;
  const Options& options_;
  fs::FileStore* const store_;
  // This engine's registration with the shared buffer pool; empty when the
  // options carry no pool (block reads then go uncached).
  buf::BufferClient buffer_;
  // Serializes first opens, so each table is opened once.
  std::mutex open_mu_;
};

}  // namespace sealdb
