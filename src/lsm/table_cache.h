// TableCache: LRU cache of open Table readers, keyed by file number.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buf/buffer_pool.h"
#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "util/cache.h"
#include "util/options.h"

namespace sealdb {

namespace fs {
class FileStore;
class RandomAccessFile;
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
  // Reads pointing into `data`, or the streaming store handle.
  std::unique_ptr<fs::RandomAccessFile> file;
  std::unique_ptr<Table> table;
};

// Table images keyed by file number.
using TableImages = std::map<uint64_t, TableImage>;

class TableCache {
 public:
  TableCache(const std::string& dbname, const Options& options,
             fs::FileStore* store, int entries);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  // Drops the cached tables and purges every buffer-pool page owned by
  // this cache incarnation, so a reopened engine reusing file numbers can
  // never alias stale frames in a shared pool.
  ~TableCache();

  // Return an iterator for the specified file number (the corresponding
  // file length must be exactly "file_size" bytes).  If "tableptr" is
  // non-null, also sets "*tableptr" to point to the Table object
  // underlying the returned iterator.  The returned "*tableptr" object is
  // owned by the cache and should not be deleted, and is valid for as long
  // as the returned iterator is live.
  Iterator* NewIterator(const ReadOptions& options, uint64_t file_number,
                        uint64_t file_size, Table** tableptr = nullptr);

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

  // If a seek to internal key "k" in specified file finds an entry,
  // call (*handle_result)(arg, found_key, found_value).
  Status Get(const ReadOptions& options, uint64_t file_number,
             uint64_t file_size, const Slice& k, void* arg,
             void (*handle_result)(void*, const Slice&, const Slice&));

  // Evict any entry for the specified file number, including the file's
  // pages in the buffer pool (dead SSTable after compaction). `ban` is for
  // quarantined (not merely dead) files: the pool additionally refuses to
  // re-admit the file's pages, so a reader racing the quarantine cannot
  // resurrect them (see BufferPool::EvictFile).
  void Evict(uint64_t file_number, bool ban = false);

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size,
                   Cache::Handle**);

  const std::string dbname_;
  const Options& options_;
  fs::FileStore* const store_;
  // This cache's registration with the shared buffer pool; empty when the
  // options carry no pool (block reads then go uncached).
  buf::BufferClient buffer_;
  std::unique_ptr<Cache> cache_;
};

}  // namespace sealdb
